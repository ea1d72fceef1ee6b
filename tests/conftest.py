import copy

import numpy as np
import pytest

from deepsolve import DeepsolveError, build_admittance, load_case, solve_opf
from deepsolve.opfref import _OpfProblem

TWO_BUS_MP = """function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
1 3 0 0 0 0 1 1 0 132 1 1.06 0.94;
2 1 20 10 0 0 1 1 0 132 1 1.06 0.94;
];
mpc.gen = [
1 0 0 100 -100 1.0 100 1 100 0;
];
mpc.branch = [
1 2 0.02 0.08 0 50 0 0 0 0 1;
];
mpc.gencost = [
2 0 0 3 0.01 20 0;
];
"""


@pytest.fixture(scope="session")
def case30():
    return load_case("case30")


@pytest.fixture(scope="session")
def adm30(case30):
    return build_admittance(case30)


@pytest.fixture(scope="session")
def case118():
    return load_case("case118")


@pytest.fixture(scope="session")
def adm118(case118):
    return build_admittance(case118)


@pytest.fixture(scope="session")
def opf30(case30, adm30):
    sol = solve_opf(case30, adm=adm30)
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def opf118(case118, adm118):
    sol = solve_opf(case118, adm=adm118)
    assert sol.converged
    return sol


def solution_equalities_residual(case, adm, sol, loads=None) -> float:
    """Infinity norm of the balance equations at an OPF solution."""
    if loads is None:
        loads = case.default_loads
    prob = _OpfProblem(case, adm)
    x = np.concatenate([sol.v_ang, sol.v_mag, sol.p_gen, sol.q_gen])
    v = sol.v_mag * np.exp(1j * sol.v_ang)
    g = prob.equalities(x[None], (v * np.conj(adm.y @ v))[None], loads[None])
    return float(np.max(np.abs(g)))


def reference_indep(case, opf_sol):
    """Independent variables (slack |V|, PV P/|V|) from an OPF solution."""
    from deepsolve import IndependentVars

    return IndependentVars(
        v_slack=float(opf_sol.v_mag[case.slack_index]),
        pv_p_gen=opf_sol.p_gen[case.pv_gen],
        pv_v_mag=opf_sol.v_mag[case.pv_indices],
    )


def _json_kind(value):
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def kind_swaps(doc):
    """``(keys, value)`` for every key of the JSON object ``doc`` but
    ``format_version`` and each value of another JSON kind than the key
    holds, recursing into objects and into the first entry of a list of
    objects; ``keys`` is the path to the key.  The string stand-in is a
    digit string, as long as the list it replaces."""
    for key, held in doc.items():
        if key == "format_version":
            continue
        digits = "1" * len(held) if isinstance(held, list) and held else "1"
        for value in (digits, 5, True, None, [1], {"k": 1}):
            if _json_kind(value) != _json_kind(held):
                yield (key,), value
        if isinstance(held, dict):
            yield from (((key, *keys), value) for keys, value in kind_swaps(held))
        elif isinstance(held, list) and held and isinstance(held[0], dict):
            yield from (((key, 0, *keys), value) for keys, value in kind_swaps(held[0]))


def kind_swap_misses(doc, path, load) -> list:
    """The :func:`kind_swaps` of ``doc`` that ``load(path, swapped doc)``,
    which writes and reads the file ``path``, lets through or rejects
    without a ``DeepsolveError`` naming ``path`` and the swapped key."""
    misses = []
    for keys, value in kind_swaps(doc):
        swapped = copy.deepcopy(doc)
        part = swapped
        for key in keys[:-1]:
            part = part[key]
        part[keys[-1]] = value
        try:
            load(path, swapped)
        except DeepsolveError as exc:
            if str(path) in str(exc) and repr(keys[-1]) in str(exc):
                continue
        misses.append((keys, value))
    return misses
