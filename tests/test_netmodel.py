import json
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from deepsolve import (
    BusKind,
    CaseSyntaxError,
    CaseValidationError,
    build_admittance,
    parse_case,
)
from deepsolve.netmodel import _parse_matrices, load_case, validate_case

from conftest import TWO_BUS_MP


def test_parse_minimal_two_bus():
    case = parse_case(TWO_BUS_MP, name="case2")
    assert case.n_bus == 2
    assert len(case.branches) == 1
    assert len(case.pq_indices) == 1
    assert case.buses[0].kind is BusKind.SLACK
    assert case.buses[1].p_load == pytest.approx(0.2)
    assert case.branches[0].s_max == pytest.approx(0.5)
    # cost converted to per-unit basis: 0.01*(100 MW)^2 = 100, 20*100 = 2000
    assert case.cost_curves[0].c2 == pytest.approx(100.0)
    assert case.cost_curves[0].c1 == pytest.approx(2000.0)


def test_parse_shipped_case30(case30):
    assert case30.n_bus == 30
    assert len(case30.pv_indices) == 5
    assert len(case30.pq_indices) == 24
    assert len(case30.branches) == 41
    assert case30.base_mva == 100.0


def test_parse_shipped_case118(case118):
    # 54 generating units: one slack + 53 PV buses, leaving 64 PQ buses,
    # and the standard 186-branch topology
    assert case118.n_bus == 118
    assert len(case118.pv_indices) == 53
    assert len(case118.pq_indices) == 64
    assert len(case118.branches) == 186
    assert len(case118.generators) == 54


def test_parse_deterministic():
    a = parse_case(TWO_BUS_MP)
    b = parse_case(TWO_BUS_MP)
    assert a.buses == b.buses
    assert a.branches == b.branches
    assert a.generators == b.generators
    assert a.cost_curves == b.cost_curves


def test_two_bus_ybus_textbook():
    case = parse_case(TWO_BUS_MP)
    adm = build_admittance(case)
    y = 1.0 / complex(0.02, 0.08)
    expected = np.array([[y, -y], [-y, y]])
    assert np.allclose(adm.y, expected, atol=1e-15)


def _brute_force_ybus(case):
    """Element-by-element summation over the branch list, scalar arithmetic."""
    n = case.n_bus
    y = [[0j] * n for _ in range(n)]
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        k = case.bus_index(br.to_bus)
        ys = 1.0 / complex(br.series_r, br.series_x)
        t = br.tap_ratio * complex(np.cos(br.phase_shift), np.sin(br.phase_shift))
        y[i][i] += (ys + 0.5j * br.charging_b) / (abs(t) ** 2)
        y[k][k] += ys + 0.5j * br.charging_b
        y[i][k] += -ys / t.conjugate()
        y[k][i] += -ys / t
    for idx, bus in enumerate(case.buses):
        y[idx][idx] += complex(bus.shunt_g, bus.shunt_b)
    return np.array(y)


def test_case30_ybus_matches_bruteforce_oracle(case30, adm30):
    oracle = _brute_force_ybus(case30)
    assert np.max(np.abs(adm30.y - oracle)) < 1e-12


def test_tap_branch_algebra():
    text = TWO_BUS_MP.replace("1 2 0.02 0.08 0 50 0 0 0 0 1", "1 2 0.02 0.08 0 50 0 0 0.9 0 1")
    case = parse_case(text)
    adm = build_admittance(case)
    y = 1.0 / complex(0.02, 0.08)
    assert adm.y[0, 0] == pytest.approx(y / 0.9**2)
    assert adm.y[0, 1] == pytest.approx(-y / 0.9)
    assert adm.y[1, 0] == pytest.approx(-y / 0.9)
    assert adm.y[1, 1] == pytest.approx(y)


def test_row_sums_zero_without_shunts_taps(case30):
    from dataclasses import replace

    stripped = type(case30)(
        name=case30.name,
        base_mva=case30.base_mva,
        buses=tuple(replace(b, shunt_g=0.0, shunt_b=0.0) for b in case30.buses),
        branches=tuple(
            replace(br, charging_b=0.0, tap_ratio=1.0, phase_shift=0.0)
            for br in case30.branches
        ),
        generators=case30.generators,
        cost_curves=case30.cost_curves,
    )
    adm = build_admittance(stripped)
    assert np.max(np.abs(adm.y.sum(axis=1))) < 1e-12


def test_per_unit_round_trip():
    """Per-unit values scaled back by base_mva give the MATPOWER file's numbers."""
    text = (resources.files("deepsolve") / "cases" / "case30.m").read_text()
    case30 = parse_case(text, name="case30")
    _, tables = _parse_matrices(text)
    base = case30.base_mva
    assert len(tables["bus"]) == len(case30.buses)
    for bus, row in zip(case30.buses, tables["bus"]):
        assert bus.id == int(row[0])
        for value, raw in (
            (bus.p_load * base, row[2]),
            (bus.q_load * base, row[3]),
            (bus.shunt_b * base, row[5]),
            (bus.v_max, row[11]),
            (bus.v_min, row[12]),
        ):
            assert value == pytest.approx(raw, rel=1e-10, abs=1e-12)
    in_service = [row for row in tables["branch"] if row[10] != 0]
    assert len(in_service) == len(case30.branches)
    for branch, row in zip(case30.branches, in_service):
        assert branch.s_max * base == pytest.approx(row[5], rel=1e-10)
        assert branch.tap_ratio == pytest.approx(row[8] or 1.0, rel=1e-10)
    for curve, row in zip(case30.cost_curves, tables["gencost"]):
        assert int(row[3]) == 3
        assert curve.c2 / base**2 == pytest.approx(row[4], rel=1e-10)
        assert curve.c1 / base == pytest.approx(row[5], rel=1e-10)


def test_canonical_and_matpower_agree():
    """The bundled MATPOWER files and their canonical JSON parse to the same networks."""
    cases = resources.files("deepsolve") / "cases"
    for name in ("case30", "case118"):
        matpower = parse_case((cases / f"{name}.m").read_text(), name=name)
        canonical = parse_case((cases / f"{name}.json").read_text(), name=name)
        assert matpower == canonical


def test_unknown_bus_reference_rejected():
    text = TWO_BUS_MP.replace("1 2 0.02 0.08", "1 7 0.02 0.08")
    with pytest.raises(CaseValidationError, match="unknown bus 7"):
        parse_case(text)


def test_missing_cost_curve_rejected():
    text = TWO_BUS_MP.replace("2 0 0 3 0.01 20 0;\n", "")
    with pytest.raises(CaseSyntaxError, match="gencost"):
        parse_case(text)


def test_syntax_error_carries_line_number():
    text = TWO_BUS_MP.replace("1 2 0.02 0.08", "1 2 zz 0.08")
    with pytest.raises(CaseSyntaxError, match=r"line \d+"):
        parse_case(text)


@pytest.mark.parametrize("suffix", [".m", ".json"])
def test_case_file_syntax_error_names_the_file(tmp_path, suffix):
    if suffix == ".m":
        text = TWO_BUS_MP.replace("1 2 0.02 0.08", "1 2 zz 0.08")
    else:  # the shipped case cut mid-document
        text = (resources.files("deepsolve") / "cases" / "case30.json").read_text()[:600]
    path = tmp_path / f"broken{suffix}"
    path.write_text(text)
    with pytest.raises(CaseSyntaxError) as err:
        load_case(path)
    assert re.match(rf"{re.escape(str(path))}: line \d+: ", str(err.value))


def _case30_doc():
    return json.loads((resources.files("deepsolve") / "cases" / "case30.json").read_text())


def _set(path, value):
    """An edit of the canonical case30 document: ``value`` at key ``path``."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (_set(["buses"], 5), CaseSyntaxError, "'buses' must be a list, got 5"),
        (_set(["buses", 2], "x"), CaseSyntaxError, 'buses[2]: expected an object, got "x"'),
        (_set(["buses", 0, "v_min"], None), CaseSyntaxError,
         "buses[0]: 'v_min' = null is not a valid float"),
        (_set(["buses", 1, "kind"], "foo"), CaseSyntaxError,
         "buses[1]: 'kind' = \"foo\" is not a valid BusKind"),
        (_set(["generators", 0, "cost"], 7), CaseSyntaxError,
         "generators[0] 'cost': expected an object, got 7"),
        (_set(["base_mva"], "big"), CaseSyntaxError, "'base_mva' = \"big\" is not a number"),
        (_set(["buses", 3, "p_load"], float("nan")), CaseValidationError,
         "bus 4: p_load is nan, not a finite number"),
        (_set(["branches", 0, "s_max"], float("inf")), CaseValidationError,
         "branch 1-2: s_max is inf, not a finite number"),
        (_set(["generators", 1, "q_max"], float("-inf")), CaseValidationError,
         "generator at bus 2: q_max is -inf, not a finite number"),
        (_set(["generators", 1, "cost", "c1"], float("nan")), CaseValidationError,
         "cost of generator at bus 2: c1 is nan, not a finite number"),
        (_set(["base_mva"], float("inf")), CaseValidationError,
         "base_mva must be finite and > 0, got inf"),
        (_set(["buses", 1, "id"], 2.7), CaseSyntaxError, "buses[1]: 'id' = 2.7 is not a valid int"),
        # a bool or a numeric string is not a number, as in every file header
        (_set(["branches", 0, "s_max"], False), CaseSyntaxError,
         "branches[0]: 's_max' = false is not a valid float"),
        (_set(["buses", 0, "v_min"], "0.95"), CaseSyntaxError,
         "buses[0]: 'v_min' = \"0.95\" is not a valid float"),
        (_set(["base_mva"], True), CaseSyntaxError, "'base_mva' = true is not a number"),
        (_set(["buses", 0, "id"], "30"), CaseSyntaxError,
         "buses[0]: 'id' = \"30\" is not a valid int"),
        (_set(["generators", 0, "cost", "c2"], "37.5"), CaseSyntaxError,
         "generators[0] 'cost': 'c2' = \"37.5\" is not a valid float"),
        (_set(["base_mva"], 10**400), CaseSyntaxError,
         f"'base_mva' = {10**400} is not a number"),
    ],
    ids=["buses_not_list", "bus_not_object", "null_v_min", "unknown_kind", "cost_not_object",
         "base_mva_not_number", "nan_p_load", "inf_s_max", "inf_q_max", "nan_cost",
         "inf_base_mva", "fractional_bus_id", "bool_s_max", "string_v_min", "bool_base_mva",
         "string_bus_id", "string_cost_c2", "overflowing_int_base_mva"],
)
def test_malformed_canonical_case_rejected(edit, error, message):
    doc = _case30_doc()
    edit(doc)
    with pytest.raises(error) as err:
        parse_case(json.dumps(doc))
    assert str(err.value) == message


def test_canonical_case_with_an_over_long_integer_rejected_with_path(tmp_path):
    """json.loads raises a plain ValueError for an integer literal past
    Python's 4,300-digit conversion limit; it is a case syntax error."""
    path = tmp_path / "big.json"
    path.write_text('{"base_mva": ' + "1" * 5000 + ", " + json.dumps(_case30_doc())[1:])
    with pytest.raises(CaseSyntaxError) as err:
        load_case(path)
    assert str(err.value).startswith(f"{path}: Exceeds the limit (4300 digits)")


def _mp(old, new):
    """The two-bus MATPOWER case with its text ``old`` replaced by ``new``."""
    assert old in TWO_BUS_MP
    return TWO_BUS_MP.replace(old, new)


_BUS_2 = "2 1 20 10 0 0 1 1 0 132 1 1.06 0.94;"
_COST = "2 0 0 3 0.01 20 0;"
_GENCOST = "mpc.gencost = [\n2 0 0 3 0.01 20 0;\n];\n"
_BRANCH = "mpc.branch = [\n1 2 0.02 0.08 0 50 0 0 0 0 1;\n];\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        (_mp(_BUS_2, "NaN" + _BUS_2[1:]), CaseSyntaxError,
         "mpc.bus row 2: 'id' = NaN is not a valid int"),
        (_mp(_BUS_2, "Inf" + _BUS_2[1:]), CaseSyntaxError,
         "mpc.bus row 2: 'id' = Infinity is not a valid int"),
        (_mp("mpc.baseMVA = 100;", "mpc.baseMVA = abc;"), CaseSyntaxError,
         "'mpc.baseMVA' = \"abc\" is not a number"),
        (_mp("mpc.baseMVA = 100;", "mpc.baseMVA = 0;"), CaseValidationError,
         "base_mva must be finite and > 0, got 0.0"),
        (_mp(_BUS_2, "2 7" + _BUS_2[3:]), CaseSyntaxError,
         "mpc.bus row 2: 'kind' = 7.0 is not a valid BusKind"),
        (_mp(_BUS_2, _BUS_2.replace(" 0.94;", ";")), CaseSyntaxError,
         "mpc.bus row 2: needs 13 columns, got 12"),
        (_mp(_COST, "2 0 0;"), CaseSyntaxError, "mpc.gencost row 1: needs 4 columns, got 3"),
        (_mp(_COST, "NaN" + _COST[1:]), CaseSyntaxError,
         "mpc.gencost row 1: only polynomial gencost (model 2) is supported"),
        (_mp(_COST, "2 0 0 NaN 0.01 20 0;"), CaseSyntaxError,
         "mpc.gencost row 1: need 1..3 coefficients"),
        (_mp("1 0 0 100 -100", "1.9 0 0 100 -100"), CaseSyntaxError,
         "mpc.gen row 1: 'bus' = 1.9 is not a valid int"),
        # an unterminated table is reported at its opening line, a bad
        # number at the line that holds it
        (_mp(_GENCOST, _GENCOST[:-3]), CaseSyntaxError,
         "line 14: unterminated matrix mpc.gencost"),
        (_mp(_BUS_2, "2 1 2x0" + _BUS_2[6:]), CaseSyntaxError,
         "line 6: bad number in mpc.bus: could not convert string to float: '2x0'"),
        (_mp(_BRANCH, ""), CaseSyntaxError, "missing mpc.branch table"),
        (_mp("mpc.baseMVA = 100;\n", ""), CaseSyntaxError, "missing mpc.baseMVA"),
    ],
    ids=["nan_bus_id", "inf_bus_id", "base_mva_not_number", "zero_base_mva",
         "unknown_bus_type", "short_bus_row", "short_gencost_row", "nan_gencost_model",
         "nan_gencost_count", "fractional_gen_bus", "unterminated_table",
         "bad_number_on_a_table_s_third_line", "missing_table", "missing_base_mva"],
)
def test_malformed_matpower_case_rejected(text, error, message):
    with pytest.raises(error) as err:
        parse_case(text)
    assert str(err.value) == message


def test_non_finite_matpower_number_rejected():
    text = TWO_BUS_MP.replace("2 1 20 10 0 0", "2 1 NaN 10 0 0")
    with pytest.raises(CaseValidationError, match="bus 2: p_load is nan"):
        parse_case(text)


def test_two_slack_rejected():
    text = TWO_BUS_MP.replace("2 1 20 10", "2 3 20 10")
    with pytest.raises(CaseValidationError, match="slack"):
        parse_case(text)


def test_disconnected_network_rejected():
    text = TWO_BUS_MP.replace(
        "2 1 20 10 0 0 1 1 0 132 1 1.06 0.94;",
        "2 1 20 10 0 0 1 1 0 132 1 1.06 0.94;\n3 1 5 2 0 0 1 1 0 132 1 1.06 0.94;",
    )
    with pytest.raises(CaseValidationError, match="not connected"):
        parse_case(text)


@pytest.mark.parametrize("name", ["case30", "case118", "case2"])
def test_cached_facts_match_elements_and_are_read_only(name, request):
    case = (
        parse_case(TWO_BUS_MP, name=name) if name == "case2" else request.getfixturevalue(name)
    )
    kinds = [b.kind for b in case.buses]
    assert kinds[case.slack_index] is BusKind.SLACK
    assert case.pv_indices.tolist() == [i for i, k in enumerate(kinds) if k is BusKind.PV]
    assert case.pq_indices.tolist() == [i for i, k in enumerate(kinds) if k is BusKind.PQ]
    assert [case.buses[i].id for i in case.gen_bus] == [g.bus for g in case.generators]
    assert [case.generators[k].bus for k in case.pv_gen] == [
        case.buses[i].id for i in case.pv_indices
    ]
    assert case.generators[case.slack_gen].bus == case.buses[case.slack_index].id
    per_element = {
        "v_min": [b.v_min for b in case.buses],
        "v_max": [b.v_max for b in case.buses],
        "p_min": [g.p_min for g in case.generators],
        "p_max": [g.p_max for g in case.generators],
        "q_min": [g.q_min for g in case.generators],
        "q_max": [g.q_max for g in case.generators],
        "c2": [c.c2 for c in case.cost_curves],
        "c1": [c.c1 for c in case.cost_curves],
        "c0": [c.c0 for c in case.cost_curves],
        "s_max": [br.s_max for br in case.branches],
        "s_limited": [br.s_max > 0 for br in case.branches],
        "default_loads": [b.p_load for b in case.buses] + [b.q_load for b in case.buses],
    }
    for attr, expected in per_element.items():
        assert getattr(case, attr).tolist() == expected, attr
    arrays = ["pv_indices", "pq_indices", "gen_bus", "pv_gen", *per_element]
    for attr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(case, attr)[...] = 0
    assert case.pv_indices is case.pv_indices  # computed once


def _with(case, group, pos, **fields):
    """``case`` with element ``pos`` of its tuple ``group`` given ``fields``."""
    items = list(getattr(case, group))
    items[pos] = replace(items[pos], **fields)
    return replace(case, **{group: tuple(items)})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: replace(c, buses=()), "case has no buses"),
        (lambda c: _with(c, "buses", 1, id=1), "duplicate bus ids"),
        (lambda c: _with(c, "buses", 1, v_min=1.1), "bus 2: need 0 < v_min <= v_max"),
        (lambda c: _with(c, "branches", 0, series_r=0.0, series_x=0.0),
         "branch 1-2: zero series impedance"),
        (lambda c: _with(c, "branches", 0, tap_ratio=0.0),
         "branch 1-2: tap ratio must be positive"),
        (lambda c: replace(c, cost_curves=()), "1 generators but 0 cost curves"),
        (lambda c: _with(c, "generators", 0, bus=7), "generator references unknown bus 7"),
        (lambda c: _with(c, "generators", 0, q_min=2.0), "generator at bus 1: inverted limits"),
        (lambda c: replace(c, generators=2 * c.generators, cost_curves=2 * c.cost_curves),
         "multiple generators on one bus are not supported"),
        (lambda c: _with(c, "cost_curves", 0, c2=-1.0), "cost curves must be convex (c2 >= 0)"),
        (lambda c: replace(c, generators=(*c.generators, replace(c.generators[0], bus=2)),
                           cost_curves=2 * c.cost_curves), "generator on PQ bus 2"),
        (lambda c: _with(c, "buses", 1, kind=BusKind.PV), "pv bus 2 has no generator"),
        (lambda c: replace(c, generators=(), cost_curves=()), "slack bus 1 has no generator"),
    ],
    ids=["no_buses", "duplicate_ids", "v_min_above_v_max", "zero_impedance", "zero_tap",
         "cost_count", "gen_unknown_bus", "inverted_gen_limits", "two_gens_one_bus",
         "concave_cost", "gen_on_pq_bus", "pv_without_gen", "slack_without_gen"],
)
def test_invalid_case_rejected_with_its_message(edit, message):
    case = parse_case(TWO_BUS_MP, name="case2")
    with pytest.raises(CaseValidationError) as err:
        validate_case(edit(case))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "mpc.t = [1 2; 3 4];",
        "mpc.t = [\n1 2;\n3 4;\n];",
        "mpc.t = [ 1, 2\n  3 4 ]  % closed on its last row's line",
        "mpc.t = [1 2;\n\n% a comment\n3, 4;];",
    ],
    ids=["one_line", "closing_on_its_own_line", "closing_on_the_last_row", "blank_and_comment"],
)
def test_matpower_table_layouts_read_alike(text):
    scalars, tables = _parse_matrices(f"mpc.version = '2';\n{text}\nmpc.baseMVA = 100;\n")
    assert scalars == {"version": "2", "baseMVA": "100"}
    assert tables == {"t": [[1.0, 2.0], [3.0, 4.0]]}
