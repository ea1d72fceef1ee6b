"""Reference AC optimal power flow solver.

Primal-dual interior point method: slacks on every inequality, logarithmic
barrier, Newton steps on the perturbed KKT system, fraction-to-the-boundary
step control (0.99995), and a barrier parameter set either by Mehrotra's
predictor-corrector or by a fixed reduction (sigma = 0.1), as below.  The
variable vector is x = [va, vm, pg, qg] in polar per-unit coordinates.

Each Newton step is assembled from the network structure rather than from
dense derivative matrices (the scheme of MATPOWER's MIPS): the
power-balance Jacobian is ``powerflow.dsbus_dv``, which the Newton power
flow runs too, the voltages come from the power flow's kernel
``powerflow._polar``, and the voltage block of the Lagrangian Hessian is one
bilinear kernel at the admittance pattern.  Its coefficient at entry
(i, k) is c_i conj(Y_ik), with the combined multiplier c = lam_p - j lam_q,
and the branch-flow rows' curvature is folded into the same form: a flow
row |S_e|^2 - smax^2, with S_e = sum_ab V_a m_e[a, b] conj(V_b) over the
branch's two buses, has second derivative 2 Re(conj(dS) dS' + conj(S_e)
d2S_e), and its second term is the form with coefficients
2 mu_e conj(S_e) m_e, added at the (f, t) entries.  What is left of a flow
row is real and rank one: 2 mu (Re dS Re dS' + Im dS Im dS') plus the
barrier term (mu/z) dh dh', a 4x4 block over (va_f, va_t, vm_f, vm_t).  The
box rows of jh, signed identities, go straight onto the diagonal.  The
generator block of the KKT matrix is diagonal and positive, so it is
eliminated exactly, which leaves a (4N+1)-square system in (va, vm, lam)
and a back-substitution for the dispatch step.  That system is a sparse
matrix of 4x4 blocks, one per bus pair of the admittance pattern over the
bus's (va, vm, lam_P, lam_Q), plus the slack-angle row, and it is solved
by block elimination (:class:`_BusElimination`): rounds of independent
buses are eliminated with 4x4 pivots until at most KKT_DENSE_DIM unknowns
are left, which LAPACK solves densely.  case30 (121 unknowns) is solved
densely whole; case118 (473) eliminates 96 buses in three rounds and
leaves an 89-square system.  The rounds pivot only within each 4x4
block, so a row whose componentwise backward error (Arioli, Demmel & Duff,
1989) exceeds REFINE_TOL = 1e-12, the accuracy of a dense LAPACK solve,
takes one step of iterative refinement; the solver's own steps seldom
need it (none of 40 cold case118 solves did: the largest error was
1.8e-13).  The system is factored once per iteration and can be solved
for more than one right-hand side.  The entries are the admittance's sparse
pattern, and the index arrays built on them, the elimination's rounds
too, are kept once per admittance matrix.  The product
M = conj(Y_ik) V_i conj(V_k) there is formed once per iteration: its row
sums are the injections, and ``dsbus_dv`` takes it.

:func:`solve_opf` is the one entry point and the one iteration: given a
stack of B load rows it advances them in lockstep, and one load vector is
a stack of one row.  Every row keeps its own step lengths, barrier
parameter, stopping test and history; a row leaves the live arrays when it
converges, stops on a non-finite iterate or meets a singular or non-finite
step, and the other rows carry on.  The live rows' reduced systems are
solved as one stack: stacked 4x4 inversions and products, then the dense
systems as one LAPACK stack (``powerflow._newton_steps``, which gives a
singular matrix a NaN step for its own row), each bit-identical per matrix
to a lone one.  The other kernels are row-wise too: elementwise
arithmetic, reductions along a row and row-wise ``bincount`` scatters,
with no matrix product across the batch (the injections are row sums of
M, not a dense Y V).  So a row goes through the arithmetic of its lone
solve, and on the hosts checked its iterates are bit-identical to it: a
label does not depend on the batch it was solved in.  :func:`recover` is
:func:`solve_opf` from a warm start.

Batching amortizes the Python overhead of about twenty small numpy kernels
per iteration, which is most of a lone case30 iteration; the dense solves
stay one per row.  ``gen-data`` labels in batches of BATCH_ROWS = 8 rows.
A row's memory does not grow with N squared, because the elimination caps
the dense tail at KKT_DENSE_DIM unknowns: a case30 row holds its dense
121-square matrix (117 KB), a case118 row 670 blocks (86 KB) and an
89-square tail (63 KB).  In batches of 8 a cold case30 solve takes a third
to a half of its lone time per row, and more rows gained no more than the
run-to-run noise; 32 case118 rows took 21 ms per row against 26 ms alone
(single-threaded OpenBLAS, 2-core Xeon).

The iteration works on the cost times f_scale = min(1, G / max|grad f|),
with the gradient taken at the midpoint dispatch and G =
OBJECTIVE_GRAD_MAX (Ipopt's gradient-based scaling; MATPOWER's MIPS
scales its cost by 1e-4).  Unscaled, case118's cost gradient of 28,000 $/h
per p.u. dwarfs the unit multipliers of the cold barrier state, and the
dispatch creeps along its lower bounds for dozens of tiny steps.  The
factor depends on the case alone; it is 1 on case30.  The multipliers are
in scaled units inside the loop, and the stopping rule divides them back,
so EQ_TOL, INEQ_TOL, COMP_TOL, GRAD_TOL, ``history`` and ``kkt_residual``
are in the cost's own units, as is the objective.

A cold solve of a case whose elimination takes rounds (case118) runs
Mehrotra's predictor-corrector (Mehrotra, SIAM J. Optim. 1992; for OPF,
Wu, Debs & Marsten, IEEE Trans. Power Syst. 1994): each iteration factors
its Newton system once and solves it twice.  The affine predictor aims at
z mu = 0 and is not checked for refinement.  Its step lengths give the
complementarity comp_aff it would reach from comp = sum z mu, and
sigma = min(1, (comp_aff / comp)^3).  The corrector aims at
sigma comp / niq - dz_aff dmu_aff, elementwise: the mean it should reach,
less the predictor's second-order term.  This takes a cold case118 solve
from about 17 iterations to about 12, and its opening slacks take it to
about 11, as below.  Every other solve takes one Newton
step per iteration toward z mu = sigma comp / niq with sigma = 0.1 and the
last iterate's comp.  There the corrector measured no gain: case30's dense
path factorizes anew for every right-hand side, so its 9.4 to 7.2
iterations saved no time (the median paired time ratio of 20 lone solves
read 0.96 to 1.03 across three runs), and warm case118 restarts, which
open near their optimum with a small barrier parameter, took 15.4
iterations against 6.8.  The choice needs no option: a cold start and the
rounds are what the solver sees.

The cold barrier state opens every slack at max(floor, -h) and its
multiplier at max(1, 1/z).  The floor is 1, MATPOWER's MIPS default,
except on the corrector's path, where it is _Z0 = 0.3: at the case118
cold start 691 of 824 rows have a margin -h between 0 and 1, and a floor
of 1 opens them with h + z off by up to 1.  Over 400 cold case118 solves
the mean went from 12.3 to 11.1 iterations with 0.3 (0.5 read 11.3, 0.2
read 11.6); every solve converged, and no objective moved by more than
2.4e-10 relative.  On case30's sigma = 0.1 path the same floor gained
nothing (9.34 to 9.38 iterations over 100 loads), so every other start
keeps 1.

A near-feasible warm start opens with slacks of at least 5e-3 f_scale and
a barrier parameter of 1e-3 f_scale, in the scaled units of the
multipliers; restarts from the default-load case118 optimum at other
loads take about 7 iterations.

Cold starts are fixed (flat voltages, midpoint generation) so the
load-to-solution mapping the learned pipeline regresses on is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .netmodel import AdmittanceMatrix, DeepsolveError, NetworkCase, build_admittance
from .powerflow import _newton_steps, _polar, dsbus_dv

EQ_TOL = 1e-8  # infinity norm of the balance equations
INEQ_TOL = 1e-6  # max inequality violation
COMP_TOL = 1e-6  # mean complementarity gap
GRAD_TOL = 1e-6  # scaled stationarity
DEFAULT_MAX_ITER = 150
# bound on the scaled cost's gradient at the midpoint dispatch (_objective_scale)
OBJECTIVE_GRAD_MAX = 1e3
# load rows per lockstep batch when labelling (the module docstring's rule)
BATCH_ROWS = 8
# the most unknowns of a reduced KKT system LAPACK solves densely (_BusElimination)
KKT_DENSE_DIM = 128
# componentwise backward error above which a rounds step is refined (_BusElimination.apply)
REFINE_TOL = 1e-12

_XI = 0.99995  # fraction-to-the-boundary
_TOLS = np.array([EQ_TOL, INEQ_TOL, COMP_TOL, GRAD_TOL])
_SIGMA = 0.1  # barrier reduction factor where the corrector does not run
_Z0 = 0.3  # slack floor of a cold start on the corrector's path (1 elsewhere)


class OpfError(DeepsolveError):
    pass


@dataclass(frozen=True)
class WarmStart:
    """Full primal point assembled from a prediction or a prior solution."""

    v_mag: np.ndarray
    v_ang: np.ndarray
    p_gen: np.ndarray
    q_gen: np.ndarray


@dataclass
class OpfSolution:
    p_gen: np.ndarray
    q_gen: np.ndarray
    v_mag: np.ndarray
    v_ang: np.ndarray
    objective: float
    kkt_residual: float
    converged: bool
    iterations: int
    wall_time: float
    history: list[tuple] = field(default_factory=list, repr=False)


class OpfBatch(list):
    """The solutions of one lockstep batch, one per load row.  Read as one
    outcome, like a lone solve's: ``iterations`` is the rows' iterations
    summed and ``converged`` holds when every row converged."""

    @property
    def iterations(self) -> int:
        return sum(sol.iterations for sol in self)

    @property
    def converged(self) -> bool:
        return all(sol.converged for sol in self)


def generation_cost(case: NetworkCase, p_gen: np.ndarray) -> float | np.ndarray:
    """Total quadratic generation cost in $/hr for per-unit dispatch: a
    float for one dispatch (G,), one cost per row for a stack (..., G)."""
    cost = np.sum(case.c2 * p_gen**2 + case.c1 * p_gen + case.c0, axis=-1)
    return float(cost) if cost.ndim == 0 else cost


class _RowSum:
    """Row-wise ``bincount`` into ``size`` bins: entry [r, j] of the sum of
    (B, len(idx)) weights w is the sum of w[r, m] over the m with
    idx[m] == j.  Complex weights are summed as interleaved real and
    imaginary parts.  The flat bin indices of b rows are the first entries
    of those of any larger batch, so one array per kind of weight, for the
    largest batch yet, serves every batch size."""

    def __init__(self, idx: np.ndarray, size: int):
        self.idx = np.ravel(idx)
        self.size = size
        self._flat = {False: self.idx[:0], True: self.idx[:0]}

    def __call__(self, w: np.ndarray) -> np.ndarray:
        b, size = len(w), self.size
        cplx = w.dtype.kind == "c"
        used = b * len(self.idx) * (2 if cplx else 1)
        flat = self._flat[cplx]
        if len(flat) < used:
            flat = (self.idx + size * np.arange(b)[:, None]).ravel()
            if cplx:
                flat = np.stack([2 * flat, 2 * flat + 1], axis=1).ravel()
            self._flat[cplx] = flat
        flat = flat[:used]
        if cplx:
            w = np.ascontiguousarray(w).view(np.float64)
            return np.bincount(flat, w.ravel(), 2 * b * size).view(complex).reshape(b, size)
        return np.bincount(flat, w.ravel(), b * size).reshape(b, size)


def _bilinear_terms(adm, b, rs, cs, vm):
    """Second derivatives of Re F, F = sum_ik m_ik V_i conj(V_k), with
    respect to (angles, magnitudes), for a (B, ...) stack of forms.

    A form is given at its entries b_ik = V_i m_ik conj(V_k) on the pattern
    of ``adm``; ``rs``/``cs`` are the row and column sums of b and ``vm``
    the magnitudes.  Returns the (va, va), (va, vm), (vm, va) and (vm, vm)
    blocks at every entry, (B, 4, entries).
    """
    bt, vm_k = b[:, adm.tpos], vm[:, adm.k]
    h = np.empty((len(b), 4, b.shape[1]))
    np.add(b.real, bt.real, out=h[:, 0])
    np.divide(h[:, 0], vm[:, adm.i] * vm_k, out=h[:, 3])
    h[:, 0, adm.bus_entry] -= (rs + cs).real
    np.subtract(bt.imag, b.imag, out=h[:, 1])
    h[:, 1] /= vm_k
    h[:, 1, adm.bus_entry] += (cs - rs).imag / vm
    h[:, 2] = h[:, 1, adm.tpos]
    return h


def _inverses(a: np.ndarray) -> np.ndarray:
    """The inverse of every matrix of a (..., 4, 4) stack; a singular one
    gets a NaN inverse instead of failing the stack."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full_like(a, np.nan)
        for idx in np.ndindex(a.shape[:-2]):
            try:
                out[idx] = np.linalg.inv(a[idx])
            except np.linalg.LinAlgError:
                pass
        return out


class _DenseLayout:
    """The reduced KKT system restricted to ``buses`` as dense matrices, in
    the layout of the whole system: the buses' angles, magnitudes, lam_P and
    lam_Q, each in bus order, then the slack-angle row.  ``index`` lists
    these unknowns in the bus-major numbering of :class:`_BusElimination`;
    ``block_at`` (N, N) is its number of each bus pair's block, -1 where
    there is none."""

    def __init__(self, block_at: np.ndarray, buses: np.ndarray, slack: int):
        nb = len(buses)
        self.m = m = 4 * nb + 1
        a, c = np.nonzero(block_at[np.ix_(buses, buses)] >= 0)
        self.blocks = block_at[buses[a], buses[c]]
        q = np.arange(4) * nb
        rows, cols = a[:, None] + q, c[:, None] + q
        self.pos = (rows[:, :, None] * m + cols[:, None]).ravel()
        js = int(np.flatnonzero(buses == slack)[0])
        self.ones = np.array([(m - 1) * m + js, js * m + m - 1])
        n = len(block_at)
        self.index = np.append((4 * buses + np.arange(4)[:, None]).ravel(), 4 * n)

    def matrices(self, blocks: np.ndarray) -> np.ndarray:
        """The dense (B, m, m) systems of a (B, blocks, 4, 4) stack."""
        b = len(blocks)
        out = np.zeros((b, self.m * self.m))
        out[:, self.ones] = 1.0
        out[:, self.pos] = blocks[:, self.blocks].reshape(b, -1)
        return out.reshape(b, self.m, self.m)


@dataclass(frozen=True)
class _Round:
    """One round of :class:`_BusElimination`: its pivot buses, and per edge
    (p, c) from a pivot to a bus c left after the round, the pivot's index
    ``edge_pivot`` and the blocks (p, c) and (c, p).  The Schur update of
    block (a, c) sums, over the pivots p next to both, L_ap inv(A_pp) A_pc:
    the products of edges ``t_low`` and ``t_up``.  Its targets are blocks
    that exist by the end of the round, so ``sum_update`` sums into those."""

    pivots: np.ndarray
    pivot_blocks: np.ndarray
    edge_pivot: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    t_low: np.ndarray
    t_up: np.ndarray
    pivot_rows: np.ndarray  # the pivots' unknowns, bus-major
    edge_rows: np.ndarray  # each edge's bus c's unknowns
    sum_update: _RowSum  # the products into their target blocks
    sum_forward: _RowSum  # per edge, into its bus c's unknowns
    sum_back: _RowSum  # per edge, into its pivot's unknowns


@dataclass(frozen=True)
class _Factors:
    """A stack of systems factored by :meth:`_BusElimination.factor`: the
    assembled 4x4 ``blocks``, per round the inverted pivot blocks,
    inv(A_pp) A_pc and L_cp, and the dense ``tail`` matrices; where no
    round is taken, the dense matrices alone as ``tail``."""

    blocks: np.ndarray | None
    rounds: list
    tail: np.ndarray

    def take(self, rows) -> "_Factors":
        return _Factors(
            self.blocks[rows], [tuple(f[rows] for f in rd) for rd in self.rounds], self.tail[rows]
        )


class _BusElimination:
    """Block elimination of the reduced KKT system by buses, its symbolic
    part built once per admittance matrix and slack bus (``adm.derive``).

    Grouped by bus as (va, vm, lam_P, lam_Q), the system is a sparse matrix
    of 4x4 blocks on the bus graph, one per entry of the admittance pattern,
    plus the slack-angle row, which touches only the slack bus's angle.  A
    bus's pivot block [[H_bb, J_bb'], [J_bb, D_b]] is nonsingular wherever
    its 2x2 balance Jacobian J_bb is, also where D_b, the lam diagonal, is
    zero at a bus without generators; scalar pivots would meet those zeros
    (Sun, Ashley, Brewer, Hughes & Tinney's block Newton OPF, 1984).

    The elimination runs in rounds (Liu's multiple elimination, 1985).  A
    round takes a greedy independent set of the buses left, in order of
    their degree in the filled bus graph and never the slack bus.  Its
    pivots touch no other pivot, so they are eliminated at once: their
    blocks are inverted as one stack and the Schur updates, 4x4 products,
    are summed into their target blocks, which adds the fill between each
    pivot's neighbours.  Rounds continue until the buses left form a system
    of at most KKT_DENSE_DIM unknowns, which LAPACK solves densely
    (:class:`_DenseLayout`).  case30 (121 unknowns) takes no round, so its
    step is the one dense solve; case118 takes three (56, 27 and 13 buses)
    and leaves 22 buses, 89 unknowns.

    Blocks are numbered as the admittance pattern's entries, then the fill
    in the order it appears.  Vectors are bus-major inside: the four
    unknowns of each bus in bus order, then the slack-angle row.
    """

    def __init__(self, adm: AdmittanceMatrix, slack: int):
        n, nnz = adm.dimension, len(adm.i)
        self.slack = slack
        block_at = adm.entry.copy()  # the block at (row bus, column bus), -1 where none
        count = nnz
        quad = np.arange(4)
        left = np.arange(n)
        self.rounds = []
        while 4 * len(left) + 1 > KKT_DENSE_DIM:
            adj = block_at[np.ix_(left, left)] >= 0
            np.fill_diagonal(adj, False)
            # greedy independent set, lowest degree first, without the slack bus
            free = left != slack
            taken = np.zeros(len(left), dtype=bool)
            for j in np.argsort(adj.sum(axis=1), kind="stable").tolist():
                if free[j]:
                    taken[j] = True
                    free[adj[j]] = False
            pivots, rest = left[taken], left[~taken]
            edge_pivot, nb = np.nonzero(adj[np.ix_(taken, ~taken)])
            nb = rest[nb]
            # every ordered pair of one pivot's edges
            deg = np.bincount(edge_pivot, minlength=len(pivots))
            first = np.cumsum(deg) - deg
            per = deg[edge_pivot]
            t_low = np.repeat(np.arange(len(nb)), per)
            t_up = np.repeat(first[edge_pivot] - np.cumsum(per) + per, per) + np.arange(len(t_low))
            a, c = nb[t_low], nb[t_up]
            new = block_at[a, c] < 0
            fill = np.unique(a[new] * n + c[new])
            block_at.flat[fill] = count + np.arange(len(fill))
            count += len(fill)
            pv = pivots[edge_pivot]
            self.rounds.append(_Round(
                pivots=pivots,
                pivot_blocks=block_at[pivots, pivots],
                edge_pivot=edge_pivot,
                upper=block_at[pv, nb],
                lower=block_at[nb, pv],
                t_low=t_low,
                t_up=t_up,
                pivot_rows=(4 * pivots[:, None] + quad).ravel(),
                edge_rows=(4 * nb[:, None] + quad).ravel(),
                sum_update=_RowSum(16 * block_at[a, c][:, None] + np.arange(16), 16 * count),
                sum_forward=_RowSum(4 * nb[:, None] + quad, 4 * n + 1),
                sum_back=_RowSum(4 * edge_pivot[:, None] + quad, 4 * len(pivots)),
            ))
            left = rest
        self.n_blocks = count
        self.tail = _DenseLayout(block_at, left, slack)
        self.whole = self.tail if not self.rounds else _DenseLayout(block_at, np.arange(n), slack)
        # the whole system's unknowns, bus-major, in its layout and back
        self.bus_major = self.whole.index.argsort()
        self.kind_major = self.whole.index
        # the product with the assembled system, whose blocks are the pattern's
        self.entry_cols = (4 * adm.k[:, None] + quad).ravel()
        self.sum_entry_rows = _RowSum(4 * adm.i[:, None] + quad, 4 * n + 1)
        self.nnz = nnz

    def place(self, slots: np.ndarray) -> np.ndarray:
        """Where :meth:`factor` reads the values of these block slots (block
        number times 16, plus the entry's row-major place in the block): in
        the flat block storage, or, where no round is taken, straight in
        the dense matrix, whose blocks are the pattern's in storage order."""
        return self.tail.pos[slots] if not self.rounds else slots

    def storage(self, rows: int) -> np.ndarray:
        """Values of ``rows`` systems as :meth:`factor` takes them, all zero
        but the slack-angle row's ones of a dense matrix: (rows, 16
        n_blocks) blocks, or (rows, m * m) where no round is taken."""
        if self.rounds:
            return np.zeros((rows, 16 * self.n_blocks))
        out = np.zeros((rows, self.tail.m**2))
        out[:, self.tail.ones] = 1.0
        return out

    def factor(self, values: np.ndarray) -> _Factors:
        """Factor the systems of a :meth:`storage` stack ``values``, zero at
        the fill: eliminate the rounds and assemble the dense tails.  The
        factors keep ``values`` as they are, so the storage must not change
        while they are applied.  Where no round is taken the factors are
        the dense matrices, and every :meth:`apply` factorizes them anew."""
        b = len(values)
        if not self.rounds:
            return _Factors(None, [], values.reshape(b, self.tail.m, self.tail.m))
        blocks = values.reshape(b, self.n_blocks, 4, 4)
        a = blocks.copy()
        rounds = [self._eliminate(a, rd) for rd in self.rounds]
        return _Factors(blocks, rounds, self.tail.matrices(a))

    def apply(self, fac: _Factors, rhs: np.ndarray, refine: bool = True) -> np.ndarray:
        """Solve the factored systems for right-hand sides ``rhs`` (B, 4N+1)
        in the whole system's layout, and return the steps in that layout.

        The rounds pivot only within each 4x4 block.  With ``refine``, a row
        whose componentwise backward error |r - A x| / (|A| |x| + |r|)
        exceeds REFINE_TOL in any row but the slack-angle row, whose
        right-hand side is 0, takes one step of iterative refinement
        against the assembled system (Arioli, Demmel & Duff, 1989), which
        brings it within the 1e-12 that a dense LAPACK solve meets.  A row
        whose step is not finite (a singular pivot block gives NaN) is
        solved again as one dense matrix, so a row gets a NaN step only
        where its whole system is singular.
        """
        if not self.rounds:
            return _newton_steps(fac.tail, rhs)
        r = rhs[:, self.bus_major]
        x = self._substitute(fac, r)
        if refine:
            # A x and |A| |x| as one stack of 2B rows
            b, blocks = len(x), fac.blocks[:, : self.nnz]
            both = self._product(
                np.concatenate([blocks, np.abs(blocks)]), np.concatenate([x, np.abs(x)])
            )
            res = r - both[:b]
            over = np.abs(res[:, :-1]) > REFINE_TOL * (both[b:, :-1] + np.abs(r[:, :-1]))
            again = np.flatnonzero(over.any(axis=1))
            if again.size:
                x[again] += self._substitute(fac.take(again), res[again])
        step = x[:, self.kind_major]
        bad = ~np.isfinite(step).all(axis=1)
        if bad.any():
            step[bad] = _newton_steps(self.whole.matrices(fac.blocks[bad]), rhs[bad])
        return step

    @staticmethod
    def _eliminate(a, rd):
        """Eliminate one round's pivots from the stack ``a`` in place; returns
        the inverted pivot blocks, inv(A_pp) A_pc and L_cp per edge."""
        inv = _inverses(a[:, rd.pivot_blocks])
        w = inv[:, rd.edge_pivot] @ a[:, rd.upper]
        low = a[:, rd.lower]
        update = rd.sum_update((low[:, rd.t_low] @ w[:, rd.t_up]).reshape(len(a), -1))
        a[:, : rd.sum_update.size // 16] -= update.reshape(len(a), -1, 4, 4)
        return inv, w, low

    def _substitute(self, fac, r):
        """Forward through the rounds, the dense tail, then back."""
        b = len(r)
        r = r.copy()
        us = []
        for rd, (inv, _, low) in zip(self.rounds, fac.rounds):
            u = inv @ r[:, rd.pivot_rows].reshape(b, -1, 4, 1)
            r -= rd.sum_forward((low @ u[:, rd.edge_pivot]).reshape(b, -1))
            us.append(u.reshape(b, -1))
        x = np.empty_like(r)
        index = self.tail.index
        x[:, index] = _newton_steps(fac.tail, r[:, index])
        for rd, (_, w, _), u in zip(self.rounds[::-1], fac.rounds[::-1], us[::-1]):
            back = w @ x[:, rd.edge_rows].reshape(b, -1, 4, 1)
            x[:, rd.pivot_rows] = u - rd.sum_back(back.reshape(b, -1))
        return x

    def _product(self, blocks, x):
        """The assembled systems times bus-major ``x``."""
        b = len(x)
        y = blocks[:, : self.nnz] @ x[:, self.entry_cols].reshape(b, -1, 4, 1)
        y = self.sum_entry_rows(y.reshape(b, -1))
        y[:, 4 * self.slack] += x[:, -1]
        y[:, -1] = x[:, 4 * self.slack]
        return y


class _KktStructure:
    """Index and coefficient arrays of the structured Newton step, built
    once per admittance matrix, slack bus and set of flow-limited branches
    (``adm.derive``).

    Second derivatives couple only a bus with itself or two buses joined by
    a branch, so the voltage block of the Hessian lives on the entries
    (i, k) of the admittance pattern, four values per entry: the (va, va),
    (va, vm), (vm, va) and (vm, vm) blocks, in that order.  The balance
    Jacobian's voltage columns have the same four values per entry: (P, va),
    (P, vm), (Q, va), (Q, vm).  Each limited branch has two flow rows (from
    side, then to side); a row is the two-bus form S = V_side (m_f conj(V_f)
    + m_t conj(V_t)) over its local variables (va_f, va_t, vm_f, vm_t),
    m = ``m_side`` (conj(yff), conj(yft) on the from side).
    """

    def __init__(self, adm: AdmittanceMatrix, lim: np.ndarray, slack: int):
        n = adm.dimension
        i, k, entry, nnz = adm.i, adm.k, adm.entry, len(adm.i)
        self.vm_diag = 3 * nnz + adm.bus_entry
        # the four blocks' rows and columns among (va, vm)
        self.rows = np.concatenate([i, i, n + i, n + i])
        self.cols = np.concatenate([k, n + k, k, n + k])
        # where the elimination reads the values (_BusElimination.place),
        # given as entries of the 4x4 bus blocks of the reduced KKT system:
        # the Hessian at entry (i, k), the balance Jacobian below it and its
        # transpose at entry (k, i), and the lam_P/lam_Q diagonal of each
        # bus's own block
        elim = self.elim = _BusElimination(adm, slack)

        def place(entries, blocks):  # entries row-major in a block, per block
            return elim.place((np.array(entries)[:, None] + 16 * blocks).ravel())

        self.hess_pos = place([0, 1, 4, 5], np.arange(nnz))
        self.jac_pos = place([8, 9, 12, 13], np.arange(nnz))
        self.jac_t_pos = place([2, 6, 3, 7], adm.tpos)
        self.lam_diag_pos = place([10, 15], adm.bus_entry)
        self.sum_cols = _RowSum(self.cols, 2 * n)
        self.sum_rows = _RowSum(i, n)
        # the row sums, then the column sums, of a form given at the entries
        # (its values twice over)
        self.sum_lines = _RowSum(np.concatenate([i, n + k]), 2 * n)

        # per-row arrays of the flow rows are laid out (..., 2, 2L) or
        # (..., 4, 2L): the local bus or variable, then the row
        f, t = adm.f[lim], adm.t[lim]
        self.ends = np.tile(np.stack([f, t]), 2)  # (2, 2L) buses
        self.side = np.concatenate([f, t])  # the end whose flow a row measures
        self.on_side = np.repeat(np.eye(2), len(lim), axis=1)
        self.m_side = np.conj([
            np.concatenate([adm.yff[lim], adm.ytf[lim]]),
            np.concatenate([adm.yft[lim], adm.ytt[lim]]),
        ])
        # the entries (side, end) of the coefficients, where a row's curvature folds in
        self.sum_flow = _RowSum(entry[self.side, self.ends], nnz)
        # the local variables as columns of x, and every entry of a local
        # 4x4 block as a position among the four Hessian blocks
        kind = np.array([0, 0, 1, 1])[:, None]  # angle, angle, magnitude, magnitude
        bus = np.concatenate([self.ends, self.ends])
        self.x_cols = bus + n * kind
        block = 2 * kind[:, None] + kind[None, :]
        self.sum_x_cols = _RowSum(self.x_cols, 2 * n)
        self.sum_blocks = _RowSum(block * nnz + entry[bus[:, None], bus[None, :]], 4 * nnz)


@dataclass(frozen=True)
class _BranchFlows:
    """Flow rows at B voltage states: complex flows ``s`` (B, 2L), their
    gradients ``ds`` (B, 4, 2L) over the local variables, and the gradients
    ``dh`` (B, 4, 2L) of the rows |S|^2 - smax^2."""

    s: np.ndarray
    ds: np.ndarray
    dh: np.ndarray

    def take(self, rows) -> "_BranchFlows":
        return _BranchFlows(self.s[rows], self.ds[rows], self.dh[rows])


def _branch_flows(st: _KktStructure, v: np.ndarray, vm: np.ndarray) -> _BranchFlows:
    # the form's terms V_side m_b conj(V_b) are its column sums; its one
    # nonzero row sum, at the side, is S
    cs = v[:, None, st.side] * st.m_side * np.conj(v[:, st.ends])
    s = cs[:, 0] + cs[:, 1]
    rs = s[:, None] * st.on_side
    ds = np.concatenate([1j * (rs - cs), (rs + cs) / vm[:, st.ends]], axis=1)
    return _BranchFlows(s, ds, 2 * (np.conj(s)[:, None] * ds).real)


def _objective_scale(case: NetworkCase) -> float:
    """The module docstring's f_scale; 1 where the cost has no gradient."""
    pg_mid = 0.5 * (case.p_min + case.p_max)
    grad = float(np.max(np.abs(2 * case.c2 * pg_mid + case.c1), initial=0.0))
    return min(1.0, OBJECTIVE_GRAD_MAX / grad) if grad > 0 else 1.0


class _OpfProblem:
    """Problem data and the structured derivative kernels.

    The constraint rows are the balance equations (P, Q, slack angle) and
    the inequalities (|V| box, P box, Q box, then the from-side and to-side
    branch flow rows).  Every kernel works on a (B, ...) stack of states.
    The solver uses the structured kernels (:meth:`voltage_jacobian`,
    :meth:`eq_t_dot`, :meth:`ineq_dot`, :meth:`ineq_t_dot`,
    :meth:`newton_step`); the balance Jacobian travels as its voltage
    entries ``jv`` and the flow rows as the :class:`_BranchFlows` of
    :meth:`inequalities`.  The one dense view is :meth:`eq_jacobian`, which
    the warm start's multiplier fit uses; it is built from the same entries.
    """

    def __init__(self, case: NetworkCase, adm: AdmittanceMatrix):
        self.case = case
        self.adm = adm
        self.n = n = case.n_bus
        self.ng = len(case.generators)
        self.slack = case.slack_index
        # the balance row of each dispatch variable, pg then qg
        self.gen_rows = np.concatenate([case.gen_bus, n + case.gen_bus])
        self.sum_gen = _RowSum(self.gen_rows, 2 * n)
        self.f_scale = _objective_scale(case)
        self.c2, self.c1 = self.f_scale * case.c2, self.f_scale * case.c1
        lim = np.flatnonzero(case.s_limited)
        self.smax2 = np.tile(case.s_max[lim] ** 2, 2)
        self.st = adm.derive(
            ("opf", lim.tobytes(), self.slack), lambda: _KktStructure(adm, lim, self.slack)
        )
        self.nx = 2 * n + 2 * self.ng
        self.neq = 2 * n + 1
        self.niq = 2 * n + 4 * self.ng + 2 * len(lim)
        # the reduced KKT systems' values as the elimination takes them,
        # grown on demand: every step rewrites the same entries, the rest
        # stays as it was set
        self.kkt = self.st.elim.storage(0)

    def split(self, x):
        n, ng = self.n, self.ng
        return x[..., :n], x[..., n : 2 * n], x[..., 2 * n : 2 * n + ng], x[..., 2 * n + ng :]

    def d_objective(self, x):
        pg = slice(2 * self.n, 2 * self.n + self.ng)
        df = np.zeros_like(x)
        df[:, pg] = 2 * self.c2 * x[:, pg] + self.c1
        return df

    def injections(self, v):
        """M = conj(Y_ik) V_i conj(V_k) at the admittance pattern's entries
        and its row sums, the bus injections S = V conj(Y V)."""
        mm = self.adm.y_conj * v[:, self.adm.i] * np.conj(v[:, self.adm.k])
        return mm, self.st.sum_rows(mm)

    def equalities(self, x, s, loads):
        """Balance equations at the injections ``s`` and ``loads`` (P then Q)."""
        n = self.n
        g = np.empty((len(x), self.neq))
        g[:, : 2 * n] = (
            np.concatenate([s.real, s.imag], axis=1)
            + loads
            - self.sum_gen(x[:, 2 * n :])
        )
        g[:, 2 * n] = x[:, self.slack]
        return g

    def voltage_jacobian(self, mm, vm, s):
        """The (va, vm) columns of the balance-equation Jacobian as their
        values at the structure's rows and columns, (B, 4 nnz):
        :func:`dsbus_dv` of the products and injections of
        :meth:`injections`.  The generator columns, a constant negative
        incidence, and the slack-angle row are never formed."""
        dsa, dsv = dsbus_dv(mm, self.adm.bus_entry, s)
        dsv /= vm[:, self.adm.k]
        return np.concatenate([dsa.real, dsv.real, dsa.imag, dsv.imag], axis=1)

    def eq_t_dot(self, jv, lam):
        """jg.T @ lam, jg given by its voltage entries ``jv``."""
        st = self.st
        volt = st.sum_cols(jv * lam[:, st.rows])
        volt[:, self.slack] += lam[:, 2 * self.n]
        return np.concatenate([volt, -lam[:, self.gen_rows]], axis=1)

    def eq_jacobian(self, jv):
        """Dense jg (B, neq, nx) from its voltage entries ``jv``."""
        n, st = self.n, self.st
        jg = np.zeros((len(jv), self.neq, self.nx))
        jg[:, st.rows, st.cols] = jv
        jg[:, 2 * n, self.slack] = 1.0
        jg[:, self.gen_rows, 2 * n + np.arange(2 * self.ng)] = -1.0
        return jg

    def inequalities(self, x, v):
        """Inequality values, and the branch flows at this state for the
        Jacobian and Hessian kernels."""
        _, vm, pg, qg = self.split(x)
        flows = _branch_flows(self.st, v, vm)
        h = np.concatenate(
            [
                vm - self.case.v_max,
                self.case.v_min - vm,
                pg - self.case.p_max,
                self.case.p_min - pg,
                qg - self.case.q_max,
                self.case.q_min - qg,
                np.abs(flows.s) ** 2 - self.smax2,
            ],
            axis=1,
        )
        return h, flows

    def ineq_dot(self, flows, dx):
        """jh @ dx: signed box rows, then the branch rows' local gradients."""
        _, dvm, dpg, dqg = self.split(dx)
        flow = np.sum(flows.dh * dx[:, self.st.x_cols], axis=1)
        return np.concatenate([dvm, -dvm, dpg, -dpg, dqg, -dqg, flow], axis=1)

    def ineq_t_dot(self, flows, w):
        """jh.T @ w from the same structure as :meth:`ineq_dot`."""
        n, ng = self.n, self.ng
        gen = w[:, 2 * n : 2 * n + 4 * ng].reshape(len(w), 4, ng)  # pg up/low, qg up/low
        wb = w[:, 2 * n + 4 * ng :]
        volt = self.st.sum_x_cols((flows.dh * wb[:, None]).reshape(len(w), -1))
        volt[:, n:] += w[:, :n] - w[:, n : 2 * n]
        return np.concatenate([volt, gen[:, 0] - gen[:, 1], gen[:, 2] - gen[:, 3]], axis=1)

    def _voltage_hessian(self, v, vm, lam, mu, flows, mdivz=None):
        """The (va, vm) block of the Lagrangian Hessian at the structure's
        entries, plus sum_e mdivz_e dh_e dh_e' over the flow rows if given:
        one bilinear form carries the balance rows and the flow rows'
        curvature (the module docstring's fold), and each flow row adds its
        rank-one terms as a 4x4 block."""
        n, st, adm = self.n, self.st, self.adm
        mu_b = mu[:, 2 * n + 4 * self.ng :]
        # balance rows c_i conj(Y_ik), then the flow rows' 2 mu conj(S) m
        coef = (lam[:, :n] - 1j * lam[:, n : 2 * n])[:, adm.i] * adm.y_conj
        fold = (2 * mu_b * np.conj(flows.s))[:, None] * st.m_side
        coef += st.sum_flow(fold.reshape(len(v), -1))
        b = v[:, adm.i] * coef * np.conj(v[:, adm.k])
        lines = st.sum_lines(np.concatenate([b, b], axis=1))
        vals = _bilinear_terms(adm, b, lines[:, :n], lines[:, n:], vm).reshape(len(v), -1)

        # the flow rows' first-order part 2 mu Re(conj(dS) dS'), as
        # 2 mu (Re dS Re dS' + Im dS Im dS')
        dr, di = flows.ds.real, flows.ds.imag
        w = 2 * mu_b[:, None]
        blocks = (w * dr)[:, :, None] * dr[:, None]
        blocks += (w * di)[:, :, None] * di[:, None]
        if mdivz is not None:
            dh = flows.dh
            blocks += (mdivz[:, None] * dh)[:, :, None] * dh[:, None]
        return vals + st.sum_blocks(blocks.reshape(len(v), -1))

    def newton_factor(self, v, vm, lam, mu, mdivz, jv, flows):
        """Assemble and factor, for every row of the stack, the Newton
        system [[lxx + jh' diag(mdivz) jh, jg'], [jg, 0]]; :meth:`newton_apply`
        solves it for a right-hand side.

        The (pg, qg) block is diagonal: 2 c2 plus mdivz of each unit's two
        P box rows, and mdivz of its two Q box rows.  It is eliminated, which
        puts -sum 1/d over each bus's units on the lam_P / lam_Q diagonal.
        The reduced (4N+1)-square systems in (va, vm, lam) are written
        straight into the values :meth:`_BusElimination.factor` takes, their
        4x4 bus blocks (or, where no bus is eliminated, the dense matrix),
        and factored as one stack.  Returns the factors and the generator
        block's diagonal.
        """
        n, ng, st = self.n, self.ng, self.st
        rows = len(v)
        box = mdivz[:, : 2 * n + 4 * ng]
        gen = box[:, 2 * n :].reshape(rows, 4, ng)  # pg up/low, qg up/low
        d_gen = np.concatenate([2 * self.c2 + gen[:, 0] + gen[:, 1], gen[:, 2] + gen[:, 3]], axis=1)

        vals = self._voltage_hessian(v, vm, lam, mu, flows, mdivz[:, 2 * n + 4 * ng :])
        vals[:, st.vm_diag] += box[:, :n] + box[:, n : 2 * n]
        if len(self.kkt) < rows:
            self.kkt = st.elim.storage(rows)
        flat = self.kkt[:rows]
        flat[:, st.hess_pos] = vals
        flat[:, st.jac_pos] = jv
        flat[:, st.jac_t_pos] = jv
        flat[:, st.lam_diag_pos] = -self.sum_gen(1.0 / d_gen)
        return st.elim.factor(flat), d_gen

    def newton_apply(self, system, r_x, r_g, refine=True):
        """The step (dx, dlam) of a :meth:`newton_factor` system for the
        right-hand side [r_x; r_g], every row refined as ``refine`` tells
        :meth:`_BusElimination.apply`.  A row whose reduced system is
        singular gets a NaN step."""
        fac, d_gen = system
        n = self.n
        r_gen = r_x[:, 2 * n :]
        rhs = np.concatenate([r_x[:, : 2 * n], r_g], axis=1)
        rhs[:, 2 * n : 4 * n] += self.sum_gen(r_gen / d_gen)
        step = self.st.elim.apply(fac, rhs, refine)
        dlam = step[:, 2 * n :]
        dgen = (r_gen + dlam[:, self.gen_rows]) / d_gen
        return np.concatenate([step[:, : 2 * n], dgen], axis=1), dlam


def _cold_start(prob: _OpfProblem, rows: int) -> np.ndarray:
    n, ng, case = prob.n, prob.ng, prob.case
    x = np.zeros((rows, prob.nx))
    x[:, n : 2 * n] = np.clip(1.0, case.v_min, case.v_max)
    x[:, 2 * n : 2 * n + ng] = 0.5 * (case.p_min + case.p_max)
    x[:, 2 * n + ng :] = 0.5 * (case.q_min + case.q_max)
    return x


def _warm_x(prob: _OpfProblem, start: WarmStart, rows: int) -> np.ndarray:
    """Safeguarded warm start: magnitudes and dispatch clipped into bounds."""
    n, ng, case = prob.n, prob.ng, prob.case
    x = np.empty((rows, prob.nx))
    x[:, :n] = np.asarray(start.v_ang, dtype=float) - start.v_ang[prob.slack]
    x[:, n : 2 * n] = np.clip(start.v_mag, case.v_min, case.v_max)
    x[:, 2 * n : 2 * n + ng] = np.clip(start.p_gen, case.p_min, case.p_max)
    x[:, 2 * n + ng :] = np.clip(start.q_gen, case.q_min, case.q_max)
    return x


def _step_length(u, du):
    """Per row, the largest step up to 1 that keeps u + step du at least
    (1 - _XI) u for the positive ``u`` (fraction to the boundary): _XI over
    the largest -du/u, where that exceeds _XI."""
    shrink = (-du / u).max(axis=1)
    return _XI / np.maximum(shrink, _XI)


def solve_opf(
    case: NetworkCase,
    loads: np.ndarray | None = None,
    start: WarmStart | None = None,
    adm: AdmittanceMatrix | None = None,
) -> OpfSolution | OpfBatch:
    """Solve the AC-OPF by the primal-dual interior point method.

    ``loads`` is one per-unit load vector (2N,), P then Q, or a (B, 2N)
    stack of them solved in lockstep; None uses the case defaults.  A
    vector gives its :class:`OpfSolution`, a stack its :class:`OpfBatch`,
    one solution per row.  ``start`` is one warm start shared by every row;
    None starts every row cold.  Convergence requires the balance equations
    to EQ_TOL, inequalities to INEQ_TOL, complementarity to COMP_TOL and
    scaled stationarity to GRAD_TOL, within DEFAULT_MAX_ITER iterations.  A
    solution's ``wall_time`` runs from the call, after ``adm`` is built, to
    its row's last iteration.
    """
    if adm is None:
        adm = build_admittance(case)
    t0 = time.perf_counter()
    n = case.n_bus
    loads = case.default_loads if loads is None else np.asarray(loads, dtype=float)
    if loads.ndim > 2 or loads.shape[-1:] != (2 * n,):
        raise OpfError(f"loads must have shape ({2 * n},) or (B, {2 * n}), got {loads.shape}")
    one = loads.ndim == 1
    loads = np.atleast_2d(loads)
    if not len(loads):
        return OpfBatch()
    prob = _OpfProblem(case, adm)
    fs, niq = prob.f_scale, prob.niq
    count = len(loads)
    x = _cold_start(prob, count) if start is None else _warm_x(prob, start, count)
    corrector = start is None and bool(prob.st.elim.rounds)

    lam = np.zeros((count, prob.neq))
    va, vm, _, _ = prob.split(x)
    v = _polar(vm, va)
    h, flows = prob.inequalities(x, v)
    # cold barrier state, slacks floored at _Z0 on the corrector's path and
    # at 1 elsewhere; also used for badly infeasible warm points, which
    # still keep their primal head start
    z = np.maximum(_Z0 if corrector else 1.0, -h)
    gamma = np.ones(count)
    mu = np.maximum(1.0, 1.0 / z)
    warm = np.zeros(count, dtype=bool) if start is None else ~(h.max(axis=1) > 0.1)
    if warm.any():
        # near-feasible warm start: seed slacks from the point's own
        # constraint margins, open with a small barrier parameter and fit
        # the equality multipliers by least squares for stationarity
        z[warm] = np.maximum(5e-3 * fs, -h[warm])
        gamma[warm] = 1e-3 * fs
        mu[warm] = gamma[warm, None] / z[warm]
        mm, s = prob.injections(v[warm])
        jg0 = prob.eq_jacobian(prob.voltage_jacobian(mm, vm[warm], s))
        rhs0 = -(prob.d_objective(x[warm]) + prob.ineq_t_dot(flows.take(warm), mu[warm]))
        lam[warm] = [np.linalg.lstsq(a.T, r, rcond=None)[0] for a, r in zip(jg0, rhs0)]

    final_x = x.copy()
    histories: list[list[tuple]] = [[] for _ in range(count)]
    iterations = np.zeros(count, dtype=int)
    kkt_res = np.full(count, np.inf)
    converged = np.zeros(count, dtype=bool)
    wall = np.zeros(count)
    live = np.arange(count)  # the rows still iterating
    for it in range(1, DEFAULT_MAX_ITER + 1):
        va, vm, pg, _ = prob.split(x)
        v = _polar(vm, va)
        mm, s = prob.injections(v)
        g = prob.equalities(x, s, loads)
        h, flows = prob.inequalities(x, v)
        jv = prob.voltage_jacobian(mm, vm, s)
        lx = prob.d_objective(x) + prob.eq_t_dot(jv, lam) + prob.ineq_t_dot(flows, mu)

        # history: the objective, then the residuals the stopping rule tests,
        # in the cost's own units: lam, mu, lx and z mu carry f_scale
        stats = np.empty((len(x), 5))
        stats[:, 0] = generation_cost(case, pg)
        stats[:, 1] = np.abs(g).max(axis=1)
        stats[:, 2] = h.max(axis=1)
        stats[:, 3] = (z * mu).sum(axis=1) / niq / fs
        dual = np.maximum(np.abs(lam).max(axis=1), np.abs(mu).max(axis=1))
        stats[:, 4] = np.abs(lx).max(axis=1) / fs / (1.0 + dual / fs)
        for row, stat in zip(live, stats.tolist()):
            histories[row].append(tuple(stat))
        final_x[live] = x
        iterations[live] = it
        kkt_res[live] = stats[:, 1:].max(axis=1)
        wall[live] = time.perf_counter() - t0
        done = (stats[:, 1:] < _TOLS).all(axis=1)
        converged[live] = done
        go = ~done & np.isfinite(stats[:, 0]) & np.isfinite(x).all(axis=1)
        if not go.all():
            live, x, z, mu, lam, gamma, loads, v, vm, g, h, jv, lx = (
                a[go] for a in (live, x, z, mu, lam, gamma, loads, v, vm, g, h, jv, lx)
            )
            flows = flows.take(go)
            if not live.size:
                break

        zinv = 1.0 / z
        system = prob.newton_factor(v, vm, lam, mu, mu * zinv, jv, flows)

        def direction(target, refine=True):
            """The Newton direction toward z mu = ``target``, elementwise."""
            n_vec = lx + prob.ineq_t_dot(flows, zinv * (target + mu * h))
            dx, dlam = prob.newton_apply(system, -n_vec, -g, refine)
            dz = -h - z - prob.ineq_dot(flows, dx)
            return dx, dlam, dz, -mu + zinv * (target - mu * dz)

        if corrector:
            # the affine predictor's step lengths set sigma; the corrector
            # aims at sigma times the mean complementarity, less the
            # predictor's second-order term
            _, _, dz, dmu = direction(0.0, refine=False)
            comp = (z * mu).sum(axis=1)
            z_aff = z + _step_length(z, dz)[:, None] * dz
            mu_aff = mu + _step_length(mu, dmu)[:, None] * dmu
            sigma = np.minimum(1.0, ((z_aff * mu_aff).sum(axis=1) / comp) ** 3)
            target = (sigma * comp / niq)[:, None] - dz * dmu
        else:
            target = gamma[:, None]
        dx, dlam, dz, dmu = direction(target)
        ok = np.isfinite(dx).all(axis=1) & np.isfinite(dlam).all(axis=1)
        if not ok.all():  # singular or non-finite step: the row stops here
            live, x, z, mu, lam, loads, dx, dlam, dz, dmu = (
                a[ok] for a in (live, x, z, mu, lam, loads, dx, dlam, dz, dmu)
            )
            if not live.size:
                break
        alpha_p = _step_length(z, dz)[:, None]
        alpha_d = _step_length(mu, dmu)[:, None]

        x = x + alpha_p * dx
        z = z + alpha_p * dz
        lam = lam + alpha_d * dlam
        mu = mu + alpha_d * dmu
        gamma = _SIGMA * (z * mu).sum(axis=1) / niq
    else:  # rows that ran out of iterations keep their last update
        final_x[live] = x
        wall[live] = time.perf_counter() - t0

    solutions = OpfBatch()
    for row in range(count):
        va, vm, pg, qg = prob.split(final_x[row])
        solutions.append(
            OpfSolution(
                p_gen=pg.copy(),
                q_gen=qg.copy(),
                v_mag=vm.copy(),
                v_ang=va.copy(),
                objective=generation_cost(case, pg),
                kkt_residual=float(kkt_res[row]),
                converged=bool(converged[row]),
                iterations=int(iterations[row]),
                wall_time=float(wall[row]),
                history=histories[row],
            )
        )
    return solutions[0] if one else solutions


def recover(
    case: NetworkCase,
    loads: np.ndarray | None,
    predicted: WarmStart,
    adm: AdmittanceMatrix | None = None,
) -> OpfSolution | OpfBatch:
    """:func:`solve_opf` from a (possibly infeasible) predicted operating
    point: the predicted primal point, its voltages and dispatch clipped
    into their boxes, is the interior-point start.  The iteration count
    lets callers compare warm against cold starts.
    """
    return solve_opf(case, loads=loads, start=predicted, adm=adm)
