import numpy as np
import pytest

from deepsolve import build_dataset, init_model, solve_pf
from deepsolve.dataio import decode
from deepsolve.powerflow import IndependentVars, PowerFlowError, box_penalty, limit_excess
from deepsolve.trainer import (
    DIVERGED_PF_PENALTY,
    TrainConfig,
    TrainingError,
    _direction_table,
    penalty_loss,
    penalty_terms,
    pred_loss,
    reconstruct,
    train,
    zo_grad,
)

from conftest import reference_indep


# -- prediction loss ---------------------------------------------------------


def test_pred_loss_zero_at_truth():
    s = np.array([0.2, 0.9, 0.5])
    assert pred_loss(s, s) == 0.0


def test_pred_loss_simple_value():
    assert pred_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(0.5)


def test_pred_loss_matches_elementwise_sum():
    rng = np.random.default_rng(2)
    a, b = rng.random(11), rng.random(11)
    manual = sum((x - y) ** 2 for x, y in zip(a, b)) / 11
    assert pred_loss(a, b) == pytest.approx(manual, abs=1e-12)


def test_pred_loss_of_a_stack_is_one_loss_per_row():
    rng = np.random.default_rng(3)
    a, b = rng.random((4, 11)), rng.random((4, 11))
    losses = pred_loss(a, b)
    assert isinstance(losses, np.ndarray) and losses.shape == (4,)
    assert losses.tolist() == [pred_loss(x, y) for x, y in zip(a, b)]
    assert pred_loss(np.zeros((4, 3)), np.ones((4, 3))).tolist() == [1.0] * 4
    assert type(pred_loss(a[0], b[0])) is float


def test_pred_loss_shape_mismatch():
    with pytest.raises(TrainingError):
        pred_loss(np.zeros(3), np.zeros(4))


# -- box penalty -------------------------------------------------------------


def test_box_penalty_cases():
    assert box_penalty(0.5, 0.0, 1.0) == 0.0
    assert box_penalty(1.3, 0.0, 1.0) == pytest.approx(0.3)
    assert box_penalty(-0.2, 0.0, 1.0) == pytest.approx(0.2)
    assert np.allclose(box_penalty(np.array([0.0, 1.0]), 0.0, 1.0), 0.0)


# -- reconstruction penalty --------------------------------------------------


@pytest.fixture(scope="module")
def ref_pf(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    sol = solve_pf(
        case30, adm30, indep, *np.split(case30.default_loads, 2), tol=1e-12
    )
    assert sol.converged
    return sol


def test_penalty_zero_for_reference_reconstruction(case30, ref_pf):
    assert penalty_loss(case30, ref_pf) == 0.0


def test_penalty_single_voltage_violation_arithmetic(case30, ref_pf):
    from copy import deepcopy

    sol = deepcopy(ref_pf)
    pq0 = case30.pq_indices[0]
    v_max = case30.buses[pq0].v_max
    sol.v_mag[pq0] = v_max + 0.05
    expected = 0.05 / len(case30.pq_indices)  # 0.05/24
    assert penalty_loss(case30, sol) == pytest.approx(expected, abs=1e-12)


def test_penalty_diverged_value(case30, ref_pf):
    from copy import deepcopy

    sol = deepcopy(ref_pf)
    sol.converged = False
    assert penalty_loss(case30, sol) == 10.0
    with pytest.raises(PowerFlowError):
        penalty_terms(case30, sol)


def test_penalty_zero_iff_feasible(case30, adm30, opf30):
    """Zero penalty exactly when the tolerance-zero checker finds nothing."""
    from deepsolve.powerflow import check_feasibility

    indep = reference_indep(case30, opf30)
    sol = solve_pf(
        case30, adm30, indep, *np.split(case30.default_loads, 2), tol=1e-12
    )
    report = check_feasibility(case30, sol, 0.0)
    assert (penalty_loss(case30, sol) == 0.0) == report.feasible

    bad = solve_pf(
        case30,
        adm30,
        IndependentVars(
            v_slack=1.06,
            pv_p_gen=np.array([g.p_max for g in case30.generators[1:]]),
            pv_v_mag=np.full(5, 1.06),
        ),
        *np.split(case30.default_loads * 1.1, 2),
    )
    assert bad.converged
    report_bad = check_feasibility(case30, bad, 0.0)
    assert (penalty_loss(case30, bad) == 0.0) == report_bad.feasible
    assert not report_bad.feasible  # max dispatch everywhere must violate something


def test_penalty_of_a_converged_batch_is_charged_on_the_batch_itself(
    case118, adm118, opf118, monkeypatch
):
    """When every row converged, the penalty is taken on the batch, with no
    copy of its rows, and has the bits that the copy (``take``) gave: the
    row sums run over fields of the same memory order.  On case118 (53 PV
    buses, 186 branches, many of them over their limits here) that order
    shows: the same fields in Fortran order give other bits."""
    from deepsolve.powerflow import PowerFlowBatch, solve_pf_batch

    n, rows = case118.n_bus, 16
    ref = reference_indep(case118, opf118)
    rng = np.random.default_rng(8)
    indep = IndependentVars(
        v_slack=np.full(rows, ref.v_slack),
        pv_p_gen=np.tile(ref.pv_p_gen, (rows, 1)),
        pv_v_mag=np.clip(ref.pv_v_mag + rng.uniform(-0.02, 0.04, (rows, 53)), 0.94, 1.06),
    )
    loads = case118.default_loads * rng.uniform(1.0, 1.3, (rows, 1))
    sol = solve_pf_batch(case118, adm118, indep, loads[:, :n], loads[:, n:])
    assert sol.converged.all()
    copied = sum(penalty_terms(case118, sol.take(sol.converged)).values())
    fortran = PowerFlowBatch(**{k: np.asfortranarray(v) for k, v in vars(sol).items()})
    assert not np.array_equal(penalty_loss(case118, fortran), copied)

    def no_copy(self, rows):
        raise AssertionError("a converged batch was copied")

    monkeypatch.setattr(PowerFlowBatch, "take", no_copy)
    np.testing.assert_array_equal(penalty_loss(case118, sol), copied, strict=True)


# -- zero-order estimator ----------------------------------------------------


def test_zo_grad_constant_function_exactly_zero():
    for seed in range(5):
        v = _direction_table(np.random.default_rng(seed), 3, 2, 4)
        g, pen = zo_grad(lambda p: np.full(len(p), 3.25), np.full((3, 4), 0.5), v, 1e-3)
        assert np.all(g == 0.0) and np.all(pen == 3.25)


def test_zo_grad_one_evaluation_of_all_points():
    """One pen_eval call on the 2 * rows * draws points, ordered by row,
    then draw, then + before -."""
    calls = []

    def pen(points):
        calls.append(points.copy())
        return np.sum(points**2, axis=1)

    delta = 1e-3
    s = np.random.default_rng(2).uniform(0.2, 0.8, (3, 6))
    v = _direction_table(np.random.default_rng(0), 3, 2, 6)
    _, values = zo_grad(pen, s, v, delta)
    expected = [
        s[r] + sign * delta * v[r, j] for r in range(3) for j in range(2) for sign in (1, -1)
    ]
    assert len(calls) == 1 and np.array_equal(calls[0], expected)
    assert np.array_equal(values.ravel(), np.sum(calls[0] ** 2, axis=1))


def test_zo_grad_linear_function_expectation():
    d = 5
    a = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
    n = 100_000
    v = _direction_table(np.random.default_rng(99), n, 1, d)
    g, _ = zo_grad(lambda p: p @ a, np.full((n, d), 0.5), v, 1e-3)
    assert np.max(np.abs(g.mean(axis=0) - a)) < 0.02 * np.max(np.abs(a))


def test_zo_grad_programming_error_propagates():
    """Whatever pen_eval raises propagates: it maps failures to values itself."""
    v = _direction_table(np.random.default_rng(0), 2, 1, 3)
    for error in (TypeError("unsupported operand"), PowerFlowError("solver exploded")):

        def broken(points):
            raise error

        with pytest.raises(type(error), match=str(error)):
            zo_grad(broken, np.full((2, 3), 0.5), v, 1e-3)


def test_minibatch_gradient_matches_per_sample_estimates(case30, adm30):
    """The batched estimate equals the two-point estimate on the penalty of
    lone power-flow reconstructions along each row's directions of the
    table, draw by draw, for every row of a minibatch."""
    from deepsolve.trainer import CLIP_EPS

    train_ds, _ = build_dataset(case30, 6, 0, seed=4)
    delta = 0.15
    init = train_ds.pf_init
    rows = np.array([4, 0, 5, 2])
    table = _direction_table(np.random.default_rng([8, 3]), len(train_ds), 2, 11)
    assert np.allclose(np.linalg.norm(table, axis=-1), 1.0, rtol=0, atol=1e-15)
    s_pred = np.clip(
        train_ds.s_matrix[rows] + np.random.default_rng(1).normal(0, 0.1, (4, 11)), 0.01, 0.99
    )
    loads = np.repeat(train_ds.loads_matrix[rows], 4, axis=0)
    sols = []

    def penalty(points):
        sols.append(reconstruct(case30, adm30, train_ds.spec, init, points, loads))
        return penalty_loss(case30, sols[-1])

    g, pen = zo_grad(penalty, s_pred, table[rows], delta)
    assert pen.shape == (4, 2, 2) and len(sols) == 1 and sols[0].converged.all()
    assert np.count_nonzero(pen) > 0
    n = case30.n_bus
    for r, k in enumerate(rows):
        loads = train_ds.samples[k].loads
        record = []
        expected = np.zeros(11)
        for v in table[k]:
            for sign in (1.0, -1.0):
                s = np.clip(s_pred[r] + sign * delta * v, CLIP_EPS, 1.0 - CLIP_EPS)
                indep = IndependentVars.from_vector(decode(train_ds.spec, s))
                sol = solve_pf(case30, adm30, indep, loads[:n], loads[n:], init=init)
                record.append(penalty_loss(case30, sol))
            expected += 11 * v / (2 * delta) * (record[-2] - record[-1])
        assert np.allclose(pen[r].ravel(), record, rtol=0, atol=1e-12)
        assert np.allclose(g[r], expected, rtol=1e-9, atol=1e-9)


def test_penalty_terms_are_the_limit_excess_families(case30, adm30):
    """One term per limit_excess family, each its family's mean excess, and
    penalty_loss their sum, on a reconstruction that violates limits."""
    sol = solve_pf(
        case30,
        adm30,
        IndependentVars(
            v_slack=1.06,
            pv_p_gen=np.array([g.p_max for g in case30.generators[1:]]),
            pv_v_mag=np.full(5, 1.06),
        ),
        *np.split(case30.default_loads * 1.1, 2),
    )
    assert sol.converged
    terms = penalty_terms(case30, sol)
    excess = limit_excess(case30, sol)
    assert set(terms) == set(excess)
    for kind, values in excess.items():
        assert terms[kind] == pytest.approx(np.mean(values), abs=1e-15)
    assert penalty_loss(case30, sol) == sum(terms.values()) > 0


# -- training loop -----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sets(case30):
    return build_dataset(case30, 10, 2, seed=33)


def test_supervised_only_training_decreases_pred_loss(case30, tiny_sets):
    train_ds, _ = tiny_sets
    model = init_model([60, 32, 16, 11], seed=5)
    config = TrainConfig(w1=1.0, w2=0.0, epochs=10, batch_size=4, seed=5)
    _, history = train(model, case30, train_ds, config)
    preds = [h.pred for h in history]
    assert all(b < a for a, b in zip(preds, preds[1:]))
    assert all(h.total == h.pred for h in history)  # w2 = 0


def test_training_history_is_deterministic(case30, tiny_sets):
    train_ds, _ = tiny_sets
    runs = []
    for _ in range(2):
        model = init_model([60, 16, 11], seed=9)
        config = TrainConfig(w1=1.0, w2=0.1, epochs=2, batch_size=5, seed=9)
        _, history = train(model, case30, train_ds, config)
        runs.append([(h.pred, h.pen, h.total) for h in history])
    assert runs[0] == runs[1]


def test_sample_directions_do_not_depend_on_its_minibatch(case30, tiny_sets, monkeypatch):
    """Training in minibatches of 4 hands every sample the same directions,
    bit for bit, as one minibatch of all 10 does: its rows of the epoch's
    table, drawn after the shuffle.  The first minibatch, taken before any
    Adam step, gets the full batch's estimates for its rows."""
    from deepsolve import trainer

    train_ds, _ = tiny_sets
    real = trainer.zo_grad
    calls = {}

    def recording(*args):
        result = real(*args)
        calls[key].append((args[2], result[0]))
        return result

    monkeypatch.setattr(trainer, "zo_grad", recording)
    for key in (10, 4):
        calls[key] = []
        config = TrainConfig(w1=1.0, w2=0.1, epochs=2, batch_size=key, zo_draws=2, seed=6)
        train(init_model([60, 16, 11], seed=6), case30, train_ds, config)
    assert [len(v) for v, _ in calls[4]] == [4, 4, 2] * 2
    for epoch in range(2):
        rng = np.random.default_rng([6, epoch])
        perm = rng.permutation(len(train_ds))
        table = _direction_table(rng, len(train_ds), 2, 11)
        full = calls[10][epoch][0]
        parts = np.concatenate([v for v, _ in calls[4][3 * epoch : 3 * epoch + 3]])
        assert np.array_equal(full, table[perm]) and np.array_equal(parts, full)
    assert np.allclose(calls[4][0][1], calls[10][0][1][:4], rtol=1e-9, atol=1e-9)


def test_training_counts_diverged_reconstructions(case30, tiny_sets, monkeypatch):
    """An epoch's pf_diverged counts the perturbed points whose
    reconstruction did not converge, and each of them costs
    DIVERGED_PF_PENALTY in the penalties zo_grad returns."""
    from deepsolve import trainer

    train_ds, _ = tiny_sets
    real_reconstruct, real_zo_grad = trainer.reconstruct, trainer.zo_grad
    failed, penalties = [], []

    def failing(*args):
        sol = real_reconstruct(*args)
        assert sol.converged.all()
        sol.converged[::3] = False
        failed.append(~sol.converged)
        return sol

    def recording(*args):
        result = real_zo_grad(*args)
        penalties.append(result[1].ravel())
        return result

    monkeypatch.setattr(trainer, "reconstruct", failing)
    monkeypatch.setattr(trainer, "zo_grad", recording)
    config = TrainConfig(w1=1.0, w2=0.1, epochs=2, batch_size=4, zo_draws=2, seed=6)
    _, history = train(init_model([60, 16, 11], seed=6), case30, train_ds, config)
    assert len(failed) == len(penalties) == 6  # minibatches of 4, 4 and 2 rows per epoch
    for epoch, stats in enumerate(history):
        flags = failed[3 * epoch : 3 * epoch + 3]
        assert stats.pf_diverged == sum(int(f.sum()) for f in flags) == 6 + 6 + 3
    for flag, pen in zip(failed, penalties):
        assert np.all(pen[flag] == DIVERGED_PF_PENALTY)
        assert np.all(pen[~flag] < DIVERGED_PF_PENALTY)


@pytest.mark.parametrize("draws", [1, 2, 11, 25])
def test_direction_table_draws_are_orthonormal_per_sample(draws):
    """Each sample's draws are orthonormal in blocks of at most d, and the
    summed estimator's matrix (d/draws) * sum_j v_j v_j^T averages to I."""
    d = 11
    table = _direction_table(np.random.default_rng(3), 20000, draws, d)
    assert table.shape == (20000, draws, d)
    for start in range(0, draws, d):
        block = table[:, start : start + d]
        gram = np.einsum("nid,njd->nij", block, block)
        assert np.allclose(gram, np.eye(block.shape[1]), rtol=0, atol=1e-14)
    mean = np.einsum("nid,nie->de", table, table) * d / draws / len(table)
    assert np.allclose(mean, np.eye(d), rtol=0, atol=0.03)


def test_training_loss_identity(case30, tiny_sets):
    train_ds, _ = tiny_sets
    model = init_model([60, 16, 11], seed=1)
    config = TrainConfig(w1=1.0, w2=0.1, epochs=2, batch_size=5, seed=1)
    _, history = train(model, case30, train_ds, config)
    for h in history:
        assert h.total == pytest.approx(config.w1 * h.pred + config.w2 * h.pen, abs=1e-15)


def test_training_rejects_dimension_mismatch(case30, tiny_sets):
    train_ds, _ = tiny_sets
    model = init_model([60, 16, 7], seed=1)  # wrong output dimension
    with pytest.raises(TrainingError):
        train(model, case30, train_ds, TrainConfig(epochs=1))


@pytest.mark.parametrize("w2", [0.0, 0.1])
def test_nan_output_model_stops_training_naming_the_sample(case30, tiny_sets, w2):
    """A NaN prediction has no loss gradient: training stops with the
    epoch, batch and sample, also where the penalty term is on (the
    prediction does not decode, so there is no penalty to estimate)."""
    train_ds, _ = tiny_sets
    model = init_model([60, 16, 11], seed=4)
    model.biases[-1][5] = np.nan
    config = TrainConfig(w1=1.0, w2=w2, epochs=1, batch_size=5, seed=4)
    with pytest.raises(TrainingError) as err:
        train(model, case30, train_ds, config)
    first = int(np.random.default_rng([config.seed, 0]).permutation(len(train_ds))[0])
    assert str(err.value) == f"non-finite loss gradient at epoch 0, batch 0, sample {first}"


def test_paper_default_config():
    config = TrainConfig()
    assert config.w1 == 1.0
    assert config.w2 == 0.1
    assert config.epochs == 200
    assert config.batch_size == 32
    config.validate()
