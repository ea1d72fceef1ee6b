import numpy as np
import pytest

from deepsolve import build_dataset, init_model, solve_pf
from deepsolve.powerflow import IndependentVars, PowerFlowError, box_penalty
from deepsolve.trainer import (
    TrainConfig,
    TrainingError,
    penalty_loss,
    penalty_terms,
    pred_loss,
    reconstruction_penalty,
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
        case30, adm30, indep, case30.default_p_load, case30.default_q_load, tol=1e-12
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
        case30, adm30, indep, case30.default_p_load, case30.default_q_load, tol=1e-12
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
        case30.default_p_load * 1.1,
        case30.default_q_load * 1.1,
    )
    assert bad.converged
    report_bad = check_feasibility(case30, bad, 0.0)
    assert (penalty_loss(case30, bad) == 0.0) == report_bad.feasible
    assert not report_bad.feasible  # max dispatch everywhere must violate something


# -- zero-order estimator ----------------------------------------------------


def test_zo_grad_constant_function_exactly_zero():
    for seed in range(5):
        g = zo_grad(lambda s: 3.25, np.full(4, 0.5), delta=1e-3, seed=seed)
        assert np.all(g == 0.0)


def test_zo_grad_two_evaluations_only():
    calls = []

    def pen(s):
        calls.append(s.copy())
        return float(np.sum(s**2))

    zo_grad(pen, np.full(6, 0.5), delta=1e-3, seed=0)
    assert len(calls) == 2


def test_zo_grad_unbiased_on_quadratic():
    """Monte Carlo mean of the estimator vs the analytic gradient of ||s||^2."""
    d = 4
    s0 = np.full(d, 0.5)
    delta = 1e-4
    total = np.zeros(d)
    n = 100_000
    rng = np.random.default_rng(1234)
    fn = lambda s: float(np.sum(s**2))
    for _ in range(n):
        total += zo_grad(fn, s0, delta, rng)
    mean = total / n
    analytic = 2 * s0
    assert np.max(np.abs(mean - analytic) / np.abs(analytic)) < 0.02


def test_zo_grad_linear_function_expectation():
    d = 5
    a = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
    s0 = np.full(d, 0.5)
    rng = np.random.default_rng(99)
    total = np.zeros(d)
    n = 100_000
    fn = lambda s: float(a @ s)
    for _ in range(n):
        total += zo_grad(fn, s0, 1e-3, rng)
    mean = total / n
    assert np.max(np.abs(mean - a)) < 0.02 * np.max(np.abs(a))


def test_zo_grad_failure_becomes_penalty_value():
    def boom(s):
        raise PowerFlowError("solver exploded")

    g = zo_grad(boom, np.full(3, 0.5), delta=1e-3, seed=0)
    assert np.all(g == 0.0)  # both sides failed -> difference zero


def test_zo_grad_programming_error_propagates():
    def broken(s):
        raise TypeError("unsupported operand")

    with pytest.raises(TypeError, match="unsupported operand"):
        zo_grad(broken, np.full(3, 0.5), delta=1e-3, seed=0)


def test_minibatch_gradient_matches_per_sample_estimates(case30, adm30):
    """The training path's batched estimate equals zo_grad on a one-point
    reconstruction penalty, draw by draw, for every row of a minibatch."""
    from deepsolve.dataio import pf_init_from_dependent
    from deepsolve.trainer import _batch_penalty_gradient

    train_ds, _ = build_dataset(case30, 6, 0, seed=4)
    config = TrainConfig(w2=0.1, delta=0.15, zo_draws=2, seed=8)
    init = pf_init_from_dependent(case30, train_ds.dependent_mean)
    rows = np.array([4, 0, 5, 2])
    s_pred = np.clip(
        train_ds.s_matrix[rows] + np.random.default_rng(1).normal(0, 0.1, (4, 11)), 0.01, 0.99
    )
    g, pen, converged = _batch_penalty_gradient(
        case30, adm30, train_ds, init, s_pred, rows, 3, config
    )
    assert pen.shape == converged.shape == (4, 2, 2) and converged.all()
    assert np.count_nonzero(pen) > 0
    for r, k in enumerate(rows):
        record = []

        def pen_eval(s, loads=train_ds.samples[k].loads):
            value, _ = reconstruction_penalty(
                case30, adm30, train_ds.spec, init, s[None], loads[None]
            )
            record.append(value[0])
            return value[0]

        expected = sum(
            zo_grad(pen_eval, s_pred[r], config.delta, np.random.default_rng([8, 3, int(k), j]))
            for j in range(2)
        )
        assert np.allclose(pen[r].ravel(), record, rtol=0, atol=1e-12)
        assert np.allclose(g[r], expected, rtol=1e-9, atol=1e-9)


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


def test_paper_default_config():
    config = TrainConfig()
    assert config.w1 == 1.0
    assert config.w2 == 0.1
    assert config.epochs == 200
    assert config.batch_size == 32
    config.validate()
