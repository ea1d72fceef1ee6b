"""Penalty-aware training of the scaling-factor predictor.

The loss per sample combines a prediction error (mean squared deviation of
the predicted scaling factors from the reference ones) with an operating-
limit penalty evaluated on the power-flow reconstruction of the prediction.
The penalty gradient w.r.t. the network output is estimated with a
two-point zero-order scheme: exactly two power-flow solves per sample,
independent of the output dimension.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, decode, pf_init_from_dependent
from .mlp import MlpModel, adam_step, backward, forward, init_adam
from .netmodel import AdmittanceMatrix, NetworkCase, build_admittance
from .powerflow import IndependentVars, PowerFlowError, PowerFlowSolution, limit_excess, solve_pf
from .powerflow import box_penalty  # noqa: F401 - re-exported with the penalty terms

log = logging.getLogger(__name__)

CLIP_EPS = 1e-6  # perturbed scaling factors stay inside (0, 1)


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    w1: float = 1.0
    w2: float = 0.1
    delta: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    diverged_pf_penalty: float = 10.0
    zo_draws: int = 1  # independent two-point estimates averaged per sample

    def validate(self):
        if self.w1 < 0 or self.w2 < 0:
            raise TrainingError("loss weights must be nonnegative")
        if self.delta <= 0:
            raise TrainingError("smoothing radius must be positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise TrainingError("bad batch size or epoch count")
        if self.zo_draws < 1:
            raise TrainingError("need at least one zero-order draw")


@dataclass
class EpochStats:
    epoch: int
    pred: float
    pen: float
    total: float
    pf_diverged: int
    wall_time: float


def pred_loss(s_pred: np.ndarray, s_true: np.ndarray) -> float:
    """Mean squared deviation of the scaling factors, (1/d)*||s_pred-s_true||^2."""
    s_pred = np.asarray(s_pred, dtype=float)
    s_true = np.asarray(s_true, dtype=float)
    if s_pred.shape != s_true.shape:
        raise TrainingError(f"shape mismatch {s_pred.shape} vs {s_true.shape}")
    d = s_pred.shape[-1]
    return float(np.sum((s_pred - s_true) ** 2, axis=-1) / d)


# penalty term name -> limit_excess family, in summation order
_PENALTY_FAMILIES = (
    ("branch", "BranchFlow"),
    ("pq_vmag", "PqVmag"),
    ("pv_q", "PvQ"),
    ("slack_p", "SlackP"),
    ("slack_q", "SlackQ"),
)


def penalty_terms(case: NetworkCase, sol: PowerFlowSolution) -> dict:
    """Per-family penalty components of a converged reconstruction: the
    mean :func:`~deepsolve.powerflow.limit_excess` of each family."""
    excess = limit_excess(case, sol)
    return {
        name: float(excess[kind].mean()) if excess[kind].size else 0.0
        for name, kind in _PENALTY_FAMILIES
    }


def penalty_loss(
    case: NetworkCase, sol: PowerFlowSolution, diverged_pf_penalty: float = 10.0
) -> float:
    """Average operating-limit penalty of a reconstruction.

    A non-converged power flow yields the fixed ``diverged_pf_penalty``
    instead, so training proceeds through bad predictions.
    """
    if not sol.converged:
        return float(diverged_pf_penalty)
    return float(sum(penalty_terms(case, sol).values()))


def zo_grad(pen_eval, s_pred, delta, seed, failure_value: float = 10.0) -> np.ndarray:
    """Two-point zero-order gradient estimate of a black-box penalty.

    Draws one direction v uniformly on the unit sphere and returns
    (d*v / 2*delta) * [pen(s+delta*v) - pen(s-delta*v)], clipping the
    perturbed points into (0, 1) before evaluation.  Exactly two
    evaluations; a failing evaluation contributes ``failure_value``.
    """
    s_pred = np.asarray(s_pred, dtype=float)
    d = s_pred.size
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    s_plus = np.clip(s_pred + delta * v, CLIP_EPS, 1.0 - CLIP_EPS)
    s_minus = np.clip(s_pred - delta * v, CLIP_EPS, 1.0 - CLIP_EPS)
    if np.any(s_pred + delta * v != s_plus) or np.any(s_pred - delta * v != s_minus):
        log.debug("zero-order perturbation clipped into (0,1)")
    values = []
    for point in (s_plus, s_minus):
        try:
            values.append(float(pen_eval(point)))
        except Exception:  # noqa: BLE001 - evaluation failures become penalty
            log.debug("penalty evaluation failed; using failure value", exc_info=True)
            values.append(float(failure_value))
    return (d * v / (2.0 * delta)) * (values[0] - values[1])


def make_penalty_evaluator(
    case: NetworkCase,
    adm: AdmittanceMatrix,
    dataset: Dataset,
    loads: np.ndarray,
    diverged_pf_penalty: float,
    record: list | None = None,
):
    """Black-box s -> penalty for one load vector.

    The reconstruction solves the power flow from the dataset's stored
    dependent-variable means.  When ``record`` is given, every evaluation
    appends (value, converged) for loss accounting.
    """
    n = case.n_bus
    p_load, q_load = loads[:n], loads[n:]
    init = pf_init_from_dependent(case, dataset.dependent_mean)

    def pen_eval(s):
        indep = IndependentVars.from_vector(decode(dataset.spec, s))
        try:
            sol = solve_pf(case, adm, indep, p_load, q_load, init=init)
            value = penalty_loss(case, sol, diverged_pf_penalty)
            converged = sol.converged
        except PowerFlowError:
            value, converged = float(diverged_pf_penalty), False
        if record is not None:
            record.append((value, converged))
        return value

    return pen_eval


def train(
    model: MlpModel,
    case: NetworkCase,
    dataset: Dataset,
    config: TrainConfig,
    adm: AdmittanceMatrix | None = None,
) -> tuple[MlpModel, list[EpochStats]]:
    """Run the penalty training loop and return the per-epoch history.

    Per epoch: shuffle, then per batch compute the per-sample loss gradient
    w.r.t. the network output (prediction term analytically, penalty term by
    the two-point estimator), average over the batch, backpropagate and take
    an Adam step.  Fully deterministic under config.seed.
    """
    config.validate()
    if adm is None:
        adm = build_admittance(case)
    if dataset.case_id != case.name:
        raise TrainingError(f"dataset built for {dataset.case_id!r}, case is {case.name!r}")
    if not dataset.samples:
        raise TrainingError("empty training dataset")

    x_all = dataset.normalizer.transform(dataset.loads_matrix)
    y_all = dataset.s_matrix
    d = dataset.spec.dimension
    if y_all.shape[1] != d or model.layer_sizes[-1] != d:
        raise TrainingError("model output dimension does not match the scaling spec")
    if model.layer_sizes[0] != x_all.shape[1]:
        raise TrainingError("model input dimension does not match the load vectors")

    n_samples = len(dataset.samples)
    state = init_adam(model, learning_rate=config.learning_rate)
    history: list[EpochStats] = []

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        perm = np.random.default_rng([config.seed, epoch]).permutation(n_samples)
        pred_sum = 0.0
        pen_sum = 0.0
        pen_count = 0
        diverged = 0
        for start in range(0, n_samples, config.batch_size):
            batch = perm[start : start + config.batch_size]
            xb, yb = x_all[batch], y_all[batch]
            s_pred, trace = forward(model, xb)
            dl_ds = config.w1 * (2.0 / d) * (s_pred - yb)
            pred_sum += float(np.sum((s_pred - yb) ** 2) / d)

            if config.w2 > 0:
                for row, sample_idx in enumerate(batch):
                    evals: list = []
                    pen_eval = make_penalty_evaluator(
                        case,
                        adm,
                        dataset,
                        dataset.samples[sample_idx].loads,
                        config.diverged_pf_penalty,
                        record=evals,
                    )
                    g = np.zeros(d)
                    for draw in range(config.zo_draws):
                        g += zo_grad(
                            pen_eval,
                            s_pred[row],
                            config.delta,
                            np.random.default_rng(
                                [config.seed, epoch, int(sample_idx), draw]
                            ),
                            failure_value=config.diverged_pf_penalty,
                        )
                    dl_ds[row] += config.w2 * g / config.zo_draws
                    pen_sum += sum(v for v, _ in evals) / (2 * config.zo_draws)
                    pen_count += 1
                    diverged += sum(not ok for _, ok in evals)

            if not np.all(np.isfinite(dl_ds)):
                bad = int(batch[np.flatnonzero(~np.isfinite(dl_ds).all(axis=1))[0]])
                raise TrainingError(
                    f"non-finite loss gradient at epoch {epoch}, "
                    f"batch {start // config.batch_size}, sample {bad}"
                )
            grads = backward(model, trace, dl_ds / len(batch))
            adam_step(model, state, grads)

        pred_mean = pred_sum / n_samples
        pen_mean = pen_sum / pen_count if pen_count else 0.0
        stats = EpochStats(
            epoch=epoch,
            pred=pred_mean,
            pen=pen_mean,
            total=config.w1 * pred_mean + config.w2 * pen_mean,
            pf_diverged=diverged,
            wall_time=time.perf_counter() - t0,
        )
        history.append(stats)
        log.info(
            "epoch %d: pred %.3e pen %.3e total %.3e (%d diverged, %.2fs)",
            epoch,
            stats.pred,
            stats.pen,
            stats.total,
            stats.pf_diverged,
            stats.wall_time,
        )
    return model, history

