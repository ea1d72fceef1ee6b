"""Penalty-aware training of the scaling-factor predictor.

The loss per sample combines a prediction error (mean squared deviation of
the predicted scaling factors from the reference ones) with an operating-
limit penalty evaluated on the power-flow reconstruction of the prediction.
The penalty gradient w.r.t. the network output is estimated with a
two-point zero-order scheme: exactly two power-flow solves per sample and
draw, independent of the output dimension.  Training reconstructs all
perturbed points of a minibatch in one batched power flow
(:func:`~deepsolve.powerflow.solve_pf_batch`); a reconstruction that does
not converge costs the fixed ``DIVERGED_PF_PENALTY``.

:class:`TrainConfig` owns the training options and their defaults;
``OpfPredictor`` and the ``train`` command take theirs from it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .dataio import DataError, Dataset, ScalingSpec, decode, pf_init_from_dependent
from .mlp import MlpModel, adam_step, backward, forward, init_adam
from .netmodel import AdmittanceMatrix, NetworkCase, build_admittance
from .powerflow import (
    IndependentVars,
    PfInit,
    PowerFlowBatch,
    PowerFlowError,
    PowerFlowSolution,
    limit_excess,
    solve_pf_batch,
)
from .powerflow import solve_pf  # noqa: F401 - perfbench pins this re-export until ROADMAP item 1

log = logging.getLogger(__name__)

CLIP_EPS = 1e-6  # perturbed scaling factors stay inside (0, 1)
DIVERGED_PF_PENALTY = 10.0  # penalty of a reconstruction that did not converge


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    """Training options: loss weights, zero-order radius and draws, epochs,
    minibatch size, Adam learning rate and seed."""

    w1: float = 1.0
    w2: float = 0.1
    delta: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
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


def penalty_terms(case: NetworkCase, sol: PowerFlowSolution | PowerFlowBatch) -> dict:
    """Per-family penalty components of a converged reconstruction: the
    mean :func:`~deepsolve.powerflow.limit_excess` of each family, one
    value per row for a batch (zero for an empty family)."""
    excess = limit_excess(case, sol)
    return {
        name: np.sum(excess[kind], axis=-1) / max(excess[kind].shape[-1], 1)
        for name, kind in _PENALTY_FAMILIES
    }


def penalty_loss(case: NetworkCase, sol: PowerFlowSolution) -> float:
    """Average operating-limit penalty of a reconstruction.

    A non-converged power flow yields the fixed ``DIVERGED_PF_PENALTY``
    instead, so training proceeds through bad predictions.
    """
    if not sol.converged:
        return DIVERGED_PF_PENALTY
    return float(sum(penalty_terms(case, sol).values()))


def penalty_loss_batch(case: NetworkCase, batch: PowerFlowBatch) -> np.ndarray:
    """:func:`penalty_loss` of every row of a batched reconstruction;
    non-converged and singular rows get ``DIVERGED_PF_PENALTY``."""
    pen = np.full(batch.converged.shape, DIVERGED_PF_PENALTY)
    if batch.converged.any():
        pen[batch.converged] = sum(penalty_terms(case, batch.take(batch.converged)).values())
    return pen


def reconstruction_penalty(
    case: NetworkCase,
    adm: AdmittanceMatrix,
    spec: ScalingSpec,
    init: PfInit,
    s: np.ndarray,
    loads: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Penalty and convergence flag of every row of ``s`` (scaling factors,
    (B, d)), reconstructed at the matching row of ``loads`` (B, 2N) by one
    batched power flow started from ``init``."""
    n = case.n_bus
    indep = IndependentVars.from_vector(decode(spec, s))
    batch = solve_pf_batch(case, adm, indep, loads[:, :n], loads[:, n:], init=init)
    return penalty_loss_batch(case, batch), batch.converged


def _direction(rng: np.random.Generator, d: int) -> np.ndarray:
    """One direction drawn uniformly on the unit sphere in R^d."""
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    return v


def _perturbed_points(s, v, delta):
    """s + delta*v and s - delta*v, clipped into (0, 1)."""
    s_plus = np.clip(s + delta * v, CLIP_EPS, 1.0 - CLIP_EPS)
    s_minus = np.clip(s - delta * v, CLIP_EPS, 1.0 - CLIP_EPS)
    if np.any(s + delta * v != s_plus) or np.any(s - delta * v != s_minus):
        log.debug("zero-order perturbation clipped into (0,1)")
    return s_plus, s_minus


def _two_point_estimate(v, pen_diff, delta):
    """(d*v / 2*delta) * pen_diff, with pen_diff = pen(s+delta*v) -
    pen(s-delta*v) broadcast against the rows of v."""
    return (v.shape[-1] * v / (2.0 * delta)) * pen_diff


def zo_grad(pen_eval, s_pred, delta, seed) -> np.ndarray:
    """Two-point zero-order gradient estimate of a black-box penalty.

    Draws one direction v uniformly on the unit sphere and returns
    (d*v / 2*delta) * [pen(s+delta*v) - pen(s-delta*v)], clipping the
    perturbed points into (0, 1) before evaluation.  Exactly two
    evaluations; an evaluation failing with a power-flow or data error
    contributes ``DIVERGED_PF_PENALTY``, any other exception propagates.
    """
    s_pred = np.asarray(s_pred, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = _direction(rng, s_pred.size)
    values = []
    for point in _perturbed_points(s_pred, v, delta):
        try:
            values.append(float(pen_eval(point)))
        except (PowerFlowError, DataError):
            log.debug("penalty evaluation failed; using failure value", exc_info=True)
            values.append(DIVERGED_PF_PENALTY)
    return _two_point_estimate(v, values[0] - values[1], delta)


def _batch_penalty_gradient(case, adm, dataset, init, s_pred, sample_ids, epoch, config):
    """Zero-order penalty gradient of every row of a minibatch.

    Row r draws its directions from the generators
    [seed, epoch, sample_ids[r], draw], so they do not depend on the batch
    it sits in.  All 2 * zo_draws * rows perturbed points are
    reconstructed by one :func:`reconstruction_penalty` call.  Returns the
    (rows, d) estimates summed over draws, and the penalty values and
    convergence flags, (rows, zo_draws, 2) each.
    """
    rows, d = s_pred.shape
    draws = config.zo_draws
    v = np.array([
        [_direction(np.random.default_rng([config.seed, epoch, int(k), j]), d)
         for j in range(draws)]
        for k in sample_ids
    ])
    points = np.stack(_perturbed_points(s_pred[:, None, :], v, config.delta), axis=2)
    loads = np.array([dataset.samples[k].loads for k in sample_ids])
    loads = np.broadcast_to(loads[:, None, None, :], (rows, draws, 2, loads.shape[1]))
    pen, converged = reconstruction_penalty(
        case, adm, dataset.spec, init, points.reshape(-1, d), loads.reshape(-1, loads.shape[-1])
    )
    pen = pen.reshape(rows, draws, 2)
    g = np.zeros((rows, d))
    for j in range(draws):
        g += _two_point_estimate(v[:, j], pen[:, j, :1] - pen[:, j, 1:], config.delta)
    return g, pen, converged.reshape(rows, draws, 2)


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
    init = pf_init_from_dependent(case, dataset.dependent_mean)
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
                g, pen, converged = _batch_penalty_gradient(
                    case, adm, dataset, init, s_pred, batch, epoch, config
                )
                dl_ds += config.w2 * g / config.zo_draws
                pen_sum += float(np.sum(pen)) / (2 * config.zo_draws)
                pen_count += len(batch)
                diverged += int(np.count_nonzero(~converged))

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

