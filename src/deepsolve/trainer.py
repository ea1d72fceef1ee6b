"""Penalty-aware training of the scaling-factor predictor.

The loss per sample combines a prediction error (mean squared deviation of
the predicted scaling factors from the reference ones) with an operating-
limit penalty evaluated on the power-flow reconstruction of the prediction.
The penalty gradient w.r.t. the network output is estimated with a
two-point zero-order scheme: exactly two power-flow solves per sample and
draw, independent of the output dimension.  :func:`reconstruct` is the
second stage, shared with inference: it decodes scaling factors and
rebuilds the dependent variables by one batched power flow
(:func:`~deepsolve.powerflow.solve_pf_batch`).  Training estimates the
penalty gradient of a minibatch with :func:`zo_grad`, the one zero-order
estimator, whose penalty reconstructs all perturbed points in one call and
takes one :func:`penalty_loss` of the batch; a reconstruction that does not
converge costs the fixed ``DIVERGED_PF_PENALTY``.  Each epoch's generator,
``default_rng([seed, epoch])``, first draws the shuffle and then, when the
penalty term is on, one table of unit directions, ``zo_draws`` orthonormal
ones per sample (:func:`_direction_table`).  A minibatch takes its samples'
rows of the table, so a sample's directions depend on its id and the epoch,
not on the batch it lands in, and a run without the penalty term draws none.

:class:`TrainConfig` owns the training options, their types and defaults:
``OpfPredictor`` keeps one as ``config``, and the ``train`` command makes one
flag per field (``--batch`` and ``--lr`` for ``batch_size`` and ``learning_rate``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, ScalingSpec, decode
from .mlp import MlpModel, adam_step, backward, forward, init_adam
from .netmodel import AdmittanceMatrix, DeepsolveError, NetworkCase, build_admittance
from .powerflow import (
    IndependentVars,
    PfInit,
    PowerFlowBatch,
    limit_excess,
    solve_pf_batch,
)
from .powerflow import solve_pf  # noqa: F401 - perfbench pins this re-export until ROADMAP item 1

log = logging.getLogger(__name__)

CLIP_EPS = 1e-6  # perturbed scaling factors stay inside (0, 1)
DIVERGED_PF_PENALTY = 10.0  # penalty of a reconstruction that did not converge


class TrainingError(DeepsolveError):
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
    zo_draws: int = field(default=1, metadata={"help": "two-point estimates averaged per sample"})

    def validate(self):
        if not (0 <= self.w1 < np.inf and 0 <= self.w2 < np.inf):
            raise TrainingError(
                f"loss weights must be finite and nonnegative, got {self.w1} and {self.w2}"
            )
        if not 0 < self.delta < np.inf:
            raise TrainingError(f"smoothing radius must be finite and positive, got {self.delta}")
        if not 0 < self.learning_rate < np.inf:
            raise TrainingError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )
        if self.batch_size < 1 or self.epochs < 0:
            raise TrainingError("bad batch size or epoch count")
        if self.zo_draws < 1:
            raise TrainingError("need at least one zero-order draw")


@dataclass
class EpochStats:
    """One epoch's losses, wall time and diverged power flows; the fields,
    in order, are the training metrics CSV's columns."""

    epoch: int
    pred: float
    pen: float
    total: float
    wall_time: float
    pf_diverged: int


def pred_loss(s_pred: np.ndarray, s_true: np.ndarray) -> float | np.ndarray:
    """Mean squared deviation of the scaling factors, (1/d)*||s_pred-s_true||^2:
    a float for two vectors (d,), one loss per row for two stacks (n, d)."""
    s_pred = np.asarray(s_pred, dtype=float)
    s_true = np.asarray(s_true, dtype=float)
    if s_pred.shape != s_true.shape:
        raise TrainingError(f"shape mismatch {s_pred.shape} vs {s_true.shape}")
    loss = np.sum((s_pred - s_true) ** 2, axis=-1) / s_pred.shape[-1]
    return float(loss) if loss.ndim == 0 else loss


def penalty_terms(case: NetworkCase, sol: PowerFlowBatch) -> dict:
    """Per-family penalty components of a converged reconstruction, keyed
    as :func:`~deepsolve.powerflow.limit_excess` keys its families: the
    mean excess of each family, one value per row for a batch (zero for an
    empty family)."""
    excess = limit_excess(case, sol)
    # the families in sorted order, the order their means are summed, which
    # fixes the last bits of every loss
    return {
        kind: np.sum(excess[kind], axis=-1) / max(excess[kind].shape[-1], 1)
        for kind in sorted(excess)
    }


def penalty_loss(case: NetworkCase, sol: PowerFlowBatch) -> float | np.ndarray:
    """Average operating-limit penalty of a reconstruction: a float for a
    row (:func:`~deepsolve.powerflow.solve_pf`), one value per row for a batch.

    A non-converged or singular row yields the fixed ``DIVERGED_PF_PENALTY``
    instead, so training proceeds through bad predictions.
    """
    converged = sol.converged
    if np.ndim(converged) == 0:
        return float(sum(penalty_terms(case, sol).values())) if converged else DIVERGED_PF_PENALTY
    if converged.all():  # the batch itself, not a copy of all its rows: the same bits
        return sum(penalty_terms(case, sol).values())
    pen = np.full(converged.shape, DIVERGED_PF_PENALTY)
    if converged.any():
        pen[converged] = sum(penalty_terms(case, sol.take(converged)).values())
    return pen


def reconstruct(
    case: NetworkCase,
    adm: AdmittanceMatrix,
    spec: ScalingSpec,
    init: PfInit,
    s: np.ndarray,
    loads: np.ndarray,
) -> PowerFlowBatch:
    """The second stage: the power-flow reconstruction of every row of
    ``s`` (scaling factors, (B, d)) at the matching row of ``loads``
    (B, 2N), by one batched power flow started from ``init``."""
    n = case.n_bus
    indep = IndependentVars.from_vector(decode(spec, s))
    return solve_pf_batch(case, adm, indep, loads[:, :n], loads[:, n:], init=init)


def _direction_table(rng: np.random.Generator, n: int, draws: int, d: int) -> np.ndarray:
    """(n, draws, d) directions, each uniform on the unit sphere in R^d.

    A sample's draws are orthonormal, in blocks of at most d: k orthogonal
    two-point estimates of a gradient g have variance (d/k - 1)*|g|^2
    against (d - 1)/k*|g|^2 for k independent ones.
    """
    blocks = -(-draws // d)
    q, r = np.linalg.qr(rng.normal(size=(n, blocks, d, min(draws, d))))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q.transpose(0, 1, 3, 2).reshape(n, -1, d)[:, :draws]


def _perturbed_points(s, v, delta):
    """s + delta*v and s - delta*v, clipped into (0, 1)."""
    points = (s + delta * v, s - delta * v)
    clipped = tuple(np.clip(p, CLIP_EPS, 1.0 - CLIP_EPS) for p in points)
    if any(np.any(p != c) for p, c in zip(points, clipped)):
        log.debug("zero-order perturbation clipped into (0,1)")
    return clipped


def zo_grad(pen_eval, s_pred, v, delta):
    """Two-point zero-order gradient estimate of a black-box penalty.

    Row r of ``s_pred`` (rows, d) is perturbed along its directions
    ``v[r]``, (draws, d): its sample's rows of :func:`_direction_table`.
    The points s +- delta*v, clipped into (0, 1), are evaluated by one
    ``pen_eval`` call on their (rows * draws * 2, d) stack, ordered by row,
    then draw, then + before -.  ``pen_eval`` returns one penalty per point
    and gives a failed evaluation its value (:func:`penalty_loss` charges
    ``DIVERGED_PF_PENALTY``); any exception it raises propagates.  Returns
    the (rows, d) estimates (d*v / 2*delta) * [pen(s+delta*v) -
    pen(s-delta*v)] summed over draws, and the penalties, (rows, draws, 2).
    """
    rows, draws, d = v.shape
    points = np.stack(_perturbed_points(s_pred[:, None, :], v, delta), axis=2)
    pen = np.asarray(pen_eval(points.reshape(-1, d))).reshape(rows, draws, 2)
    g = np.zeros((rows, d))
    for j in range(draws):
        g += (d * v[:, j] / (2.0 * delta)) * (pen[:, j, :1] - pen[:, j, 1:])
    return g, pen


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

    loads_all = dataset.loads_matrix
    x_all = dataset.normalizer.transform(loads_all)
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
        rng = np.random.default_rng([config.seed, epoch])
        perm = rng.permutation(n_samples)
        if config.w2 > 0:
            directions = _direction_table(rng, n_samples, config.zo_draws, d)
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

            # a NaN prediction does not decode, so it has no penalty; the check below names it
            if config.w2 > 0 and np.isfinite(s_pred).all():
                loads = np.repeat(loads_all[batch], 2 * config.zo_draws, axis=0)

                def penalty(points):
                    nonlocal diverged
                    sol = reconstruct(case, adm, dataset.spec, dataset.pf_init, points, loads)
                    diverged += int(np.count_nonzero(~sol.converged))
                    return penalty_loss(case, sol)

                g, pen = zo_grad(penalty, s_pred, directions[batch], config.delta)
                dl_ds += config.w2 * g / config.zo_draws
                pen_sum += float(np.sum(pen)) / (2 * config.zo_draws)
                pen_count += len(batch)

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
            wall_time=time.perf_counter() - t0,
            pf_diverged=diverged,
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

