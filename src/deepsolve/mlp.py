"""Feed-forward network with manual backpropagation and Adam updates.

Rectifier hidden layers, logistic-sigmoid output layer (so predictions stay
strictly inside (0,1) and decode can never leave the variable boxes).  The
backward pass takes an externally supplied gradient of the loss w.r.t. the
network output, which is how the penalty-gradient estimator plugs in; it
masks each rectifier by its output, the only layer values the trace keeps.

Adam runs with the fixed constants ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPS``; only its learning rate is a training option.  Its state holds
one moment list each (``m``, ``v``) over the parameters ``[*weights, *biases]``.

Checkpoints use the dataset record codec (``dataio.write_records``): a JSON
header, then one record per weight matrix and bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio
from .netmodel import DataError, DeepsolveError, is_kind


class MlpError(DeepsolveError):
    pass


class StaleTraceError(MlpError):
    """Trace was produced by an older parameter state."""


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    # keep outputs strictly inside (0,1) even where float64 saturates, so
    # decoded variables can never sit outside their boxes
    return np.clip(out, _SIG_LO, _SIG_HI)


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # layer i: (fan_in, fan_out)
    biases: list[np.ndarray]
    version: int = 0

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


@dataclass
class ForwardTrace:
    x: np.ndarray
    activations: list[np.ndarray]
    version: int


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    learning_rate: float
    step: int = 0


def _layer_shapes(sizes, where="'layer_sizes'") -> list[tuple[int, int]]:
    """``(fan_in, fan_out)`` of each layer, or ``DataError`` at ``where``
    unless the list ``sizes`` holds at least two positive integers."""
    if not (len(sizes) >= 2 and all(is_kind(s, int) and s > 0 for s in sizes)):
        raise DataError(f"{where} is {sizes!r}, need at least two positive integers")
    return list(zip(sizes[:-1], sizes[1:]))


def init_model(layer_sizes, seed) -> MlpModel:
    """He-style fan-in scaled uniform weights, zero biases, seeded.

    ``OpfPredictor.fit`` then sets the output layer: zero weights and the
    logit of the mean training label as bias."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in _layer_shapes(list(layer_sizes)):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Batched forward pass; x is (batch, in_dim) or (in_dim,)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.weights[0].shape[0]:
        raise MlpError(
            f"input dimension {x.shape[1]} does not match model ({model.weights[0].shape[0]})"
        )
    act = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = _sigmoid(z) if i == last else np.maximum(0.0, z)
        act.append(a)
    return a, ForwardTrace(x=x, activations=act, version=model.version)


def backward(model: MlpModel, trace: ForwardTrace, dl_ds: np.ndarray):
    """Parameter gradients for a batch, given dLoss/dOutput rows.

    Returns [(dW, db), ...] per layer, summed over the batch; scale dl_ds
    by 1/batch before calling to obtain batch-mean gradients.  Rectifier
    subgradient at exactly zero is taken as zero.
    """
    if trace.version != model.version:
        raise StaleTraceError(
            f"trace from parameter version {trace.version}, model at {model.version}"
        )
    dl_ds = np.atleast_2d(np.asarray(dl_ds, dtype=float))
    out = trace.activations[-1]
    if dl_ds.shape != out.shape:
        raise MlpError(f"output gradient shape {dl_ds.shape} does not match {out.shape}")

    grads = [None] * len(model.weights)
    delta = dl_ds * out * (1.0 - out)  # through the output sigmoid
    for i in range(len(model.weights) - 1, -1, -1):
        a_prev = trace.activations[i - 1] if i > 0 else trace.x
        grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i].T) * (trace.activations[i - 1] > 0.0)
    return grads


def init_adam(model: MlpModel, learning_rate: float) -> AdamState:
    params = [*model.weights, *model.biases]
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
    )


def adam_step(model: MlpModel, state: AdamState, grads) -> MlpModel:
    """Bias-corrected Adam update, in place; bumps the parameter version."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    dw, db = zip(*grads)
    for i, (p, g) in enumerate(zip([*model.weights, *model.biases], [*dw, *db])):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g**2
        p -= state.learning_rate * (state.m[i] / c1) / (np.sqrt(state.v[i] / c2) + ADAM_EPS)
    model.version += 1
    return model


# ---------------------------------------------------------------------------
# checkpoints

# the activations forward() implements, named in every checkpoint header
_ACTIVATIONS = {"hidden_activation": "relu", "output_activation": "sigmoid"}


def save_model(model: MlpModel, path, meta: dict | None = None):
    header = {
        "format_version": 1,
        "layer_sizes": model.layer_sizes,
        **_ACTIVATIONS,
        "version": model.version,
        "meta": meta or {},
    }
    rows = [p.ravel() for wb in zip(model.weights, model.biases) for p in wb]
    dataio.write_records(path, header, rows)


def load_model(path) -> tuple[MlpModel, dict]:
    header, records = dataio.read_records(path, "checkpoint", 1)
    keys = {"layer_sizes": list, **dict.fromkeys(_ACTIVATIONS, str), "version": int, "meta": dict}
    sizes, *activations, version, meta = dataio.header_fields(
        header, keys, path, "checkpoint header"
    )
    for (key, name), value in zip(_ACTIVATIONS.items(), activations):
        if value != name:
            raise DataError(f"{path}: checkpoint {key!r} is {value!r}, only {name!r} is implemented")
    shapes = []
    for fan_in, fan_out in _layer_shapes(sizes, f"{path}: 'layer_sizes'"):
        shapes += [(fan_in, fan_out), (fan_out,)]  # weights, then biases
    if len(records) != len(shapes):
        problem = "truncated" if len(records) < len(shapes) else "overlong"
        raise DataError(
            f"{path}: {problem} checkpoint, {len(shapes)} parameter records expected, "
            f"found {len(records)}"
        )
    params = [dataio.record_values(path, r, s) for r, s in zip(records, shapes)]
    return MlpModel(params[0::2], params[1::2], version), meta
