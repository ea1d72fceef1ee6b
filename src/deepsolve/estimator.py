"""The fitted predict-and-reconstruct pipeline, behind an estimator surface.

``OpfPredictor`` owns everything the model path needs: normalization, the
network, the scaling codec, the admittance matrix and the power-flow start
(``pf_init_``, the training set's :class:`~deepsolve.powerflow.PfInit`).
``fit`` trains it, ``save``/``load`` move it through a checkpoint, and
``solve`` is the timed one-instance model path (normalize, forward,
decode, power flow) that ``evaluator`` and the ``eval`` command use; the
batched second stage is :func:`~deepsolve.trainer.reconstruct`, which
takes the fitted parts.  Its parameters are the case, the hidden layer
sizes and the training options, kept as one
:class:`~deepsolve.trainer.TrainConfig`.  The checkpoint header carries
the fitted pipeline as a dataset header does (``dataio.pipeline_to_json``).
Bad input raises a ``DeepsolveError``: ``DataError`` for a checkpoint that is
malformed or does not fit the case, ``TrainingError`` for a dataset of another case.
"""

from __future__ import annotations

import numpy as np

from . import dataio, mlp, trainer
from .netmodel import DataError, NetworkCase, build_admittance, load_case
from .powerflow import IndependentVars, SingularJacobianError, solve_pf


class NotFittedError(RuntimeError):
    pass


class OpfPredictor:
    """Predicts AC-OPF operating points from load vectors.

    fit() trains on a labeled Dataset, predict() returns scaling factors
    and solve() runs one model-path pass.
    """

    def __init__(self, case: NetworkCase | None = None, hidden_layer_sizes=(64, 32),
                 **train_options):
        """``train_options`` are :class:`~deepsolve.trainer.TrainConfig`
        fields, kept as ``config``; the ones not given take its defaults."""
        self.case = case
        self.hidden_layer_sizes = hidden_layer_sizes
        self.config = trainer.TrainConfig(**train_options)

    def fit(self, dataset: dataio.Dataset):
        if self.case is None:
            raise ValueError("OpfPredictor needs a case to fit")
        sizes = [2 * self.case.n_bus, *self.hidden_layer_sizes, dataset.spec.dimension]
        model = mlp.init_model(sizes, seed=self.config.seed)
        self.adm_ = build_admittance(self.case)
        self.model_, self.history_ = trainer.train(
            model, self.case, dataset, self.config, adm=self.adm_
        )
        self._set_pipeline(dataset.spec, dataset.normalizer, dataset.pf_init)
        return self

    def _set_pipeline(self, spec, normalizer, pf_init):
        self.spec_ = spec
        self.normalizer_ = normalizer
        self.pf_init_ = pf_init

    # checkpoints ------------------------------------------------------------
    def save(self, path):
        """Write the network plus the header ``load`` needs to rebuild the
        pipeline: case id, scaling spec, normalizer, power-flow start, seed."""
        self._check_fitted()
        meta = {
            "case_id": self.case.name,
            **dataio.pipeline_to_json(self.spec_, self.normalizer_, self.pf_init_),
            "seed": self.config.seed,
        }
        mlp.save_model(self.model_, path, meta=meta)
        return self

    @classmethod
    def load(cls, path, case: NetworkCase | None = None) -> "OpfPredictor":
        """A fitted predictor from a checkpoint; ``case`` defaults to the
        bundled case the checkpoint names and must carry that name, and the
        header's and network's sizes must fit it."""
        model, meta = mlp.load_model(path)
        keys = {"case_id": str, "seed": int}
        case_id, seed = dataio.header_fields(meta, keys, path, "checkpoint header")
        if case is None:
            case = load_case(case_id)
        elif case.name != case_id:
            raise DataError(f"{path}: checkpoint is for case {case_id!r}, not {case.name!r}")
        spec, normalizer, pf_init = dataio.pipeline_from_json(
            meta, path, "checkpoint header", case.n_bus
        )
        n_in, n_out = 2 * case.n_bus, dataio.ScalingSpec.from_case(case).dimension
        for key, size, need in (
            ("'layer_sizes' input", model.layer_sizes[0], n_in),
            ("'layer_sizes' output", model.layer_sizes[-1], n_out),
            ("'scaling_spec'", spec.dimension, n_out),
        ):
            if size != need:
                raise DataError(f"{path}: {key} has size {size}, case {case.name} needs {need}")
        predictor = cls(case, tuple(model.layer_sizes[1:-1]), seed=seed)
        predictor.model_ = model
        predictor.adm_ = build_admittance(case)
        predictor._set_pipeline(spec, normalizer, pf_init)
        return predictor

    # ----------------------------------------------------------------------
    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError("OpfPredictor is not fitted; call fit() first")

    def predict(self, loads):
        """Scaling factors (n, d) for raw per-unit load vectors (n, 2N)."""
        self._check_fitted()
        x = self.normalizer_.transform(np.atleast_2d(loads))
        s, _ = mlp.forward(self.model_, x)
        return s

    def solve(self, loads):
        """One model-path pass for a load vector (2N,): predict, decode and
        reconstruct by power flow from the training-mean start.

        Returns ``(indep, sol)``, ``sol`` the power flow as
        :func:`~deepsolve.powerflow.solve_pf` returns it (a
        :class:`~deepsolve.powerflow.PowerFlowBatch` row); ``sol`` is ``None``
        when the Jacobian turned singular, and both are ``None`` when the
        prediction does not decode (a NaN output)."""
        try:
            indep = IndependentVars.from_vector(dataio.decode(self.spec_, self.predict(loads))[0])
        except dataio.CodecError:
            return None, None
        n = self.case.n_bus
        try:
            sol = solve_pf(
                self.case, self.adm_, indep, loads[:n], loads[n:], init=self.pf_init_
            )
        except SingularJacobianError:
            sol = None
        return indep, sol
