"""Estimator-style front end for the predict-and-reconstruct pipeline.

Wraps normalization, the network, the scaling codec and the power-flow
reconstruction behind a fit/predict surface with sklearn-compatible
get_params/set_params, so the pipeline drops into standard tooling.
"""

from __future__ import annotations

import numpy as np

from . import dataio, mlp, trainer
from .netmodel import NetworkCase, build_admittance
from .powerflow import IndependentVars, solve_pf


class NotFittedError(RuntimeError):
    pass


class OpfPredictor:
    """Predicts AC-OPF operating points from load vectors.

    fit() trains on a labeled Dataset; predict() returns scaling factors,
    predict_physical() the decoded independent variables, reconstruct()
    full power-flow solutions.
    """

    _PARAM_NAMES = (
        "case",
        "hidden_layer_sizes",
        "w1",
        "w2",
        "delta",
        "epochs",
        "batch_size",
        "learning_rate",
        "seed",
        "diverged_pf_penalty",
        "zo_draws",
    )

    def __init__(
        self,
        case: NetworkCase | None = None,
        hidden_layer_sizes=(64, 32),
        w1=1.0,
        w2=0.1,
        delta=1e-3,
        epochs=200,
        batch_size=32,
        learning_rate=1e-3,
        seed=0,
        diverged_pf_penalty=10.0,
        zo_draws=1,
    ):
        self.case = case
        self.hidden_layer_sizes = hidden_layer_sizes
        self.w1 = w1
        self.w2 = w2
        self.delta = delta
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.diverged_pf_penalty = diverged_pf_penalty
        self.zo_draws = zo_draws

    # sklearn parameter plumbing -------------------------------------------
    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    # ----------------------------------------------------------------------
    def fit(self, dataset: dataio.Dataset):
        if self.case is None:
            raise ValueError("OpfPredictor needs a case to fit")
        if dataset.case_id != self.case.name:
            raise ValueError(
                f"dataset built for {dataset.case_id!r}, estimator case is {self.case.name!r}"
            )
        sizes = [2 * self.case.n_bus, *self.hidden_layer_sizes, dataset.spec.dimension]
        model = mlp.init_model(sizes, seed=self.seed)
        config = trainer.TrainConfig(
            w1=self.w1,
            w2=self.w2,
            delta=self.delta,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=self.seed,
            diverged_pf_penalty=self.diverged_pf_penalty,
            zo_draws=self.zo_draws,
        )
        self.adm_ = build_admittance(self.case)
        self.model_, self.history_ = trainer.train(
            model, self.case, dataset, config, adm=self.adm_
        )
        self.spec_ = dataset.spec
        self.normalizer_ = dataset.normalizer
        self.pf_init_ = dataio.pf_init_from_dependent(self.case, dataset.dependent_mean)
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError("OpfPredictor is not fitted; call fit() first")

    def predict(self, loads):
        """Scaling factors (n, d) for raw per-unit load vectors (n, 2N)."""
        self._check_fitted()
        x = self.normalizer_.transform(np.atleast_2d(loads))
        s, _ = mlp.forward(self.model_, x)
        return s

    def predict_physical(self, loads):
        return dataio.decode(self.spec_, self.predict(loads))

    def independent_vars(self, loads_row) -> IndependentVars:
        return IndependentVars.from_vector(self.predict_physical(loads_row)[0])

    def reconstruct(self, loads):
        """Full power-flow reconstructions for load vectors (n, 2N)."""
        self._check_fitted()
        loads = np.atleast_2d(loads)
        n = self.case.n_bus
        out = []
        for row in loads:
            indep = self.independent_vars(row)
            out.append(
                solve_pf(self.case, self.adm_, indep, row[:n], row[n:], init=self.pf_init_)
            )
        return out

    def score(self, dataset: dataio.Dataset):
        """Negative mean prediction loss over a dataset (higher is better)."""
        self._check_fitted()
        s = self.predict(dataset.loads_matrix)
        return -float(np.mean(np.sum((s - dataset.s_matrix) ** 2, axis=1) / s.shape[1]))
