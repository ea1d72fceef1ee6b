"""Learned predict-and-reconstruct toolkit for AC optimal power flow."""

from .netmodel import (
    AdmittanceMatrix,
    Branch,
    Bus,
    BusKind,
    CaseError,
    CaseSyntaxError,
    CaseValidationError,
    CostCurve,
    DeepsolveError,
    Generator,
    NetworkCase,
    build_admittance,
    load_case,
    parse_case,
)
from .powerflow import (
    FeasibilityReport,
    IndependentVars,
    PfInit,
    PowerFlowBatch,
    PowerFlowError,
    SingularJacobianError,
    Violation,
    box_penalty,
    branch_flows,
    check_feasibility,
    limit_excess,
    solve_pf,
    solve_pf_batch,
)
from .opfref import (
    OpfBatch,
    OpfError,
    OpfSolution,
    WarmStart,
    generation_cost,
    recover,
    solve_opf,
)
from .dataio import (
    Dataset,
    Normalizer,
    ScalingSpec,
    TrainSample,
    build_dataset,
    decode,
    encode,
    load_dataset,
    sample_loads,
    save_dataset,
)
from .mlp import AdamState, MlpModel, adam_step, backward, forward, init_adam, init_model
from .trainer import TrainConfig, penalty_loss, pred_loss, train, zo_grad
from .estimator import OpfPredictor
from .evaluator import EvalReport, evaluate, recover_infeasible

__version__ = "0.1.0"
