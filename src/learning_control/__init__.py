"""Optimal control signals for gradient-flow learning dynamics.

The package models learning as a deterministic flow of network weights
driven by task second moments, layers a small set of control signals on
top (gains, engagement, per-layer learning rates, initial weights), and
optimizes those signals against discounted cumulative performance with
exact reverse-mode gradients.  `experiments` bundles ready-made scenarios
and `cli` exposes them as the `learning-control` command.
"""

from .control import ControlSchedule, init_weights_control
from .dynamics import (
    DIVERGENCE_LIMIT,
    DynamicsSpec,
    TaskSchedule,
    Trajectory,
    closed_form_single_layer,
    closed_form_single_neuron,
    expected_loss,
    initial_state,
    integrate,
    simulate_sgd,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    LearningControlError,
    UnsupportedOperationError,
)
from .experiments import (
    SCENARIOS,
    RunConfig,
    RunResult,
    detect_plateaus,
    difficulty_order,
    export_class_schedule,
    preset,
    run,
    sweep,
    task_switch_schedule,
)
from .idx import estimate_moments, load_idx, parse_idx, read_moments_json, serialize_idx, write_moments_json
from .optimizer import OptimizerSpec, OptTrace, optimize
from .tasks import (
    BlockMap,
    TaskMoments,
    class_mixture_moments,
    compose_block_tasks,
    correlated_gaussian_moments,
    linear_regression_floor,
    semantic_moments,
    two_gaussian_moments,
)
from .value import (
    CostSpec,
    ValueSpec,
    evaluate_value,
    fd_check,
    grad_value,
    maml_value_and_grad,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMap",
    "ConfigError",
    "ControlSchedule",
    "CostSpec",
    "DIVERGENCE_LIMIT",
    "DataFormatError",
    "DivergenceError",
    "DynamicsSpec",
    "LearningControlError",
    "OptTrace",
    "OptimizerSpec",
    "RunConfig",
    "RunResult",
    "SCENARIOS",
    "TaskMoments",
    "TaskSchedule",
    "Trajectory",
    "UnsupportedOperationError",
    "ValueSpec",
    "class_mixture_moments",
    "closed_form_single_layer",
    "closed_form_single_neuron",
    "compose_block_tasks",
    "correlated_gaussian_moments",
    "detect_plateaus",
    "difficulty_order",
    "estimate_moments",
    "evaluate_value",
    "expected_loss",
    "export_class_schedule",
    "fd_check",
    "grad_value",
    "init_weights_control",
    "initial_state",
    "integrate",
    "linear_regression_floor",
    "load_idx",
    "maml_value_and_grad",
    "optimize",
    "parse_idx",
    "preset",
    "read_moments_json",
    "run",
    "semantic_moments",
    "serialize_idx",
    "simulate_sgd",
    "sweep",
    "task_switch_schedule",
    "two_gaussian_moments",
    "write_moments_json",
    "__version__",
]
