"""Differentiable fuzzy logic: operators with analytic derivatives, a
first-order valuation engine that turns weighted knowledge bases into
losses, gradient-descent fuzzy maximum satisfiability, and analysis
tools for derivative quality."""

__version__ = "0.1.0"

from .operators import (
    OperatorConfig,
    OperatorError,
    ConfigError,
    parse_operator_config,
    negation,
    tnorm,
    tconorm,
    aggregate,
    implication,
    sigmoidal_implication,
)
# after operators: numpy loads once operators.py is compiled (lower peak RSS)
from .autodiff import Tape, Node, GradientMap, finite_difference_check

__all__ = [
    "Tape",
    "Node",
    "GradientMap",
    "finite_difference_check",
    "OperatorConfig",
    "OperatorError",
    "ConfigError",
    "parse_operator_config",
    "negation",
    "tnorm",
    "tconorm",
    "aggregate",
    "implication",
    "sigmoidal_implication",
    "__version__",
]
