"""Complexified-octonion algebra with a seeded identity-verification harness."""

from .core import (
    E,
    ONE,
    CplxOcton,
    StructureTable,
    associator,
    bar_star,
    conj_oct,
    exp_assoc,
    inner,
    inverse,
    mul,
    norm,
    structure_table,
)
from .errors import (
    DomainViolation,
    NotInAssociativeSubalgebra,
    UnknownSuite,
    ZeroDivisor,
)
from .fields import PolyField, eval_at
from .grading import SubspaceTag, project, sample
from .lorentz import Theta, gamma5_analogue, lambda_S, lambda_V, s_gen, v_gen
from .suites import SuiteConfig, SuiteReport, run_all, run_suite, suite_ids

__version__ = "0.1.0"

__all__ = [
    "CplxOcton",
    "StructureTable",
    "PolyField",
    "Theta",
    "SubspaceTag",
    "SuiteConfig",
    "SuiteReport",
    "DomainViolation",
    "NotInAssociativeSubalgebra",
    "UnknownSuite",
    "ZeroDivisor",
    "E",
    "ONE",
    "associator",
    "bar_star",
    "conj_oct",
    "eval_at",
    "exp_assoc",
    "gamma5_analogue",
    "inner",
    "inverse",
    "lambda_S",
    "lambda_V",
    "mul",
    "norm",
    "project",
    "run_all",
    "run_suite",
    "s_gen",
    "sample",
    "structure_table",
    "suite_ids",
    "v_gen",
    "__version__",
]
