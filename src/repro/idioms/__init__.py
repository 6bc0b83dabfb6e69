"""Idiom detection: registry, drivers, post-processing and reports."""

from .detect import (
    find_for_loops,
    find_reductions,
    find_reductions_in_function,
)
from .extensions import (
    ExtendedReport,
    FunctionExtensions,
    find_extended_in_function,
    find_extended_reductions,
)
from .forloop import ForLoopMatch
from .postprocess import (
    accumulator_confined,
    alias_checks_for,
    base_memory_ops_confined,
    classify_update,
)
from .registry import (
    BUILTIN_IDIOMS,
    CORE_IDIOMS,
    EXTENSION_IDIOMS,
    IdiomRegistry,
    RegisteredIdiom,
    default_registry,
    reset_default_registry,
)
from .reports import (
    AliasCheck,
    DetectionReport,
    FunctionReductions,
    HistogramReduction,
    ReductionOp,
    ScalarReduction,
)

__all__ = [
    "find_reductions",
    "find_reductions_in_function",
    "find_for_loops",
    "IdiomRegistry",
    "RegisteredIdiom",
    "BUILTIN_IDIOMS",
    "CORE_IDIOMS",
    "EXTENSION_IDIOMS",
    "default_registry",
    "reset_default_registry",
    "ForLoopMatch",
    "classify_update",
    "accumulator_confined",
    "base_memory_ops_confined",
    "alias_checks_for",
    "DetectionReport",
    "FunctionReductions",
    "ScalarReduction",
    "HistogramReduction",
    "ReductionOp",
    "AliasCheck",
    "find_extended_reductions",
    "find_extended_in_function",
    "ExtendedReport",
    "FunctionExtensions",
]
