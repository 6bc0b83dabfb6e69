"""Constraint-based idiom description language and solver.

This package is the paper's primary contribution: a description
language for computational idioms (atomic constraints over SSA values,
combined with ∧/∨ plus generalized graph domination) and a generic
backtracking solver that finds all satisfying value tuples in a
function.

The static analyzer's names (``analyze_spec``, ``lint_spec_files``,
...) resolve lazily from :mod:`.analysis`, so detection never loads
the linter.
"""

import importlib

from .atomic import (
    Blocked,
    CFGEdge,
    DefDominatesBlock,
    Distinct,
    Dominates,
    EndsInCondBranch,
    EndsInUncondBranch,
    InBlock,
    IsConstantLike,
    Opcode,
    PhiIncomingFromBlock,
    PhiOfTwo,
    PostDominates,
    Predicate,
    SESERegion,
    StrictlyDominates,
    StrictlyPostDominates,
)
from .core import Assignment, Constraint, IdiomSpec, SolverContext, constraint_labels
from .flow import (
    ComputedOnlyFrom,
    FlowChecker,
    FlowPolicy,
    FlowResult,
    declarative_flow,
    root_base,
    stored_bases,
)
from .logical import ConstraintAnd, ConstraintOr
from .plan import FlatPlan, compile_plan, detect_plan
from .predicates import PREDICATE_ATOMS, register_predicate_atom
from .solver import (
    CompiledSpec,
    SharedSolverCache,
    SolverStats,
    compile_spec,
    detect,
    detect_brute_force,
    suggest_order,
)
from .specfile import (
    BUILTIN_SPEC_FILES,
    SpecFileError,
    builtin_spec_dir,
    builtin_spec_path,
    load_spec_file,
    parse_spec_text,
    render_spec_text,
)

__all__ = [
    "Constraint",
    "ConstraintAnd",
    "ConstraintOr",
    "IdiomSpec",
    "SolverContext",
    "Assignment",
    "constraint_labels",
    "CFGEdge",
    "EndsInUncondBranch",
    "EndsInCondBranch",
    "Dominates",
    "StrictlyDominates",
    "PostDominates",
    "StrictlyPostDominates",
    "Blocked",
    "SESERegion",
    "Opcode",
    "PhiOfTwo",
    "PhiIncomingFromBlock",
    "InBlock",
    "IsConstantLike",
    "DefDominatesBlock",
    "Distinct",
    "Predicate",
    "FlowPolicy",
    "FlowChecker",
    "FlowResult",
    "ComputedOnlyFrom",
    "declarative_flow",
    "root_base",
    "stored_bases",
    "detect",
    "detect_brute_force",
    "SolverStats",
    "SharedSolverCache",
    "CompiledSpec",
    "FlatPlan",
    "compile_plan",
    "detect_plan",
    "compile_spec",
    "suggest_order",
    "PREDICATE_ATOMS",
    "register_predicate_atom",
    "load_spec_file",
    "parse_spec_text",
    "render_spec_text",
    "SpecFileError",
    "BUILTIN_SPEC_FILES",
    "builtin_spec_dir",
    "builtin_spec_path",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "analyze_spec",
    "analyze_registry",
    "cross_spec_diagnostics",
    "lint_spec_files",
]

_ANALYSIS_NAMES = frozenset({
    "Diagnostic", "DIAGNOSTIC_CODES", "analyze_spec", "analyze_registry",
    "cross_spec_diagnostics", "lint_spec_files",
})


def __getattr__(name: str):
    if name not in _ANALYSIS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.analysis"), name)
    globals()[name] = value
    return value
