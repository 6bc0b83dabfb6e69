"""repro — constraint-based discovery and exploitation of general reductions.

A faithful, self-contained Python reproduction of

    Philip Ginsbach and Michael F. P. O'Boyle,
    "Discovery and Exploitation of General Reductions:
     A Constraint Based Approach", CGO 2017.

The package provides the full stack the paper builds on:

* :mod:`repro.ir` — a typed SSA intermediate representation;
* :mod:`repro.frontend` — a mini-C compiler producing canonical SSA;
* :mod:`repro.analysis` — dominators, loops, purity, scalar evolution;
* :mod:`repro.constraints` — the constraint description language and
  the backtracking solver (the paper's core contribution);
* :mod:`repro.idioms` — the for-loop, scalar-reduction and histogram
  specifications plus post-processing;
* :mod:`repro.transform` / :mod:`repro.runtime` — reduction
  privatization, loop outlining and the simulated 64-core executor;
* :mod:`repro.baselines` — Polly+reductions and icc comparison models;
* :mod:`repro.workloads` — the 40-program NAS/Parboil/Rodinia corpus;
* :mod:`repro.pipeline` — the corpus-scale detection pipeline
  (sharded workers, shared solver caches, deterministic merge);
* :mod:`repro.evaluation` — one harness per table/figure of §6.

Quickstart::

    from repro import compile_source, find_reductions

    module = compile_source('''
        double a[100];
        int n;
        double sum(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }
    ''')
    report = find_reductions(module)
    print(report.summary())
"""

import importlib

__version__ = "1.0.0"

#: Public name → the subpackage that defines it.  ``import repro`` is
#: lazy (PEP 562): a name's subpackage is imported on first access, so
#: a caller — or a CLI verb — loads only the layers it uses.
_EXPORTS = {
    "compile_source": "frontend",
    "find_reductions": "idioms",
    "find_reductions_in_function": "idioms",
    "find_extended_reductions": "idioms",
    "find_for_loops": "idioms",
    "DetectionReport": "idioms",
    "ScalarReduction": "idioms",
    "HistogramReduction": "idioms",
    "ReductionOp": "idioms",
    "detect_corpus": "pipeline",
    "Interpreter": "runtime",
    "Memory": "runtime",
    "MachineModel": "runtime",
    "ParallelExecutor": "runtime",
    "ParallelPlan": "transform",
    "TransformFailure": "transform",
    "OutlinedTask": "transform",
    "plan_all": "transform",
    "outline_loop": "transform",
}

_SUBPACKAGES = frozenset({
    "analysis", "baselines", "constraints", "evaluation", "frontend",
    "idioms", "ir", "passes", "pipeline", "runtime", "transform",
    "workloads",
})

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    owner = _EXPORTS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBPACKAGES})
