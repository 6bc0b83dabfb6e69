"""Tests for parallelization planning and loop outlining (§4)."""

import pytest

from repro.frontend import compile_source
from repro.idioms import find_reductions
from repro.ir import verify_module
from repro.runtime import Interpreter, Memory
from repro.transform import (
    ParallelPlan,
    TransformFailure,
    outline_loop,
    plan_all,
    plan_loop,
)
from repro.transform.plan import identity_value, merge_values
from repro.idioms.reports import ReductionOp


def _plan(source, fn="f"):
    module = compile_source(source)
    report = find_reductions(module)
    reductions = next(
        r for r in report.functions if r.function.name == fn
    )
    plans, failures = plan_all(module, reductions)
    return module, reductions, plans, failures


SUM = """
double a[64]; int n;
double f(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}
"""


def test_simple_sum_planned():
    module, reductions, plans, failures = _plan(SUM)
    assert len(plans) == 1 and not failures
    plan = plans[0]
    assert len(plan.scalars) == 1
    assert not plan.histograms
    assert not plan.dynamic_bounds


def test_histogram_planned_with_scalars():
    source = """
    double q[16]; double x[64]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            int b = (int) (x[i] * 15.0);
            q[b] = q[b] + 1.0;
            s = s + x[i];
        }
        return s;
    }
    """
    module, reductions, plans, failures = _plan(source)
    assert len(plans) == 1
    assert len(plans[0].scalars) == 1
    assert len(plans[0].histograms) == 1


def test_uncovered_store_fails_plan():
    source = """
    double q[16]; double log_[64]; double x[64]; int n;
    void f(void) {
        for (int i = 0; i < n; i++) {
            int b = (int) (x[i] * 15.0);
            q[b] = q[b] + 1.0;
            log_[i] = x[i];
        }
    }
    """
    module, reductions, plans, failures = _plan(source)
    assert not plans
    assert any("store not covered" in f.reason for f in failures)


def test_non_unit_step_fails_plan():
    source = """
    double a[64]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i = i + 2) s = s + a[i];
        return s;
    }
    """
    module, reductions, plans, failures = _plan(source)
    assert not plans
    assert any("non-unit" in f.reason for f in failures)


def test_identity_and_merge_helpers():
    assert identity_value(ReductionOp.ADD, True) == 0.0
    assert identity_value(ReductionOp.MUL, True) == 1.0
    assert identity_value(ReductionOp.MIN, True) == float("inf")
    assert identity_value(ReductionOp.MAX, False) == -(2**62)
    assert merge_values(ReductionOp.ADD, 2, 3) == 5
    assert merge_values(ReductionOp.MUL, 2, 3) == 6
    assert merge_values(ReductionOp.MIN, 2, 3) == 2
    assert merge_values(ReductionOp.MAX, 2, 3) == 3


def _closure_values(task, interp, memory):
    """Evaluate closure values the way the executor would at loop entry
    (here they are always hoisted loads of scalar globals)."""
    from repro.ir import GlobalVariable, LoadInst

    values = []
    for value in task.closure:
        assert isinstance(value, LoadInst)
        assert isinstance(value.pointer, GlobalVariable)
        values.append(memory.pointer_to(value.pointer).load())
    return values


def test_outlined_task_verifies_and_matches_semantics():
    module, reductions, plans, failures = _plan(SUM)
    task = outline_loop(module, plans[0])
    verify_module(module)
    assert task.task.name in module.functions
    # Running the task over the full range must equal the loop's work.
    memory = Memory(module)
    memory.buffers["n"].data[0] = 50
    for i in range(64):
        memory.buffers["a"].data[i] = float(i)
    interp = Interpreter(module, memory)
    sequential = interp.call(module.get_function("f"), [])

    from repro.runtime.memory import Buffer, Pointer

    out = Buffer(plans[0].scalars[0].acc.type, 1, "out")
    out.data[0] = 0.0
    closure = _closure_values(task, interp, memory)
    interp.call(task.task, [0, 50, Pointer(out, 0), *closure])
    assert out.data[0] == sequential


def test_outlined_task_partial_ranges_compose():
    module, reductions, plans, failures = _plan(SUM)
    task = outline_loop(module, plans[0])
    memory = Memory(module)
    memory.buffers["n"].data[0] = 40
    for i in range(64):
        memory.buffers["a"].data[i] = float(i % 7)
    interp = Interpreter(module, memory)
    expected = interp.call(module.get_function("f"), [])

    from repro.runtime.memory import Buffer, Pointer

    total = 0.0
    closure = _closure_values(task, interp, memory)
    for lo, hi in ((0, 13), (13, 29), (29, 40)):
        out = Buffer(plans[0].scalars[0].acc.type, 1, "out")
        out.data[0] = 0.0
        interp.call(task.task, [lo, hi, Pointer(out, 0), *closure])
        total += out.data[0]
    assert total == expected


def test_kmeans_style_failure_reason():
    source = """
    double count[8]; double csum[64]; double feat[512]; int n; int nf;
    void f(void) {
        for (int i = 0; i < n; i++) {
            int best = (int) feat[i * nf];
            for (int j = 0; j < nf; j++) {
                csum[best * nf + j] = csum[best * nf + j]
                    + feat[i * nf + j];
            }
            count[best] = count[best] + 1.0;
        }
    }
    """
    module, reductions, plans, failures = _plan(source)
    assert not plans
    assert any(
        "multiple histogram updates in a nested loop" in f.reason
        for f in failures
    )


#: Programs whose outlined tasks have several closure values (MG,
#: histo, tpacf, kmeans) plus two with few (EP, sad).
_OUTLINE_PROGRAMS = (
    ("MG", "NAS"), ("histo", "Parboil"), ("tpacf", "Parboil"),
    ("kmeans", "Rodinia"), ("EP", "NAS"), ("sad", "Parboil"),
)


@pytest.mark.parametrize("key", _OUTLINE_PROGRAMS,
                         ids=["/".join(k) for k in _OUTLINE_PROGRAMS])
def test_outlined_ir_is_reproducible(key):
    """compile → detect → plan → outline prints one module text, run
    after run: closure parameters are numbered in block order, not in
    the order of an identity-hashed block set."""
    from repro.ir.printer import print_module
    from repro.workloads import program

    texts = set()
    for _ in range(8):
        module = program(*key).fresh_module()
        report = find_reductions(module)
        for reductions in report.functions:
            plans, _ = plan_all(module, reductions)
            for plan in plans:
                outline_loop(module, plan)
        texts.add(print_module(module))
    assert len(texts) == 1
