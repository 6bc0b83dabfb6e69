"""Differential tests: the block-compiling interpreter against the oracle.

``reference_interpreter.Interpreter`` is the tree walker the block
compiler replaced.  Both must agree on every observable of a run:
the return value, printed output, final memory, the total instruction
count and the full per-block count dict — and, under the parallel
executor, on the per-shard costs and the simulated time.  The oracle is
too slow for IS and tpacf, so those two are pinned to counters recorded
with the tree walker instead.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.runtime.parallel as parallel
from reference_interpreter import Interpreter as ReferenceInterpreter
from repro.frontend import compile_source, lower_source
from repro.idioms import find_reductions
from repro.ir.parser import parse_module
from repro.runtime import (
    Interpreter,
    InterpreterError,
    MachineModel,
    Memory,
    MemoryError_,
    ParallelExecutor,
)
from repro.transform import outline_loop, plan_all
from repro.workloads import program

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "frontend"))
from test_pipeline_property import programs  # noqa: E402

_MACHINE = MachineModel(cores=64)


def _outlined(name):
    """``name``'s module with every planned loop outlined, and the tasks."""
    module = program(name).fresh_module()
    tasks = []
    for function_reductions in find_reductions(module).functions:
        plans, _ = plan_all(module, function_reductions)
        tasks.extend(outline_loop(module, plan) for plan in plans)
    return module, tasks


def _recording(interpreter_class, created):
    class Recording(interpreter_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    return Recording


def _observe(module, tasks, interpreter_class, monkeypatch):
    """Sequential and parallel observables of one run of ``module``."""
    created = []
    monkeypatch.setattr(
        parallel, "Interpreter", _recording(interpreter_class, created)
    )
    value, memory, interp = parallel.run_sequential(module)
    observed = {
        "return": value,
        "output": interp.output,
        "memory": memory.snapshot(),
        "instructions": interp.instructions_executed,
        "block_counts": interp.block_counts,
    }
    if tasks:
        result = ParallelExecutor(module, tasks, threads=64).run()
        parallel_interp = created[-1]
        observed.update({
            "par_return": result.return_value,
            "par_output": result.output,
            "par_memory": result.memory.snapshot(),
            "par_instructions": parallel_interp.instructions_executed,
            "par_block_counts": parallel_interp.block_counts,
            "sequential_cost": result.sequential_cost,
            "shard_costs": [r.shard_costs for r in result.regions],
            "simulated_time": result.simulated_time(_MACHINE),
        })
    return observed


def _outcome(module, interpreter_class, args, entry="f"):
    """Observables of one call; a runtime fault is its type and message."""
    interp = interpreter_class(
        module, Memory(module), max_instructions=500_000
    )
    try:
        value = interp.call(module.get_function(entry), list(args))
    except (InterpreterError, MemoryError_) as error:
        value = (type(error).__name__, str(error))
    return {
        "return": value,
        "output": interp.output,
        "memory": interp.memory.snapshot(),
        "instructions": interp.instructions_executed,
        "block_counts": interp.block_counts,
    }


@pytest.mark.parametrize("name", ["EP", "histo", "kmeans"])
def test_exploitation_matches_the_tree_walker(name, monkeypatch):
    module, tasks = _outlined(name)
    assert tasks
    compiled = _observe(module, tasks, Interpreter, monkeypatch)
    reference = _observe(module, tasks, ReferenceInterpreter, monkeypatch)
    assert compiled.keys() == reference.keys()
    for field in compiled:
        assert compiled[field] == reference[field], field


def _digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Counters of the tree walker on the two Figure 15 programs it is too
#: slow to run here.  Block counts are keyed by "function/block index";
#: large fields are the first 16 hex digits of the sha256 of their
#: sorted JSON.
_GOLDEN = {
    "IS": {
        "instructions": 1638211,
        "block_counts": "68c388884fa327c4",
        "output": "7170d1c270e83f3c",
        "memory": "ba17318694ab21b5",
        "par_output": "7170d1c270e83f3c",
        "par_memory": "ba17318694ab21b5",
        "sequential_cost": 196395,
        "shard_costs": "b0ff44481d69c542",
        "simulated_time": 573011.0,
    },
    "tpacf": {
        "instructions": 13319446,
        "block_counts": "43a94e5d44179cbe",
        "output": "c8d9625e1c949773",
        "memory": "497e561bd2cd4cdb",
        "par_output": "c8d9625e1c949773",
        "par_memory": "497e561bd2cd4cdb",
        "sequential_cost": 212734,
        "shard_costs": "9f91d7a2fdeb3746",
        "simulated_time": 524334.0,
    },
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_exploitation_matches_pinned_counters(name, monkeypatch):
    module, tasks = _outlined(name)
    observed = _observe(module, tasks, Interpreter, monkeypatch)
    keys = {
        id(block): f"{function.name}/{index}"
        for function in module.defined_functions()
        for index, block in enumerate(function.blocks)
    }
    counts = {keys[k]: v for k, v in observed["block_counts"].items()}
    assert observed["return"] == observed["par_return"] == 0
    assert {
        "instructions": observed["instructions"],
        "block_counts": _digest(counts),
        "output": _digest(observed["output"]),
        "memory": _digest(observed["memory"]),
        "par_output": _digest(observed["par_output"]),
        "par_memory": _digest(observed["par_memory"]),
        "sequential_cost": observed["sequential_cost"],
        "shard_costs": _digest(observed["shard_costs"]),
        "simulated_time": observed["simulated_time"],
    } == _GOLDEN[name]


#: Every opcode and predicate the frontend emits, with negative
#: operands (C division), PHI rotations (parallel PHI moves), local
#: arrays, and every intrinsic.
_EVERY_OPCODE = """
double g[4]; int hist[5]; int n;

int iops(int a, int b) {
    int r = a + b;
    r = r * 7 + (a - b);
    r = r * 7 + a * b;
    if (b != 0) r = r * 7 + a / b + a % b;
    r = r * 7 + (a & b) + (a | b) + (a ^ b);
    if (b >= 0 && b < 8) r = r * 7 + (a << b) + (a >> b);
    r = r * 7 + (a < b) + 2 * (a <= b) + 4 * (a > b) + 8 * (a >= b)
        + 16 * (a == b) + 32 * (a != b);
    r = r + (a > b ? a : b) - (a < b ? a : b);
    r = r + abs(a) + min(a, b) + max(a, b);
    return r;
}

double fops(double x, double y) {
    double r = x + y;
    r = r * 3.0 + (x - y) + x * y;
    if (y != 0.0) r = r + x / y + fmod(x, y);
    r = r + (x < y) + 2 * (x <= y) + 4 * (x > y) + 8 * (x >= y)
        + 16 * (x == y) + 32 * (x != y);
    r = r + fabs(x) + fmin(x, y) + fmax(x, y) + floor(x) + ceil(y);
    r = r + sin(x) + cos(y) + pow(fabs(x), 0.5);
    if (x > 0.0) r = r + sqrt(x) + log(x);
    r = r + exp(y / 8.0);
    int t = x;
    return r + t;
}

int rotate(int k) {
    int a = 1; int b = 2; int c = 3;
    for (int i = 0; i < k; i++) { int t = a; a = b; b = c; c = t; }
    return a * 100 + b * 10 + c;
}

double locals(int k) {
    double buf[6];
    for (int i = 0; i < 6; i++) buf[i] = i * 0.5 + k;
    double s = 0.0;
    for (int i = 5; i >= 0; i = i - 2) s = s + buf[i];
    return s;
}

int main(void) {
    n = 5;
    srand(7);
    for (int i = 0; i < 4; i++) g[i] = rand() % 100 * 0.25 - 3.0;
    for (int i = 0; i < 20; i++) hist[rand() % n]++;
    int acc = 0;
    for (int a = -9; a <= 9; a = a + 3)
        for (int b = -4; b <= 4; b++) acc = acc * 3 + iops(a, b) % 1000;
    print_int(acc);
    for (int i = 0; i < 4; i++)
        for (int j = 0; j < 4; j++) print_double(fops(g[i], g[j] + 0.5));
    for (int k = 0; k < 5; k++) print_int(rotate(k));
    print_double(locals(3));
    print_int(clock());
    print_int(clock());
    return hist[0] + hist[4];
}
"""

#: A one-block loop: its PHIs swap and read a value of their own block.
_SELF_LOOP = """
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %next = add i64 %i, 1
  %cmp = icmp slt i64 %next, %n
  br i1 %cmp, label %loop, label %exit
exit:
  %r = mul i64 %a, 10
  %s = add i64 %r, %b
  ret i64 %s
}
"""


#: Addresses into the middle of a buffer: a loop over a pointer whose
#: offset is not zero, and an out-of-bounds load through one.
_OFFSET_POINTERS = """
@g = global [10 x double]

define double @sum(double* %p, i64 %n) {
entry:
  br label %for.cond
for.cond:
  %i = phi i64 [ 0, %entry ], [ %t, %for.body ]
  %s = phi double [ 0.0, %entry ], [ %f, %for.body ]
  %cmp = icmp slt i64 %i, %n
  br i1 %cmp, label %for.body, label %for.end
for.body:
  %arrayidx = gep double* %p, i64 %i
  %ld = load double* %arrayidx
  %f = fadd double %s, %ld
  %t = add i64 %i, 1
  br label %for.cond
for.end:
  ret double %s
}

define double @f() {
entry:
  br label %for.cond
for.cond:
  %i = phi i64 [ 0, %entry ], [ %t, %for.body ]
  %cmp = icmp slt i64 %i, 10
  br i1 %cmp, label %for.body, label %for.end
for.body:
  %arrayidx = gep double* @g, i64 %i
  %conv = sitofp i64 %i to double
  store double %conv, double* %arrayidx
  %t = add i64 %i, 1
  br label %for.cond
for.end:
  %base = gep double* @g, i64 3
  %sum = call double @sum(double* %base, i64 4)
  ret double %sum
}

define double @oob() {
entry:
  %base = gep double* @g, i64 8
  %sum = call double @sum(double* %base, i64 4)
  ret double %sum
}
"""


@pytest.mark.parametrize(
    "module, entry, args",
    [
        (lambda: compile_source(_EVERY_OPCODE), "main", []),
        (lambda: lower_source(_EVERY_OPCODE), "main", []),
        (lambda: parse_module(_SELF_LOOP), "f", [6]),
        (lambda: parse_module(_SELF_LOOP), "f", [7]),
        (lambda: parse_module(_OFFSET_POINTERS), "f", []),
        (lambda: parse_module(_OFFSET_POINTERS), "oob", []),
    ],
    ids=["every-opcode", "every-opcode-allocas", "self-loop-even",
         "self-loop-odd", "offset-pointers", "offset-out-of-bounds"],
)
def test_handwritten_programs_match_the_tree_walker(module, entry, args):
    module = module()
    assert _outcome(module, Interpreter, args, entry) == _outcome(
        module, ReferenceInterpreter, args, entry
    )


@seed(20170204)
@given(source=programs(), x=st.integers(-5, 5), y=st.integers(-5, 5))
@settings(max_examples=40, deadline=None, database=None)
def test_generated_programs_match_the_tree_walker(source, x, y):
    # Both the alloca form (loads/stores) and the optimized SSA form
    # (PHIs, selects) of every generated program.
    for module in (lower_source(source), compile_source(source)):
        assert _outcome(module, Interpreter, (x, y)) == _outcome(
            module, ReferenceInterpreter, (x, y)
        )
