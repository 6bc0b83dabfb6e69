"""Tests for the IR interpreter."""

import math

import pytest

from repro.frontend import compile_source
from repro.ir.parser import parse_module
from repro.runtime import Interpreter, InterpreterError, Memory


def _run(source, fn="f", args=(), globals_=None, seed=12345):
    module = compile_source(source)
    memory = Memory(module)
    for name, values in (globals_ or {}).items():
        buffer = memory.buffers[name]
        if isinstance(values, (int, float)):
            buffer.data[0] = values
        else:
            for index, value in enumerate(values):
                buffer.data[index] = value
    interp = Interpreter(module, memory, seed=seed)
    result = interp.call(module.get_function(fn), list(args))
    return result, interp, memory


def test_arithmetic_and_return():
    result, _, _ = _run("int f(int a, int b) { return a * b + 7; }",
                        args=[6, 7])
    assert result == 49


def test_c_style_integer_division():
    result, _, _ = _run("int f(int a, int b) { return a / b; }",
                        args=[-7, 2])
    assert result == -3  # truncation toward zero, not floor
    result, _, _ = _run("int f(int a, int b) { return a % b; }",
                        args=[-7, 2])
    assert result == -1


def test_division_by_zero_raises():
    with pytest.raises(InterpreterError, match="division by zero"):
        _run("int f(int a) { return 1 / a; }", args=[0])


def test_loop_sum_and_counters():
    source = """
    double a[8]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + a[i];
        return s;
    }
    """
    result, interp, _ = _run(
        source, globals_={"a": [1.0] * 8, "n": 5}
    )
    assert result == 5.0
    assert interp.instructions_executed > 0
    assert interp.block_counts


def test_conditionals_and_select():
    result, _, _ = _run(
        "double f(double a, double b) { return a > b ? a : b; }",
        args=[2.5, 9.0],
    )
    assert result == 9.0


def test_global_store_visible_after_call():
    source = """
    double out;
    void f(double x) { out = x * 2.0; }
    """
    _, _, memory = _run(source, args=[21.0])
    assert memory.read_global("out") == 42.0


def test_array_out_of_bounds_caught():
    source = """
    double a[4];
    double f(int i) { return a[i]; }
    """
    with pytest.raises(Exception, match="out of bounds"):
        _run(source, args=[9])


def test_intrinsics():
    result, _, _ = _run(
        "double f(double x) { return sqrt(x) + fabs(0.0 - x) + "
        "fmin(x, 1.0) + pow(x, 2.0); }",
        args=[4.0],
    )
    assert result == 2.0 + 4.0 + 1.0 + 16.0


def test_rand_is_deterministic():
    source = "int f(void) { return rand(); }"
    a, _, _ = _run(source, seed=7)
    b, _, _ = _run(source, seed=7)
    c, _, _ = _run(source, seed=8)
    assert a == b
    assert a != c


def test_print_output_collected():
    source = """
    void f(void) { print_int(3); print_double(1.5); }
    """
    _, interp, _ = _run(source)
    assert interp.output == ["3", "1.500000"]


def test_instruction_budget_enforced():
    source = """
    int n;
    int f(void) {
        int x = 0;
        for (int i = 0; i < n; i++) x = x + 1;
        return x;
    }
    """
    module = compile_source(source)
    memory = Memory(module)
    memory.buffers["n"].data[0] = 10**9
    interp = Interpreter(module, memory, max_instructions=10_000)
    with pytest.raises(InterpreterError, match="budget"):
        interp.call(module.get_function("f"), [])


def test_user_function_calls():
    source = """
    double square(double x) { return x * x; }
    double f(double x) { return square(x) + square(x + 1.0); }
    """
    result, _, _ = _run(source, args=[3.0])
    assert result == 9.0 + 16.0


def test_local_array_alloca():
    source = """
    double f(void) {
        double buf[4];
        for (int i = 0; i < 4; i++) buf[i] = i * 2.0;
        return buf[0] + buf[3];
    }
    """
    result, _, _ = _run(source)
    assert result == 6.0


def test_while_loop_binary_search():
    source = """
    double b[8]; int nb;
    int f(double d) {
        int lo = 0;
        int hi = nb;
        while (lo < hi) {
            int mid = (lo + hi) / 2;
            if (d < b[mid]) hi = mid; else lo = mid + 1;
        }
        return lo;
    }
    """
    result, _, _ = _run(
        source, args=[0.35],
        globals_={"b": [0.125 * (i + 1) for i in range(8)], "nb": 8},
    )
    assert result == 2


def test_run_main_requires_main():
    module = compile_source("int g(void) { return 1; }")
    interp = Interpreter(module)
    with pytest.raises(InterpreterError, match="no main"):
        interp.run_main()


def test_instructions_in_blocks_helper():
    source = """
    double a[8]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + a[i];
        return s;
    }
    """
    module = compile_source(source)
    memory = Memory(module)
    memory.buffers["n"].data[0] = 6
    interp = Interpreter(module, memory)
    interp.call(module.get_function("f"), [])
    fn = module.get_function("f")
    total = interp.instructions_in_blocks(fn.blocks)
    assert total == sum(interp.block_counts.values())


_BAD_EDGE_IR = """
define i64 @f(i64 %a) {
entry:
  br label %join
join:
  %s = phi i64 [ 0, %other ]
  ret i64 %s
other:
  br label %join
}
"""


def _call_parsed(text, args):
    module = parse_module(text)
    return Interpreter(module).call(module.get_function("f"), list(args))


@pytest.mark.parametrize(
    "run, message, cause",
    [
        (lambda: _run("double f(double a) { return 1.0 / a; }",
                      args=[0.0]),
         "^fdiv in f: ", ZeroDivisionError),
        (lambda: _run("int f(int a) { return 1 << a; }", args=[-1]),
         "^shl in f: negative shift count", ValueError),
        (lambda: _run("int f(double a) { return (int)a; }",
                      args=[math.nan]),
         "^fptosi in f: ", ValueError),
        (lambda: _run("double f(double a) { return sqrt(a); }",
                      args=[-1.0]),
         "^sqrt in f: ", ValueError),
        (lambda: _run("double f(double a) { return log(a); }",
                      args=[0.0]),
         "^log in f: ", ValueError),
        (lambda: _run("double f(double a) { return exp(a); }",
                      args=[1e6]),
         "^exp in f: ", OverflowError),
        (lambda: _call_parsed(_BAD_EDGE_IR, [1]),
         "^block %join entered from %entry, which is not an incoming "
         "block of its phis$", None),
        (lambda: _run("int f(int a) { return a + 1; }", args=[]),
         "^use of undefined value <Argument i64 a>$", None),
    ],
    ids=["fdiv", "shl", "fptosi", "sqrt", "log", "exp", "phi-edge",
         "undefined"],
)
def test_runtime_faults_are_interpreter_errors(run, message, cause):
    with pytest.raises(InterpreterError, match=message) as raised:
        run()
    if cause is None:
        assert raised.value.__cause__ is None
    else:
        assert type(raised.value.__cause__) is cause
