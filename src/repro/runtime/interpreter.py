"""SSA IR interpreter with dynamic instruction accounting.

Executes modules produced by the frontend.  Besides producing results
(used to validate transformations: privatized parallel execution must
match sequential execution bit-for-bit for integer data), it counts
dynamically executed instructions per basic block — the measure behind
the runtime-coverage experiment (Figures 12–14) and the simulated
machine times of Figure 15.

Each basic block is compiled to one Python function the first time an
:class:`Interpreter` enters it (see :mod:`repro.runtime.blocks`); later
visits reuse it.  The dispatch loop in :meth:`Interpreter._run` keeps the
per-block contract the profiler and the parallel executor rely on:
loop overrides are consulted before a block runs, and the instruction
budget and per-block counters are updated once per visit.
"""

from __future__ import annotations

import math

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.module import Module
from ..ir.types import FloatType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
    Value,
)
from .memory import Memory


class InterpreterError(Exception):
    """Raised on runtime errors (OOB, budget exhausted, missing main)."""


def _fail(message: str):
    raise InterpreterError(message)


def _rand(interp: "Interpreter") -> int:
    interp.seed = (interp.seed * 1103515245 + 12345) & 0x7FFFFFFF
    return interp.seed


def _srand(interp: "Interpreter", seed: int) -> None:
    interp.seed = seed & 0x7FFFFFFF


def _clock(interp: "Interpreter") -> int:
    interp._clock += 1
    return interp._clock


def _print_int(interp: "Interpreter", value) -> None:
    interp.output.append(str(value))


def _print_double(interp: "Interpreter", value) -> None:
    interp.output.append(f"{value:.6f}")


#: Intrinsic name -> (callable, whether it takes the interpreter first).
_INTRINSICS = {
    "sqrt": (math.sqrt, False),
    "log": (math.log, False),
    "exp": (math.exp, False),
    "fabs": (abs, False),
    "sin": (math.sin, False),
    "cos": (math.cos, False),
    "floor": (math.floor, False),
    "ceil": (math.ceil, False),
    "pow": (math.pow, False),
    "fmin": (min, False),
    "fmax": (max, False),
    "fmod": (math.fmod, False),
    "abs": (abs, False),
    "min": (min, False),
    "max": (max, False),
    "rand": (_rand, True),
    "srand": (_srand, True),
    "clock": (_clock, True),
    "print_int": (_print_int, True),
    "print_double": (_print_double, True),
}


class Interpreter:
    """Executes IR functions against a :class:`Memory` instance.

    Parameters
    ----------
    module:
        The module to execute.
    memory:
        Optional pre-built memory (lets callers share or snapshot state).
    seed:
        Seed of the deterministic ``rand()`` intrinsic.
    max_instructions:
        Execution budget; exceeded budgets raise :class:`InterpreterError`.

    Compiled blocks are cached for the interpreter's lifetime, so the
    IR must not be mutated while an interpreter is running it.
    """

    def __init__(
        self,
        module: Module,
        memory: Memory | None = None,
        seed: int = 12345,
        max_instructions: int = 200_000_000,
    ):
        self.module = module
        self.memory = memory or Memory(module)
        self.seed = seed & 0x7FFFFFFF
        self.max_instructions = max_instructions
        self.instructions_executed = 0
        #: Dynamic instruction count per basic block (by id).
        self.block_counts: dict[int, int] = {}
        #: Lines printed through the print intrinsics.
        self.output: list[str] = []
        self._clock = 0
        #: id(header block) -> handler; lets the parallel executor
        #: intercept a loop and run it as privatized shards.  The
        #: handler receives (interpreter, frame, header) and returns the
        #: block execution continues from.
        self.loop_overrides: dict[int, object] = {}
        #: id(block) -> its compiled Python function.
        self._compiled: dict[int, object] = {}

    # -- public API --------------------------------------------------------

    def run_main(self):
        """Execute ``main()`` and return its value."""
        if "main" not in self.module.functions:
            raise InterpreterError("module has no main function")
        return self.call(self.module.get_function("main"), [])

    def call(self, function: Function | str, args: list):
        """Call a function (by object or name) with Python-level args."""
        if isinstance(function, str):
            function = self.module.get_function(function)
        if function.is_declaration:
            self.instructions_executed += 1
            return self._intrinsic(function.name)(*args)
        return self._run(function, args)

    def instructions_in_blocks(self, blocks) -> int:
        """Dynamic instructions attributed to the given blocks."""
        return sum(self.block_counts.get(id(b), 0) for b in blocks)

    # -- execution ----------------------------------------------------------

    def _run(self, function: Function, args: list):
        frame: dict[int, object] = {}
        for argument, value in zip(function.args, args):
            frame[id(argument)] = value
        block = function.entry
        previous: BasicBlock | None = None
        overrides = self.loop_overrides
        counts = self.block_counts
        compiled = self._compiled
        while True:
            key = id(block)
            handler = overrides.get(key)
            if handler is not None:
                previous, block = block, handler(self, frame, block)
                continue
            count = len(block.instructions)
            self.instructions_executed += count
            counts[key] = counts.get(key, 0) + count
            if self.instructions_executed > self.max_instructions:
                raise InterpreterError("instruction budget exhausted")
            code = compiled.get(key)
            if code is None:
                code = compiled[key] = self._compile(block)
            try:
                target = code(self, frame, previous)
            except KeyError as error:
                value = code.reads.get(error.args[0]) if error.args else None
                if value is None:
                    raise
                raise InterpreterError(
                    f"use of undefined value {value!r}"
                ) from None
            except (ArithmeticError, ValueError) as error:
                raise InterpreterError(
                    f"{_fault_site(code, error)} in {function.name}: {error}"
                ) from error
            if target.__class__ is tuple:
                return target[0]
            previous, block = block, target

    def _compile(self, block: BasicBlock):
        # Imported here: detection never runs a program, so processes
        # that only detect do not pay for loading the block compiler.
        from .blocks import BlockCompiler

        return BlockCompiler(self.memory, block).compile()

    def _value(self, value: Value, frame):
        """The runtime value of ``value`` in ``frame`` (for loop handlers)."""
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.memory.pointer_to(value)
        if isinstance(value, UndefValue):
            return 0.0 if isinstance(value.type, FloatType) else 0
        key = id(value)
        if key in frame:
            return frame[key]
        raise InterpreterError(f"use of undefined value {value!r}")

    def _intrinsic(self, name: str):
        """The callable behind intrinsic ``name``, bound to this run."""
        entry = _INTRINSICS.get(name)
        if entry is None:
            return lambda *args: _fail(f"unknown intrinsic {name}")
        function, stateful = entry
        if stateful:
            return lambda *args: function(self, *args)
        return function


def _fault_site(code, error: BaseException) -> str:
    """The opcode or intrinsic whose line in ``code`` raised ``error``."""
    site = "block"
    traceback = error.__traceback__
    while traceback is not None:
        if traceback.tb_frame.f_code is code.__code__:
            site = code.sites[traceback.tb_lineno - 1]
        traceback = traceback.tb_next
    return site
