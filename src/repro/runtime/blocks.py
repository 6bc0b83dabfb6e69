"""Compiles one IR basic block to one Python function.

:class:`~repro.runtime.interpreter.Interpreter` calls
:class:`BlockCompiler` the first time it enters a block and caches the
result for its own lifetime.  The generated function runs the block with
the same observable effects as walking its instructions one by one:
results, printed output, memory contents and faults (see
``docs/runtime.md``).
"""

from __future__ import annotations

from ..ir.block import BasicBlock
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
)
from ..ir.types import FloatType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
    Value,
)
from .interpreter import _INTRINSICS, InterpreterError, _fail
from .memory import Buffer, Memory, Pointer, out_of_bounds


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _c_rem(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


def _bad_edge(block: BasicBlock, previous: BasicBlock | None):
    origin = "function entry" if previous is None else f"%{previous.name}"
    raise InterpreterError(
        f"block %{block.name} entered from {origin}, which is not an "
        f"incoming block of its phis"
    )


#: Python source of each binary opcode and comparison predicate.
_OPERATORS = {
    "add": "{} + {}",
    "sub": "{} - {}",
    "mul": "{} * {}",
    "sdiv": "_c_div({}, {})",
    "srem": "_c_rem({}, {})",
    "and": "{} & {}",
    "or": "{} | {}",
    "xor": "{} ^ {}",
    "shl": "{} << {}",
    "ashr": "{} >> {}",
    "fadd": "{} + {}",
    "fsub": "{} - {}",
    "fmul": "{} * {}",
    "fdiv": "{} / {}",
    "eq": "{} == {}",
    "ne": "{} != {}",
    "slt": "{} < {}",
    "sle": "{} <= {}",
    "sgt": "{} > {}",
    "sge": "{} >= {}",
    "oeq": "{} == {}",
    "one": "{} != {}",
    "olt": "{} < {}",
    "ole": "{} <= {}",
    "ogt": "{} > {}",
    "oge": "{} >= {}",
}

_CASTS = {
    "sitofp": "_float",
    "fptosi": "_int",
    "zext": "_int",
    "sext": "_int",
    "trunc": "_int",
    "fpext": "_float",
    "fptrunc": "_float",
}


class BlockCompiler:
    """Emits and compiles the Python function of one basic block.

    The function takes ``(interp, frame, previous)``.  It moves the
    block's PHIs as one parallel assignment for the edge from
    ``previous``, runs the remaining instructions as straight-line code,
    and returns the successor block, or the return value wrapped in a
    1-tuple.  The interpreter is an argument, not a bound name, so
    compiled blocks hold no reference cycle and are freed with their
    interpreter.

    Results live in Python locals.  A result is also stored in
    ``frame`` (keyed by ``id(value)``, as
    :meth:`~repro.runtime.interpreter.Interpreter._value` reads it) unless only later instructions of its own block use it,
    so every value a PHI, another block or a loop handler can read is
    there.  An address used only by loads and stores of its block is
    never boxed into a :class:`Pointer`.

    Only ``repr()`` of Python ints and strs and names bound in the
    function's namespace are spliced into the source; everything else
    the IR supplies (floats, blocks, callees, types, buffers) is bound
    as a name.  Each source line is tagged with the opcode or intrinsic
    it executes (``sites``) so a Python fault can be reported against
    the IR, and every value read from ``frame`` is recorded (``reads``)
    so a missing key can be reported as a use of an undefined value.
    """

    def __init__(self, memory: Memory, block: BasicBlock):
        self.memory = memory
        self.block = block
        self.namespace = {
            "__builtins__": {},
            "_Pointer": Pointer,
            "_Buffer": Buffer,
            "_len": len,
            "_int": int,
            "_float": float,
            "_c_div": _c_div,
            "_c_rem": _c_rem,
            "_oob": out_of_bounds,
            "_fail": _fail,
            "_bad_edge": _bad_edge,
            "_block": block,
        }
        self.lines: list[str] = ["def _block_code(interp, frame, previous):"]
        self.sites: list[str] = ["block"]
        self.site = "block"
        #: id(value) -> the local variable holding it in this block.
        self.locals: dict[int, str] = {}
        self.reads: dict[int, Value] = {}
        #: id(gep) -> (buffer, offset) locals of an address never boxed
        #: into a Pointer.
        self.addresses: dict[int, tuple[str, str]] = {}
        self.names = 0
        self.positions = {
            id(instruction): position
            for position, instruction in enumerate(block.instructions)
        }

    def compile(self):
        """Emit, compile and return the block's function."""
        phis = self.block.phis()
        if phis:
            self.phis(phis)
        for instruction in self.block.instructions[len(phis):]:
            emitter = _EMITTERS.get(type(instruction))
            self.site = instruction.opcode
            if emitter is None:
                self.emit(_call("_fail", f"cannot execute {instruction!r}"))
                return self.finish()
            emitter(self, instruction)
            if instruction.is_terminator():
                return self.finish()
        self.site = "block"
        self.emit(_call(
            "_fail",
            f"block {self.block.name} fell through without terminator",
        ))
        return self.finish()

    def finish(self):
        source = "\n".join(self.lines) + "\n"
        exec(compile(source, "<repro block>", "exec"), self.namespace)
        # Popped, so the function's globals do not refer back to it: the
        # compiled block, and the buffers it binds, die with the
        # interpreter instead of waiting for the cycle collector.
        code = self.namespace.pop("_block_code")
        code.sites = self.sites
        code.reads = self.reads
        return code

    # -- emission helpers --------------------------------------------------

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)
        self.sites.append(self.site)

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def bind(self, obj) -> str:
        """A namespace name for ``obj`` (reused for the same object)."""
        for name, bound in self.namespace.items():
            if bound is obj and name.startswith("_k"):
                return name
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def buffer(self, variable: GlobalVariable) -> str:
        return self.bind(self.memory.buffers[variable.name])

    def operand(self, value: Value, lazy: bool = False) -> str:
        """A Python expression for ``value`` at this point of the block.

        A value defined in another block is read from ``frame`` into a
        local on first use, so a missing one fails where the walker
        failed; ``lazy`` reads it inline instead (select arms, PHIs).
        """
        key = id(value)
        name = self.locals.get(key)
        if name is not None:
            return name
        if isinstance(value, ConstantInt):
            return _literal(value.value)
        if isinstance(value, ConstantFloat):
            return self.bind(value.value)
        if isinstance(value, UndefValue):
            if isinstance(value.type, FloatType):
                return self.bind(0.0)
            return "0"
        if isinstance(value, GlobalVariable):
            return f"_Pointer({self.buffer(value)}, 0)"
        self.reads[key] = value
        read = f"frame[{_literal(key)}]"
        if lazy:
            return read
        name = self.fresh()
        self.emit(f"{name} = {read}")
        self.locals[key] = name
        return name

    def define(self, instruction, expression: str) -> None:
        """Store ``instruction``'s result in a local, and in the frame
        unless only later instructions of this block use it."""
        name = self.fresh()
        if self.block_local(instruction):
            self.emit(f"{name} = {expression}")
        else:
            key = _literal(id(instruction))
            self.emit(f"frame[{key}] = {name} = {expression}")
        self.locals[id(instruction)] = name

    def only_addressed(self, instruction) -> bool:
        """True if ``instruction`` is block-local and only used as the
        address of loads and stores."""
        for use in instruction.uses:
            if not (isinstance(use.user, LoadInst)
                    or isinstance(use.user, StoreInst) and use.index == 1):
                return False
        return self.block_local(instruction)

    def block_local(self, instruction) -> bool:
        """True if every use of ``instruction`` follows it in this block
        (a PHI of the block precedes it, so it reads from the frame)."""
        position = self.positions[id(instruction)]
        for user in instruction.users():
            if user.parent is not self.block:
                return False
            if self.positions[id(user)] <= position:
                return False
        return True

    def address(self, pointer: Value) -> tuple[str, str]:
        """(buffer, offset) expressions of a pointer operand."""
        address = self.addresses.get(id(pointer))
        if address is None and isinstance(pointer, GlobalVariable):
            address = (self.buffer(pointer), "0")
        if address is None:
            name = self.operand(pointer)
            self.emit(f"_o = {name}.offset")
            address = (f"{name}.buffer", "_o")
        return address

    def element(self, kind: str, address: tuple[str, str]) -> str:
        """Bounds-check ``address``; returns its list element."""
        buffer, offset = address
        self.emit(f"_d = {buffer}.data")
        self.emit(
            f"if not 0 <= {offset} < _len(_d): "
            f"raise _oob({kind!r}, _Pointer({buffer}, {offset}))"
        )
        return f"_d[{offset}]"

    # -- instructions ------------------------------------------------------

    def phis(self, phis: list[PhiInst]) -> None:
        self.site = "phi"
        edges: list[BasicBlock] = []
        for phi in phis:
            for _, block in phi.incoming:
                if not any(block is edge for edge in edges):
                    edges.append(block)
        names = [self.fresh() for _ in phis]
        keyword = "if"
        for edge in edges:
            values = []
            for phi in phis:
                incoming = [v for v, b in phi.incoming if b is edge]
                if not incoming:
                    break
                values.append(self.operand(incoming[0], lazy=True))
            else:
                self.emit(f"{keyword} previous is {self.bind(edge)}:")
                self.emit(f"{', '.join(names)}, = {', '.join(values)},", 2)
                keyword = "elif"
        if keyword == "if":
            self.emit("_bad_edge(_block, previous)")
        else:
            self.emit("else:")
            self.emit("_bad_edge(_block, previous)", 2)
        for phi, name in zip(phis, names):
            self.emit(f"frame[{_literal(id(phi))}] = {name}")
            self.locals[id(phi)] = name

    def binary(self, instruction) -> None:
        template = _OPERATORS.get(
            getattr(instruction, "predicate", instruction.opcode)
        )
        if template is None:
            self.emit(_call("_fail", f"cannot execute {instruction!r}"))
            return
        lhs = self.operand(instruction.lhs)
        rhs = self.operand(instruction.rhs)
        self.define(instruction, template.format(lhs, rhs))

    def cast(self, instruction: CastInst) -> None:
        value = self.operand(instruction.value)
        function = _CASTS.get(instruction.opcode)
        if function is None:
            self.emit(_call("_fail", f"unknown cast {instruction.opcode}"))
            return
        self.define(instruction, f"{function}({value})")

    def load(self, instruction: LoadInst) -> None:
        address = self.address(instruction.pointer)
        self.define(instruction, self.element("load", address))

    def store(self, instruction: StoreInst) -> None:
        address = self.address(instruction.pointer)
        value = self.operand(instruction.value)
        self.emit(f"{self.element('store', address)} = {value}")

    def gep(self, instruction: GEPInst) -> None:
        base = instruction.base
        if isinstance(base, GlobalVariable):
            buffer, offset = self.buffer(base), "0"
        else:
            pointer = self.operand(base)
            buffer, offset = f"{pointer}.buffer", f"{pointer}.offset"
        index = self.operand(instruction.index)
        if not self.only_addressed(instruction):
            self.define(instruction, f"_Pointer({buffer}, {offset} + {index})")
            return
        # Only loads and stores of this block use the address: keep its
        # buffer and offset in locals instead of building a Pointer.
        name = self.fresh()
        if not isinstance(base, GlobalVariable):
            self.emit(f"{name}b = {buffer}")
            buffer = f"{name}b"
        self.emit(f"{name} = {offset} + {index}")
        self.addresses[id(instruction)] = (buffer, name)

    def call(self, instruction: CallInst) -> None:
        callee = instruction.callee
        args = [self.operand(a) for a in instruction.args]
        if not callee.is_declaration:
            self.define(
                instruction,
                f"interp._run({self.bind(callee)}, [{', '.join(args)}])",
            )
            return
        self.site = callee.name
        self.emit("interp.instructions_executed += 1")
        entry = _INTRINSICS.get(callee.name)
        if entry is None:
            self.emit(_call("_fail", f"unknown intrinsic {callee.name}"))
            return
        function, stateful = entry
        if stateful:
            args.insert(0, "interp")
        self.define(instruction, f"{self.bind(function)}({', '.join(args)})")

    def select(self, instruction: SelectInst) -> None:
        condition = self.operand(instruction.condition)
        if_true = self.operand(instruction.if_true, lazy=True)
        if_false = self.operand(instruction.if_false, lazy=True)
        self.define(instruction, f"{if_true} if {condition} else {if_false}")

    def alloca(self, instruction: AllocaInst) -> None:
        element_type = self.bind(instruction.allocated_type)
        count = _literal(instruction.count)
        name = _literal(instruction.name or "alloca")
        self.define(
            instruction,
            f"_Pointer(_Buffer({element_type}, {count}, {name}), 0)",
        )

    def phi_in_body(self, instruction: PhiInst) -> None:
        self.emit(_call("_fail", "phi outside block head"))

    def branch(self, instruction: BranchInst) -> None:
        targets = [self.bind(t) for t in instruction.targets()]
        if instruction.is_conditional:
            condition = self.operand(instruction.condition)
            self.emit(f"return {targets[0]} if {condition} else {targets[1]}")
        else:
            self.emit(f"return {targets[0]}")

    def ret(self, instruction: ReturnInst) -> None:
        value = instruction.return_value
        result = "None" if value is None else self.operand(value)
        self.emit(f"return ({result},)")


_EMITTERS = {
    BinaryInst: BlockCompiler.binary,
    ICmpInst: BlockCompiler.binary,
    FCmpInst: BlockCompiler.binary,
    CastInst: BlockCompiler.cast,
    LoadInst: BlockCompiler.load,
    StoreInst: BlockCompiler.store,
    GEPInst: BlockCompiler.gep,
    CallInst: BlockCompiler.call,
    SelectInst: BlockCompiler.select,
    AllocaInst: BlockCompiler.alloca,
    PhiInst: BlockCompiler.phi_in_body,
    BranchInst: BlockCompiler.branch,
    ReturnInst: BlockCompiler.ret,
}


def _literal(value) -> str:
    """Source text of a Python int or str (the only spliced literals)."""
    if type(value) not in (int, str):
        raise TypeError(f"cannot splice {type(value).__name__} into source")
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _call(helper: str, message: str) -> str:
    return f"{helper}({_literal(message)})"
