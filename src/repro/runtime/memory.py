"""Runtime memory model for the IR interpreter.

Arrays are flat :class:`Buffer` objects; runtime pointers are
(buffer, offset) pairs, so ``gep`` is plain offset arithmetic and
out-of-bounds accesses are caught immediately.
"""

from __future__ import annotations

from ..ir.module import Module
from ..ir.types import FloatType, Type
from ..ir.values import GlobalVariable


class MemoryError_(Exception):
    """Raised on out-of-bounds accesses and type confusion."""


class Buffer:
    """A flat typed allocation."""

    __slots__ = ("data", "element_type", "name")

    def __init__(self, element_type: Type, size: int, name: str = ""):
        zero = 0.0 if isinstance(element_type, FloatType) else 0
        self.data = [zero] * size
        self.element_type = element_type
        self.name = name

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"<Buffer {self.name}[{len(self.data)}] {self.element_type}>"


class Pointer:
    """A typed (buffer, offset) pair — the runtime value of pointers."""

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: Buffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    def displaced(self, delta: int) -> "Pointer":
        """Pointer arithmetic (``gep``)."""
        return Pointer(self.buffer, self.offset + delta)

    def load(self):
        """Read the pointed-to element."""
        if not 0 <= self.offset < len(self.buffer.data):
            raise out_of_bounds("load", self)
        return self.buffer.data[self.offset]

    def store(self, value) -> None:
        """Write the pointed-to element."""
        if not 0 <= self.offset < len(self.buffer.data):
            raise out_of_bounds("store", self)
        self.buffer.data[self.offset] = value

    def __repr__(self) -> str:
        return f"<Pointer {self.buffer.name}+{self.offset}>"


def out_of_bounds(kind: str, pointer: Pointer) -> MemoryError_:
    """The error of a ``kind`` ("load" or "store") access through
    ``pointer`` outside its buffer."""
    return MemoryError_(
        f"{kind} out of bounds: {pointer.buffer.name}[{pointer.offset}] "
        f"(size {len(pointer.buffer.data)})"
    )


class Memory:
    """All global buffers of one module instance."""

    def __init__(self, module: Module):
        self.module = module
        self.buffers: dict[str, Buffer] = {}
        for variable in module.globals.values():
            buffer = Buffer(variable.element_type, variable.size, variable.name)
            if variable.initializer is not None:
                for index, value in enumerate(variable.initializer):
                    buffer.data[index % variable.size] = value
                if len(variable.initializer) == 1 and variable.size == 1:
                    buffer.data[0] = variable.initializer[0]
            self.buffers[variable.name] = buffer

    def pointer_to(self, variable: GlobalVariable) -> Pointer:
        """A pointer to the start of a global's buffer."""
        return Pointer(self.buffers[variable.name], 0)

    def read_global(self, name: str):
        """Convenience: the scalar value (or list) behind a global."""
        buffer = self.buffers[name]
        if len(buffer.data) == 1:
            return buffer.data[0]
        return list(buffer.data)

    def snapshot(self) -> dict[str, list]:
        """Copy of all buffer contents, for correctness comparisons."""
        return {name: list(buf.data) for name, buf in self.buffers.items()}
