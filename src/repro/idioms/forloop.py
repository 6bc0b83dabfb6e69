"""The record of one solved for-loop tuple (Fig. 5 of the paper).

A for loop is a 11-tuple of IR values (we fold the paper's separate
``loop_begin``/``loop_jump`` labels into one ``header`` block, since
after mem2reg the iterator PHI, the exit test and the conditional
branch all live in the same block):

    (entry, header, body, latch, exit,
     test, iterator, next_iter, iter_begin, iter_step, iter_end)

The specification itself is the shipped ``specs/forloop.icsl``, served
by the :class:`~repro.idioms.registry.IdiomRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loops import Loop
from ..constraints import Assignment, SolverContext
from ..ir.block import BasicBlock
from ..ir.instructions import PhiInst
from ..ir.values import Value


@dataclass
class ForLoopMatch:
    """A solved for-loop tuple, with the :class:`Loop` it corresponds to."""

    header: BasicBlock
    body: BasicBlock
    latch: BasicBlock
    entry: BasicBlock
    exit: BasicBlock
    iterator: PhiInst
    next_iter: Value
    iter_begin: Value
    iter_step: Value
    iter_end: Value
    test: Value
    loop: Loop

    @classmethod
    def from_assignment(
        cls, ctx: SolverContext, assignment: Assignment
    ) -> "ForLoopMatch":
        """Build a match record from a solver assignment."""
        header = assignment["header"]
        loop = ctx.loop_info.loop_with_header(header)
        assert loop is not None
        return cls(
            header=header,
            body=assignment["body"],
            latch=assignment["latch"],
            entry=assignment["entry"],
            exit=assignment["exit"],
            iterator=assignment["iterator"],
            next_iter=assignment["next_iter"],
            iter_begin=assignment["iter_begin"],
            iter_step=assignment["iter_step"],
            iter_end=assignment["iter_end"],
            test=assignment["test"],
            loop=loop,
        )
