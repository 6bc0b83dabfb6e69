"""Atomic constraints — the vocabulary of Fig. 5 and Fig. 7.

Each atom checks one structural fact about bound values and, where
possible, *proposes* candidates for unbound labels from bound ones —
e.g. ``CFGEdge`` proposes successors of a bound source block.  Good
proposals are what make the backtracking search near-linear in
practice (§3.3).
"""

from __future__ import annotations

from ..ir.block import BasicBlock
from ..ir.instructions import BranchInst, Instruction, PhiInst
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .core import PARTIAL_VACUOUS, Assignment, Constraint, SolverContext


class CFGEdge(Constraint):
    """Control can flow directly from block ``a`` to block ``b``."""

    def __init__(self, a: str, b: str):
        self.labels = (a, b)

    def check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        a = assignment[self.labels[0]]
        b = assignment[self.labels[1]]
        if not isinstance(a, BasicBlock) or not isinstance(b, BasicBlock):
            return False
        return ctx.cfg.has_edge(a, b)

    def compile_check(self, slot_of):
        sa, sb = slot_of[self.labels[0]], slot_of[self.labels[1]]

        def run(ctx, slots, view):
            a = slots[sa]
            b = slots[sb]
            if not isinstance(a, BasicBlock) or not isinstance(b, BasicBlock):
                return False
            return ctx.cfg.has_edge(a, b)

        return run

    def structural_key(self):
        return ("cfg_edge", self.labels)

    def propose(self, ctx, assignment, label):
        a_label, b_label = self.labels
        if label == b_label and a_label in assignment:
            source = assignment[a_label]
            if isinstance(source, BasicBlock):
                return ctx.cfg.successors.get(source, [])
            return []
        if label == a_label and b_label in assignment:
            target = assignment[b_label]
            if isinstance(target, BasicBlock):
                return ctx.cfg.predecessors.get(target, [])
            return []
        if label in self.labels:
            return ctx.blocks()
        return None

    def propose_implies_partial(self, bound, label):
        # With the other endpoint bound the proposals are exactly the
        # successors/predecessors — every candidate closes the edge.
        a, b = self.labels
        return (label == b and a in bound) or (label == a and b in bound)

    def label_kinds(self):
        return tuple((label, "block") for label in self.labels)

    def proposable_labels(self, bound):
        return frozenset(self.labels)


class EndsInUncondBranch(Constraint):
    """Block ``block`` terminates in ``br target`` — Fig. 5's
    ``x = branch(y)``."""

    def __init__(self, block: str, target: str):
        self.labels = (block, target)

    @staticmethod
    def _target_of(block: Value) -> BasicBlock | None:
        if not isinstance(block, BasicBlock):
            return None
        terminator = block.terminator
        if isinstance(terminator, BranchInst) and not terminator.is_conditional:
            return terminator.targets()[0]
        return None

    def check(self, ctx, assignment):
        target = self._target_of(assignment[self.labels[0]])
        return target is not None and target is assignment[self.labels[1]]

    def compile_check(self, slot_of):
        sb, st = slot_of[self.labels[0]], slot_of[self.labels[1]]
        target_of = self._target_of

        def run(ctx, slots, view):
            target = target_of(slots[sb])
            return target is not None and target is slots[st]

        return run

    def structural_key(self):
        return ("uncond_branch", self.labels)

    def propose(self, ctx, assignment, label):
        block_label, target_label = self.labels
        if label == target_label and block_label in assignment:
            target = self._target_of(assignment[block_label])
            return [] if target is None else [target]
        if label == block_label:
            if target_label in assignment:
                wanted = assignment[target_label]
                return [
                    b for b in ctx.blocks() if self._target_of(b) is wanted
                ]
            return [b for b in ctx.blocks() if self._target_of(b) is not None]
        return None

    def propose_implies_partial(self, bound, label):
        # Either direction proposes only values satisfying the check
        # once the other label is bound (the branch target is unique).
        block, target = self.labels
        return (label == target and block in bound) or (
            label == block and target in bound
        )

    def label_kinds(self):
        return tuple((label, "block") for label in self.labels)

    def proposable_labels(self, bound):
        block, target = self.labels
        proposable = {block}
        if block in bound:
            proposable.add(target)
        return frozenset(proposable)


class EndsInCondBranch(Constraint):
    """Block ends in ``br cond, then, els`` — Fig. 5's
    ``x = branch(y, z, w)``."""

    def __init__(self, block: str, cond: str, then: str, els: str):
        self.labels = (block, cond, then, els)

    @staticmethod
    def _parts(block: Value):
        if not isinstance(block, BasicBlock):
            return None
        terminator = block.terminator
        if isinstance(terminator, BranchInst) and terminator.is_conditional:
            then_block, else_block = terminator.targets()
            return terminator.condition, then_block, else_block
        return None

    def check(self, ctx, assignment):
        parts = self._parts(assignment[self.labels[0]])
        if parts is None:
            return False
        return all(
            parts[i] is assignment[self.labels[i + 1]] for i in range(3)
        )

    def compile_check(self, slot_of):
        sb = slot_of[self.labels[0]]
        s1, s2, s3 = (slot_of[self.labels[i]] for i in (1, 2, 3))
        parts_of = self._parts

        def run(ctx, slots, view):
            parts = parts_of(slots[sb])
            if parts is None:
                return False
            return (
                parts[0] is slots[s1]
                and parts[1] is slots[s2]
                and parts[2] is slots[s3]
            )

        return run

    def structural_key(self):
        return ("cond_branch", self.labels)

    def propose(self, ctx, assignment, label):
        block_label = self.labels[0]
        if label == block_label:
            candidates = [b for b in ctx.blocks() if self._parts(b)]
            for i in range(3):
                bound = assignment.get(self.labels[i + 1])
                if bound is not None:
                    candidates = [
                        b for b in candidates if self._parts(b)[i] is bound
                    ]
            return candidates
        if label in self.labels[1:] and block_label in assignment:
            parts = self._parts(assignment[block_label])
            if parts is None:
                return []
            return [parts[self.labels.index(label) - 1]]
        return None

    def propose_implies_partial(self, bound, label):
        # Block proposals are filtered against every bound part; a
        # proposed part (cond/then/else) is NOT filtered against the
        # other bound parts, so only the block direction is implied.
        return label == self.labels[0]

    def label_kinds(self):
        block, cond, then, els = self.labels
        return (
            (block, "block"), (cond, "value"),
            (then, "block"), (els, "block"),
        )

    def proposable_labels(self, bound):
        proposable = {self.labels[0]}
        if self.labels[0] in bound:
            proposable.update(self.labels[1:])
        return frozenset(proposable)


class Dominates(Constraint):
    """Block ``a`` dominates block ``b`` in the CFG."""

    strict = False
    post = False

    def __init__(self, a: str, b: str):
        self.labels = (a, b)

    def _tree(self, ctx: SolverContext):
        return ctx.postdom if self.post else ctx.dom

    def check(self, ctx, assignment):
        a = assignment[self.labels[0]]
        b = assignment[self.labels[1]]
        if not isinstance(a, BasicBlock) or not isinstance(b, BasicBlock):
            return False
        tree = self._tree(ctx)
        if self.strict:
            return tree.strictly_dominates(a, b)
        return tree.dominates(a, b)

    def compile_check(self, slot_of):
        sa, sb = slot_of[self.labels[0]], slot_of[self.labels[1]]
        strict, post = self.strict, self.post

        def run(ctx, slots, view):
            a = slots[sa]
            b = slots[sb]
            if not isinstance(a, BasicBlock) or not isinstance(b, BasicBlock):
                return False
            tree = ctx.postdom if post else ctx.dom
            if strict:
                return tree.strictly_dominates(a, b)
            return tree.dominates(a, b)

        return run

    def structural_key(self):
        return ("dom", self.strict, self.post, self.labels)

    def implied_structural_keys(self):
        if self.strict:
            # Strict (post-)dominance implies the non-strict relation
            # on the same labels.
            return (("dom", False, self.post, self.labels),)
        return ()

    def propose(self, ctx, assignment, label):
        if label in self.labels:
            return ctx.blocks()
        return None

    def label_kinds(self):
        return tuple((label, "block") for label in self.labels)

    def proposable_labels(self, bound):
        return frozenset(self.labels)


class StrictlyDominates(Dominates):
    """Strict dominance."""

    strict = True


class PostDominates(Dominates):
    """Post-dominance (dominance in the reversed CFG)."""

    post = True


class StrictlyPostDominates(Dominates):
    """Strict post-dominance."""

    strict = True
    post = True


class Blocked(Constraint):
    """Every CFG path from ``a`` to ``c`` passes through ``via`` —
    Fig. 7's ``ConstraintCFGBlocked``."""

    def __init__(self, a: str, via: str, c: str):
        self.labels = (a, via, c)

    def check(self, ctx, assignment):
        a = assignment[self.labels[0]]
        via = assignment[self.labels[1]]
        c = assignment[self.labels[2]]
        if not all(isinstance(x, BasicBlock) for x in (a, via, c)):
            return False
        return not ctx.cfg.path_exists_avoiding(a, c, via)

    def compile_check(self, slot_of):
        sa = slot_of[self.labels[0]]
        sv = slot_of[self.labels[1]]
        sc = slot_of[self.labels[2]]

        def run(ctx, slots, view):
            a, via, c = slots[sa], slots[sv], slots[sc]
            if (
                not isinstance(a, BasicBlock)
                or not isinstance(via, BasicBlock)
                or not isinstance(c, BasicBlock)
            ):
                return False
            return not ctx.cfg.path_exists_avoiding(a, c, via)

        return run

    def structural_key(self):
        return ("blocked", self.labels)

    def label_kinds(self):
        return tuple((label, "block") for label in self.labels)


class SESERegion(Constraint):
    """``begin`` and ``end`` span a single-entry single-exit region —
    the ``sese`` arrow of Fig. 5."""

    def __init__(self, begin: str, end: str):
        self.labels = (begin, end)

    def check(self, ctx, assignment):
        begin = assignment[self.labels[0]]
        end = assignment[self.labels[1]]
        if not isinstance(begin, BasicBlock) or not isinstance(end, BasicBlock):
            return False
        return ctx.dom.dominates(begin, end) and ctx.postdom.dominates(
            end, begin
        )

    def compile_check(self, slot_of):
        sb, se = slot_of[self.labels[0]], slot_of[self.labels[1]]

        def run(ctx, slots, view):
            begin = slots[sb]
            end = slots[se]
            if not isinstance(begin, BasicBlock) or not isinstance(
                end, BasicBlock
            ):
                return False
            return ctx.dom.dominates(begin, end) and ctx.postdom.dominates(
                end, begin
            )

        return run

    def structural_key(self):
        return ("sese", self.labels)

    def implied_structural_keys(self):
        # sese(begin, end) ⇔ begin dominates end ∧ end post-dominates
        # begin: both dominance conjuncts are redundant after it.
        begin, end = self.labels
        return (
            ("dom", False, False, (begin, end)),
            ("dom", False, True, (end, begin)),
        )

    def propose(self, ctx, assignment, label):
        if label in self.labels:
            return ctx.blocks()
        return None

    def label_kinds(self):
        return tuple((label, "block") for label in self.labels)

    def proposable_labels(self, bound):
        return frozenset(self.labels)


class Opcode(Constraint):
    """``x`` is an instruction with one of the given opcodes, with
    optional operand labels: ``Opcode("x", "add", ("y", "z"))`` is
    Fig. 5's ``x = add(y, z)``.

    ``commutative`` allows the two operand labels to match in either
    order (used for ``add`` and for ``int_comparison``).
    """

    def __init__(
        self,
        x: str,
        opcodes: str | tuple[str, ...],
        operands: tuple[str | None, ...] = (),
        commutative: bool = False,
    ):
        self.opcodes = (opcodes,) if isinstance(opcodes, str) else tuple(opcodes)
        self.operand_labels = tuple(operands)
        self.commutative = commutative and len(self.operand_labels) == 2
        labels = [x]
        labels.extend(l for l in self.operand_labels if l is not None)
        self.labels = tuple(dict.fromkeys(labels))
        self.x_label = x

    def _instruction(self, assignment) -> Instruction | None:
        x = assignment[self.x_label]
        if isinstance(x, Instruction) and x.opcode in self.opcodes:
            return x
        return None

    def _operand_match(self, instruction: Instruction, assignment) -> bool:
        operands = instruction.operands
        if self.operand_labels and len(operands) < len(self.operand_labels):
            return False
        orders = [self.operand_labels]
        if self.commutative:
            orders.append(tuple(reversed(self.operand_labels)))
        for order in orders:
            if all(
                label is None or label not in assignment
                or operands[i] is assignment[label]
                for i, label in enumerate(order)
            ):
                return True
        return False

    def check(self, ctx, assignment):
        instruction = self._instruction(assignment)
        if instruction is None:
            return False
        return self._operand_match(instruction, assignment)

    def partial_check(self, ctx, assignment):
        if self.x_label not in assignment:
            return True
        instruction = self._instruction(assignment)
        if instruction is None:
            return False
        return self._operand_match(instruction, assignment)

    def compile_partial(self, bound, slot_of):
        # Mirrors partial_check for the exact bound set: vacuous until
        # x binds, then opcode membership plus the operand restriction
        # over whichever operand labels are bound.
        if self.x_label not in bound:
            return PARTIAL_VACUOUS
        x_slot = slot_of[self.x_label]
        opcodes = self.opcodes
        only = opcodes[0] if len(opcodes) == 1 else None
        orders = [self.operand_labels]
        if self.commutative:
            orders.append(tuple(reversed(self.operand_labels)))
        compiled_orders = tuple(
            tuple(
                (i, slot_of[l])
                for i, l in enumerate(order)
                if l is not None and l in bound
            )
            for order in orders
        )
        nops = len(self.operand_labels)

        def run(ctx, slots, view):
            x = slots[x_slot]
            if not isinstance(x, Instruction):
                return False
            if only is not None:
                if x.opcode != only:
                    return False
            elif x.opcode not in opcodes:
                return False
            # In-place operand list: the public .operands copies to a
            # tuple on every access, too costly per candidate.
            operands = x._operands
            if nops and len(operands) < nops:
                return False
            for pairs in compiled_orders:
                for i, slot in pairs:
                    if operands[i] is not slots[slot]:
                        break
                else:
                    return True
            return False

        return run

    def structural_key(self):
        return (
            "opcode",
            self.x_label,
            self.opcodes,
            self.operand_labels,
            self.commutative,
        )

    def propose(self, ctx, assignment, label):
        if label == self.x_label:
            candidates: list[Value] = []
            for opcode in self.opcodes:
                candidates.extend(ctx.instructions_with_opcode(opcode))
            return [
                c
                for c in candidates
                if self._operand_match(c, assignment)
            ]
        if label in self.operand_labels and self.x_label in assignment:
            instruction = self._instruction(assignment)
            if instruction is None:
                return []
            positions = [
                i for i, l in enumerate(self.operand_labels) if l == label
            ]
            if self.commutative:
                positions = [0, 1]
            operands = instruction.operands
            return [operands[i] for i in positions if i < len(operands)]
        return None

    def propose_implies_partial(self, bound, label):
        if label == self.x_label:
            # Instruction proposals replay the partial check verbatim
            # (opcode membership + operand match over the same bound
            # labels) — unless x itself names an operand slot, which
            # only the check-time assignment constrains.
            return self.x_label not in self.operand_labels
        if self.x_label not in bound or label not in self.operand_labels:
            return False
        if self.operand_labels.count(label) != 1:
            # A label at several positions must match all of them;
            # propose offers each position's value independently.
            return False
        if self.commutative:
            # With another operand already matched in one of the two
            # orders, a proposed value can still clash in both.
            return not any(
                l is not None and l != label and l in bound
                for l in self.operand_labels
            )
        return True

    #: The kind each opcode pins its instruction label to; anything
    #: else is just "instruction".
    _OPCODE_KINDS = {
        "phi": "phi", "load": "load", "store": "store",
        "icmp": "cmp", "fcmp": "cmp",
    }

    def label_kinds(self):
        kinds = {
            self._OPCODE_KINDS.get(opcode, "instruction")
            for opcode in self.opcodes
        }
        x_kind = kinds.pop() if len(kinds) == 1 else "instruction"
        pairs = [(self.x_label, x_kind)]
        pairs.extend(
            (label, "value")
            for label in self.operand_labels
            if label is not None
        )
        return tuple(pairs)

    def proposable_labels(self, bound):
        proposable = {self.x_label}
        if self.x_label in bound:
            proposable.update(
                label for label in self.operand_labels if label is not None
            )
        return frozenset(proposable)


class PhiOfTwo(Constraint):
    """``x = Φ(a, b)``: a PHI with exactly two incoming values, matching
    ``a`` and ``b`` in either order (Fig. 5's iterator constraint)."""

    def __init__(self, x: str, a: str, b: str):
        self.labels = (x, a, b)

    def check(self, ctx, assignment):
        x = assignment[self.labels[0]]
        if not isinstance(x, PhiInst) or len(x.incoming) != 2:
            return False
        values = x.incoming_values()
        a = assignment[self.labels[1]]
        b = assignment[self.labels[2]]
        return (values[0] is a and values[1] is b) or (
            values[0] is b and values[1] is a
        )

    def partial_check(self, ctx, assignment):
        x = assignment.get(self.labels[0])
        if x is None:
            return True
        if not isinstance(x, PhiInst) or len(x.incoming) != 2:
            return False
        if all(label in assignment for label in self.labels[1:]):
            # Fully bound: the verdict must be exact — the solver never
            # re-walks the tree with check(), so a weaker answer here
            # would admit Φ(a, a) against a Φ(t, 0) instruction.
            return self.check(ctx, assignment)
        values = x.incoming_values()
        for label in self.labels[1:]:
            bound = assignment.get(label)
            if bound is not None and bound not in values:
                return False
        return True

    def compile_partial(self, bound, slot_of):
        if self.labels[0] not in bound:
            return PARTIAL_VACUOUS
        x_slot = slot_of[self.labels[0]]
        if all(label in bound for label in self.labels[1:]):
            sa, sb = slot_of[self.labels[1]], slot_of[self.labels[2]]

            def run_full(ctx, slots, view):
                x = slots[x_slot]
                # PHI operands interleave (value, block) pairs; four
                # operands ⇔ two incoming edges, values at 0 and 2.
                if not isinstance(x, PhiInst) or len(x._operands) != 4:
                    return False
                ops = x._operands
                v0, v1 = ops[0], ops[2]
                a = slots[sa]
                b = slots[sb]
                return (v0 is a and v1 is b) or (v0 is b and v1 is a)

            return run_full
        rest = tuple(
            slot_of[label] for label in self.labels[1:] if label in bound
        )

        def run(ctx, slots, view):
            x = slots[x_slot]
            if not isinstance(x, PhiInst) or len(x._operands) != 4:
                return False
            ops = x._operands
            v0, v1 = ops[0], ops[2]
            for slot in rest:
                value = slots[slot]
                if value is not v0 and value is not v1:
                    return False
            return True

        return run

    def structural_key(self):
        return ("phi_of_two", self.labels)

    def propose(self, ctx, assignment, label):
        x_label, a_label, b_label = self.labels
        if label == x_label:
            return [
                p
                for p in ctx.instructions_with_opcode("phi")
                if len(p.incoming) == 2
            ]
        if x_label in assignment:
            x = assignment[x_label]
            if isinstance(x, PhiInst) and len(x.incoming) == 2:
                return x.incoming_values()
            return []
        return None

    def propose_implies_partial(self, bound, label):
        x, a, b = self.labels
        if label == x:
            # Shape-only filtering: sound while neither incoming label
            # is bound (membership is not checked at propose time).
            return a not in bound and b not in bound
        if x not in bound:
            return False
        # Proposing one incoming value guarantees membership, but not
        # the exact pairing the full check demands once both are bound.
        other = b if label == a else a if label == b else None
        return other is not None and other not in bound

    def label_kinds(self):
        x, a, b = self.labels
        return ((x, "phi"), (a, "value"), (b, "value"))

    def proposable_labels(self, bound):
        if self.labels[0] in bound:
            return frozenset(self.labels)
        return frozenset((self.labels[0],))


class PhiIncomingFromBlock(Constraint):
    """The PHI ``phi`` receives ``value`` from predecessor ``block``."""

    def __init__(self, phi: str, value: str, block: str):
        self.labels = (phi, value, block)

    def check(self, ctx, assignment):
        phi = assignment[self.labels[0]]
        if not isinstance(phi, PhiInst):
            return False
        value = assignment[self.labels[1]]
        block = assignment[self.labels[2]]
        return any(
            v is value and b is block for v, b in phi.incoming
        )

    def compile_check(self, slot_of):
        sp, sv, sb = (slot_of[label] for label in self.labels)

        def run(ctx, slots, view):
            phi = slots[sp]
            if not isinstance(phi, PhiInst):
                return False
            value = slots[sv]
            block = slots[sb]
            # Interleaved (value, block) operand pairs, scanned in place.
            ops = phi._operands
            for i in range(0, len(ops), 2):
                if ops[i] is value and ops[i + 1] is block:
                    return True
            return False

        return run

    def structural_key(self):
        return ("phi_incoming", self.labels)

    def propose(self, ctx, assignment, label):
        phi_label, value_label, block_label = self.labels
        phi = assignment.get(phi_label)
        if label == phi_label:
            return ctx.instructions_with_opcode("phi")
        if phi is None:
            return None
        if not isinstance(phi, PhiInst):
            # Bound to a non-PHI: nothing can ever satisfy this atom,
            # so propose the empty set rather than abstaining.
            return []
        if label == value_label:
            block = assignment.get(block_label)
            if block is not None:
                return [v for v, b in phi.incoming if b is block]
            return phi.incoming_values()
        if label == block_label:
            value = assignment.get(value_label)
            if value is not None:
                return [b for v, b in phi.incoming if v is value]
            return [b for _, b in phi.incoming]
        return None

    def propose_implies_partial(self, bound, label):
        # Value/block proposals filtered by the other bound component
        # enumerate exactly the satisfying incoming entries.  The check
        # only fires once all three labels are bound, so the remaining
        # patterns stay vacuous anyway.
        phi, value, block = self.labels
        if label == value:
            return phi in bound and block in bound
        if label == block:
            return phi in bound and value in bound
        return False

    def label_kinds(self):
        phi, value, block = self.labels
        return ((phi, "phi"), (value, "value"), (block, "block"))

    def proposable_labels(self, bound):
        if self.labels[0] in bound:
            return frozenset(self.labels)
        return frozenset((self.labels[0],))


class InBlock(Constraint):
    """Instruction ``x`` lives in block ``block``."""

    def __init__(self, x: str, block: str):
        self.labels = (x, block)

    def check(self, ctx, assignment):
        x = assignment[self.labels[0]]
        block = assignment[self.labels[1]]
        return isinstance(x, Instruction) and x.parent is block

    def compile_check(self, slot_of):
        sx, sb = slot_of[self.labels[0]], slot_of[self.labels[1]]

        def run(ctx, slots, view):
            x = slots[sx]
            return isinstance(x, Instruction) and x.parent is slots[sb]

        return run

    def structural_key(self):
        return ("in_block", self.labels)

    def propose(self, ctx, assignment, label):
        x_label, block_label = self.labels
        if label == block_label and x_label in assignment:
            x = assignment[x_label]
            if isinstance(x, Instruction) and x.parent is not None:
                return [x.parent]
            return []
        if label == x_label and block_label in assignment:
            block = assignment[block_label]
            if isinstance(block, BasicBlock):
                return list(block.instructions)
            return []
        return None

    def propose_implies_partial(self, bound, label):
        # Either direction proposes exactly the members/parent.
        x, block = self.labels
        return (label == block and x in bound) or (
            label == x and block in bound
        )

    def label_kinds(self):
        x, block = self.labels
        return ((x, "instruction"), (block, "block"))

    def proposable_labels(self, bound):
        x, block = self.labels
        proposable = set()
        if x in bound:
            proposable.add(block)
        if block in bound:
            proposable.add(x)
        return frozenset(proposable)


class IsConstantLike(Constraint):
    """``x ∈ constant`` from Fig. 5: a compile-time constant, function
    argument or global — anything fixed before the function runs."""

    def __init__(self, x: str):
        self.labels = (x,)

    def check(self, ctx, assignment):
        x = assignment[self.labels[0]]
        return isinstance(x, (Constant, Argument, GlobalVariable))

    def compile_check(self, slot_of):
        sx = slot_of[self.labels[0]]

        def run(ctx, slots, view):
            return isinstance(
                slots[sx], (Constant, Argument, GlobalVariable)
            )

        return run

    def structural_key(self):
        return ("constlike", self.labels)

    def propose(self, ctx, assignment, label):
        if label == self.labels[0]:
            return [
                v
                for v in ctx.universe
                if isinstance(v, (Constant, Argument, GlobalVariable))
            ]
        return None

    def propose_implies_partial(self, bound, label):
        # Proposals are the universe filtered by the check itself.
        return label == self.labels[0]

    def label_kinds(self):
        return ((self.labels[0], "constlike"),)

    def proposable_labels(self, bound):
        return frozenset(self.labels)


class DefDominatesBlock(Constraint):
    """``x`` is an instruction whose defining block dominates ``block``
    — Fig. 5's ``x dominate→ entry`` loop-invariance condition."""

    def __init__(self, x: str, block: str):
        self.labels = (x, block)

    def check(self, ctx, assignment):
        x = assignment[self.labels[0]]
        block = assignment[self.labels[1]]
        if not isinstance(x, Instruction) or not isinstance(block, BasicBlock):
            return False
        return x.parent is not None and ctx.dom.dominates(x.parent, block)

    def compile_check(self, slot_of):
        sx, sb = slot_of[self.labels[0]], slot_of[self.labels[1]]

        def run(ctx, slots, view):
            x = slots[sx]
            block = slots[sb]
            if not isinstance(x, Instruction) or not isinstance(
                block, BasicBlock
            ):
                return False
            return x.parent is not None and ctx.dom.dominates(
                x.parent, block
            )

        return run

    def structural_key(self):
        return ("def_dominates_block", self.labels)

    def label_kinds(self):
        x, block = self.labels
        return ((x, "instruction"), (block, "block"))


class Distinct(Constraint):
    """All bound labels take pairwise distinct values."""

    def __init__(self, *labels: str):
        self.labels = tuple(labels)

    def check(self, ctx, assignment):
        values = [assignment[l] for l in self.labels]
        return len({id(v) for v in values}) == len(values)

    def partial_check(self, ctx, assignment):
        values = [assignment[l] for l in self.labels if l in assignment]
        return len({id(v) for v in values}) == len(values)

    def compile_partial(self, bound, slot_of):
        slots_bound = tuple(
            slot_of[l] for l in self.labels if l in bound
        )
        if len(slots_bound) < 2:
            return PARTIAL_VACUOUS
        if len(slots_bound) == 2:
            s0, s1 = slots_bound

            def run_pair(ctx, slots, view):
                return slots[s0] is not slots[s1]

            return run_pair

        def run(ctx, slots, view):
            seen = set()
            for slot in slots_bound:
                key = id(slots[slot])
                if key in seen:
                    return False
                seen.add(key)
            return True

        return run

    def structural_key(self):
        return ("distinct", tuple(sorted(self.labels)))


class Predicate(Constraint):
    """Escape hatch: an arbitrary Python predicate over bound labels.

    Used by idiom specifications for conditions that are cheap to state
    in Python (e.g. "the bound header actually heads a natural loop").
    """

    def __init__(self, labels: tuple[str, ...], fn, name: str = "predicate",
                 kinds: tuple[str, ...] | None = None):
        self.labels = tuple(labels)
        self.fn = fn
        self.name = name
        #: Optional value-kind requirements aligned with ``labels``
        #: (see :meth:`Constraint.label_kinds`).
        self.kinds = tuple(kinds) if kinds else ()

    def check(self, ctx, assignment):
        return bool(self.fn(ctx, assignment))

    def label_kinds(self):
        return tuple(
            (label, kind)
            for label, kind in zip(self.labels, self.kinds)
            if kind != "any"
        )

    def __repr__(self) -> str:
        return f"<Predicate {self.name}>"
