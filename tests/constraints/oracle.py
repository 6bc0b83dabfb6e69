"""Differential oracles for the compiled constraint engine.

:func:`repro.constraints.detect` runs one engine: the compiled flat
plan of :mod:`repro.constraints.plan`, over the specs the idiom
registry loads from the shipped ``.icsl`` files.  This module keeps the
independent references the tests and benchmarks check it against:

* :func:`detect_interpreted` — the constraint-object interpreter of
  Fig. 6, the engine the plan compiler was derived from.  By default it
  re-checks only the conjuncts that mention the label bound at each
  depth (the per-depth index of
  :class:`~repro.constraints.solver.CompiledSpec`); ``incremental=False``
  selects the naive walk that re-checks every conjunct at every
  binding.  Both count conjunct evaluations in
  :attr:`~repro.constraints.SolverStats.constraint_evals`, and the plan
  engine must reconcile with the index walk exactly:
  ``interpreted.constraint_evals == plan.constraint_evals +
  plan.evals_pruned``.  The two share
  :class:`~repro.constraints.SharedSolverCache` memo keys, so one cache
  may serve both;
* :func:`detect_brute_force` — the exponential §3.2 strawman: enumerate
  ``values(F)^I`` and filter.  Only for specs of two or three labels;
* the native spec builders (:func:`for_loop_spec`,
  :func:`scalar_reduction_spec`, :func:`histogram_spec`,
  :func:`dot_product_spec`, :func:`argminmax_spec`,
  :func:`nested_array_reduction_spec`) — Python twins of the six
  shipped ``.icsl`` files, built from the same named predicate atoms
  (:mod:`repro.constraints.predicates`), so a file spec and its twin
  must agree solution for solution.

It is slow by design: keep it to the differential corpus, or to the
whole corpus only inside a benchmark.
"""

from __future__ import annotations

import itertools

from repro.constraints import (
    Assignment,
    ComputedOnlyFrom,
    ConstraintAnd,
    ConstraintOr,
    DefDominatesBlock,
    Distinct,
    Dominates,
    EndsInCondBranch,
    EndsInUncondBranch,
    FlowPolicy,
    IdiomSpec,
    InBlock,
    IsConstantLike,
    Opcode,
    PhiIncomingFromBlock,
    PhiOfTwo,
    SESERegion,
    SharedSolverCache,
    SolverContext,
    SolverStats,
    compile_spec,
    declarative_flow,
)
from repro.constraints.logical import intersect_proposals
from repro.constraints.predicates import (
    guard_matches_candidate,
    load_before_store,
    natural_loop,
    ordering_cmp,
    same_join,
    store_directly_in_loop,
    store_in_subloop,
    update_in_loop,
)
from repro.ir.values import Value

# -- the interpreted search ---------------------------------------------------


def _propose(compiled, ctx, assignment, label, memo, stats):
    """Candidates for ``label``; mirrors ``ConstraintAnd.propose``
    (intersection, ordered by the smallest proposal) with proposal
    lookups memoized in the shared cache.

    A conjunct's proposal only depends on the bindings of its own
    labels, so the memo key is the conjunct's identity plus that
    restriction — the same key the plan engine builds, so shared
    conjunct objects hit across specs and across engines.
    """
    proposals: list[list[Value]] = []
    for i in compiled.proposers.get(label, ()):
        conjunct = compiled.conjuncts[i]
        key = (
            conjunct,
            label,
            tuple(
                (l, id(assignment[l]))
                for l in sorted(compiled.labelsets[i])
                if l in assignment
            ),
        )
        try:
            candidates = memo[key]
            stats.proposal_cache_hits += 1
        except KeyError:
            candidates = conjunct.propose(ctx, assignment, label)
            if candidates is not None:
                candidates = list(candidates)
            memo[key] = candidates
        if candidates is not None:
            proposals.append(candidates)
    if not proposals:
        return None
    return intersect_proposals(proposals)


def detect_interpreted(
    ctx: SolverContext,
    spec: IdiomSpec,
    stats: SolverStats | None = None,
    limit: int | None = None,
    cache: SharedSolverCache | None = None,
    incremental: bool = True,
) -> list[dict[str, Value]]:
    """All assignments satisfying ``spec``, by interpreting its
    constraint objects: bind the next label to each candidate, prune
    with the partial predicate, recurse.

    Accepts and rejects exactly the partial assignments the plan
    engine does and returns solutions in the same order.  With
    ``incremental`` (the default) a spec that extends a base replays
    the base's solved tuples from ``cache`` (computed once per cache by
    a nested interpreted search whose effort is charged to ``stats``),
    as the plan engine does; the naive walk always searches from depth
    0.  ``cache`` defaults to ``ctx.solver_cache``.
    """
    compiled = compile_spec(spec)
    order = spec.label_order
    conjuncts = compiled.conjuncts
    results: list[dict[str, Value]] = []
    assignment: dict[str, Value] = {}
    stats = stats if stats is not None else SolverStats()
    cache = cache if cache is not None else ctx.solver_cache
    memo = cache.proposal_memo
    all_indices = tuple(range(len(conjuncts)))
    prefix_sets = [
        frozenset(order[:k]) for k in range(len(order) + 1)
    ]

    def partial_ok(k: int) -> bool:
        indices = compiled.schedule[k] if incremental else all_indices
        for i in indices:
            stats.constraint_evals += 1
            if not conjuncts[i].partial_check(ctx, assignment):
                return False
        return True

    def recurse(k: int) -> bool:
        if limit is not None and len(results) >= limit:
            return False
        if k == len(order):
            results.append(dict(assignment))
            stats.solutions += 1
            return True
        label = order[k]
        candidates = _propose(compiled, ctx, assignment, label, memo, stats)
        if candidates is None:
            candidates = ctx.universe
            stats.fallbacks_to_universe += 1
        stats.record_candidates(label, prefix_sets[k], len(candidates))
        for value in candidates:
            assignment[label] = value
            stats.assignments_tried += 1
            if partial_ok(k):
                if not recurse(k + 1):
                    assignment.pop(label, None)
                    return False
            else:
                stats.partial_rejections += 1
        assignment.pop(label, None)
        return True

    prefix = None
    if incremental and compiled.prefix_len:
        prefix = cache.solutions_for(spec.base)
        # A limit-bounded search never computes the base (the full
        # enumeration could dwarf the bounded search it serves); it
        # only replays a list some unbounded search already paid for.
        if prefix is None and limit is None:
            base_stats = SolverStats()
            prefix = detect_interpreted(ctx, spec.base, stats=base_stats,
                                        cache=cache)
            cache.store_solutions(spec.base, prefix)
            base_stats.solutions = 0
            base_stats.prefix_reuses = 0
            stats.merge(base_stats)
    if prefix is None:
        recurse(0)
        return results
    stats.prefix_reuses += 1
    for base_solution in prefix:
        if limit is not None and len(results) >= limit:
            break
        assignment.clear()
        assignment.update(base_solution)
        # Re-validate the extension conjuncts that touch base labels —
        # the base search never saw them.
        ok = True
        for i in compiled.replay_indices:
            stats.constraint_evals += 1
            if not conjuncts[i].partial_check(ctx, assignment):
                stats.partial_rejections += 1
                ok = False
                break
        if ok:
            recurse(compiled.prefix_len)
    assignment.clear()
    return results


def detect_brute_force(
    ctx: SolverContext, spec: IdiomSpec, stats: SolverStats | None = None
) -> list[dict[str, Value]]:
    """Enumerate ``values(F)^I`` and filter — exponential, tests only."""
    order = spec.label_order
    root = spec.constraint
    results = []
    stats = stats if stats is not None else SolverStats()
    for combo in itertools.product(ctx.universe, repeat=len(order)):
        stats.assignments_tried += 1
        assignment = dict(zip(order, combo))
        if root.check(ctx, assignment):
            results.append(assignment)
            stats.solutions += 1
    return results


# -- native specs: Python twins of the shipped .icsl files --------------------

#: Fig. 5's for loop: each label is proposable from the ones before it.
FOR_LOOP_LABEL_ORDER: tuple[str, ...] = (
    "header", "test", "body", "exit", "entry", "latch",
    "iterator", "next_iter", "iter_begin", "iter_step", "iter_end",
)


def loop_invariant_in(value_label: str, entry_label: str) -> ConstraintOr:
    """Fig. 5's ``x ∈ constant ∨ x dominate→ entry`` pattern."""
    return ConstraintOr(
        IsConstantLike(value_label),
        DefDominatesBlock(value_label, entry_label),
    )


def for_loop_constraint() -> ConstraintAnd:
    """The conjunction of Fig. 5 (``forloop.icsl``)."""
    return ConstraintAnd(
        EndsInUncondBranch("entry", "header"),
        EndsInCondBranch("header", "test", "body", "exit"),
        EndsInUncondBranch("latch", "header"),
        SESERegion("body", "latch"),
        Dominates("header", "exit"),
        Opcode("test", "icmp", ("iterator", "iter_end"), commutative=True),
        PhiOfTwo("iterator", "next_iter", "iter_begin"),
        InBlock("iterator", "header"),
        PhiIncomingFromBlock("iterator", "next_iter", "latch"),
        PhiIncomingFromBlock("iterator", "iter_begin", "entry"),
        Opcode("next_iter", "add", ("iterator", "iter_step"), commutative=True),
        loop_invariant_in("iter_begin", "entry"),
        loop_invariant_in("iter_step", "entry"),
        loop_invariant_in("iter_end", "entry"),
        Distinct("header", "body", "exit", "entry"),
        natural_loop("header", "body", "latch", "entry", "exit"),
    )


def for_loop_spec() -> IdiomSpec:
    return IdiomSpec("for-loop", FOR_LOOP_LABEL_ORDER, for_loop_constraint())


SCALAR_REDUCTION_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "acc", "acc_update", "acc_init",
)


def _reduction_policies(ctx: SolverContext, assignment: Assignment):
    """§3.1.1: the update reads the accumulator, affine-indexed array
    loads and invariants; conditions may not read the accumulator."""
    acc = assignment["acc"]
    iterator = assignment["iterator"]
    data = FlowPolicy(
        extra_sources=(acc,),
        rejected=(iterator,),
        index_sources=(iterator,),
        require_affine_index=True,
    )
    control = FlowPolicy(
        extra_sources=(),
        rejected=(iterator, acc),
        index_sources=(iterator,),
        require_affine_index=True,
    )
    return data, control


def scalar_reduction_spec() -> IdiomSpec:
    """§3.1.1 (``scalar_reduction.icsl``)."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        PhiOfTwo("acc", "acc_update", "acc_init"),
        InBlock("acc", "header"),
        PhiIncomingFromBlock("acc", "acc_update", "latch"),
        PhiIncomingFromBlock("acc", "acc_init", "entry"),
        Distinct("acc", "iterator"),
        Distinct("acc", "acc_update"),
        loop_invariant_in("acc_init", "entry"),
        update_in_loop("header", "acc_update"),
        ComputedOnlyFrom(
            "acc_update",
            "header",
            _reduction_policies,
            extra_labels=("acc", "iterator"),
        ),
    )
    return IdiomSpec("scalar-reduction", SCALAR_REDUCTION_LABEL_ORDER,
                     constraint)


def _idx_policies(ctx: SolverContext, assignment: Assignment):
    """§3.1.2 condition 3: the bin index never reads the iterator or
    the histogram array."""
    policy = FlowPolicy(
        rejected=(assignment["iterator"],),
        forbidden_bases=(assignment["base"],),
        index_sources=(assignment["iterator"],),
    )
    return policy, policy


def _update_policies(ctx: SolverContext, assignment: Assignment):
    """§3.1.2 condition 5: the new bin value reads the old one, array
    values and invariants; conditions may not read the old value."""
    iterator = assignment["iterator"]
    base = assignment["base"]
    load = assignment["hist_load"]
    data = FlowPolicy(
        extra_sources=(load,),
        rejected=(iterator,),
        forbidden_bases=(base,),
        index_sources=(iterator,),
    )
    control = FlowPolicy(
        rejected=(iterator, load),
        forbidden_bases=(base,),
        index_sources=(iterator,),
    )
    return data, control


def histogram_spec() -> IdiomSpec:
    """§3.1.2 (``histogram.icsl``)."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        Opcode("hist_store", "store", ("update", "gep_st")),
        Opcode("gep_st", "gep", ("base", "idx")),
        Opcode("gep_ld", "gep", ("base", "idx")),
        Opcode("hist_load", "load", ("gep_ld",)),
        loop_invariant_in("base", "entry"),
        store_directly_in_loop("header", "hist_store"),
        load_before_store("hist_load", "hist_store"),
        ComputedOnlyFrom(
            "idx",
            "header",
            _idx_policies,
            extra_labels=("iterator", "base"),
        ),
        ComputedOnlyFrom(
            "update",
            "header",
            _update_policies,
            extra_labels=("iterator", "base", "hist_load"),
        ),
    )
    order = FOR_LOOP_LABEL_ORDER + (
        "hist_store", "gep_st", "base", "idx", "gep_ld", "hist_load",
        "update",
    )
    return IdiomSpec("histogram", order, constraint)


def dot_product_spec() -> IdiomSpec:
    """``acc' = acc + a[i] * b[i]`` with two distinct arrays
    (``dot_product.icsl``)."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        PhiOfTwo("acc", "update", "acc_init"),
        InBlock("acc", "header"),
        PhiIncomingFromBlock("acc", "update", "latch"),
        PhiIncomingFromBlock("acc", "acc_init", "entry"),
        loop_invariant_in("acc_init", "entry"),
        Opcode("update", "fadd", ("acc", "product"), commutative=True),
        Opcode("product", "fmul", ("load_a", "load_b"), commutative=True),
        Opcode("load_a", "load", ("gep_a",)),
        Opcode("load_b", "load", ("gep_b",)),
        Opcode("gep_a", "gep", ("base_a", None)),
        Opcode("gep_b", "gep", ("base_b", None)),
        Distinct("base_a", "base_b"),
        Distinct("acc", "iterator"),
        declarative_flow("update", "header", sources=("acc",),
                         rejected=("iterator",), index=("iterator",),
                         affine=True),
    )
    order = FOR_LOOP_LABEL_ORDER + (
        "acc", "update", "acc_init", "product", "load_a", "load_b",
        "gep_a", "gep_b", "base_a", "base_b",
    )
    return IdiomSpec("dot-product", order, constraint)


def argminmax_spec() -> IdiomSpec:
    """Guarded best-value / best-index pair,
    ``if (cmp(a[i], best)) { best = a[i]; pos = i; }``
    (``argminmax.icsl``)."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        PhiOfTwo("best", "best_update", "best_init"),
        InBlock("best", "header"),
        PhiIncomingFromBlock("best", "best_update", "latch"),
        PhiIncomingFromBlock("best", "best_init", "entry"),
        loop_invariant_in("best_init", "entry"),
        PhiOfTwo("pos", "pos_update", "pos_init"),
        InBlock("pos", "header"),
        PhiIncomingFromBlock("pos", "pos_update", "latch"),
        PhiIncomingFromBlock("pos", "pos_init", "entry"),
        loop_invariant_in("pos_init", "entry"),
        Distinct("best", "pos", "iterator"),
        PhiOfTwo("best_update", "best", "candidate"),
        PhiOfTwo("pos_update", "pos", "pos_candidate"),
        same_join("best_update", "pos_update"),
        Opcode("cmp", ("fcmp", "icmp"), (None, None)),
        ordering_cmp("cmp"),
        guard_matches_candidate("cmp", "best", "candidate"),
    )
    order = FOR_LOOP_LABEL_ORDER + (
        "best", "best_update", "best_init",
        "candidate",
        "pos", "pos_update", "pos_init", "pos_candidate",
        "cmp",
    )
    return IdiomSpec("argminmax", order, constraint)


def nested_array_reduction_spec() -> IdiomSpec:
    """Array reduction carried by a non-innermost loop, SP's ``rms``
    (``nested_reduction.icsl``).  The idx flow rejects the outer
    iterator even inside addresses."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        Opcode("arr_store", "store", ("update", "gep_st")),
        Opcode("gep_st", "gep", ("base", "idx")),
        Opcode("gep_ld", "gep", ("base", "idx")),
        Opcode("arr_load", "load", ("gep_ld",)),
        loop_invariant_in("base", "entry"),
        store_in_subloop("header", "arr_store"),
        load_before_store("arr_load", "arr_store"),
        declarative_flow("idx", "header", rejected=("iterator",),
                         forbidden=("base",)),
        declarative_flow("update", "header", sources=("arr_load",),
                         rejected=("iterator",), forbidden=("base",),
                         index=("iterator",)),
    )
    order = FOR_LOOP_LABEL_ORDER + (
        "arr_store", "gep_st", "base", "idx", "gep_ld", "arr_load",
        "update",
    )
    return IdiomSpec("nested-array-reduction", order, constraint)


#: Idiom name → native builder, one per shipped ``.icsl`` file.
NATIVE_SPECS = {
    "for-loop": for_loop_spec,
    "scalar-reduction": scalar_reduction_spec,
    "histogram": histogram_spec,
    "dot-product": dot_product_spec,
    "argminmax": argminmax_spec,
    "nested-array-reduction": nested_array_reduction_spec,
}
