"""Differential suite for the compiled plan engine.

The interpreted solver (:mod:`repro.constraints.solver`) is the
oracle; :func:`repro.constraints.plan.detect_plan` must match it

* in **solutions** — the identical list, order included;
* in **statistics** — every :class:`SolverStats` counter equal, except
  the eval reconciliation invariant ``interpreted.constraint_evals ==
  compiled.constraint_evals + compiled.evals_pruned`` (the compiled
  engine performs fewer evaluations but accounts for every skipped one
  position-exactly);
* in **fingerprints** — corpus reports are engine-independent.

The matrix runs every shipped ``.icsl`` spec over the differential C
corpus, then hypothesis-randomized label/conjunct orders over the
mini-specs, plus targeted coverage of the plan-only machinery: the
partial-prefix replay trie (hit, miss and limit-bounded paths),
universe-fallback searches over large candidate batches, and the
plan/codegen cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    ConstraintAnd,
    IdiomSpec,
    Opcode,
    SharedSolverCache,
    SolverStats,
    detect,
)
from repro.constraints.plan import _UNBOUND, compile_plan, detect_plan
from repro.idioms import BUILTIN_IDIOMS, IdiomRegistry
from test_differential import CORPUS, MINI_SPECS, contexts_for, solution_set

REGISTRY = IdiomRegistry()


# -- the reusable differential check ------------------------------------------


def assert_stats_reconcile(interpreted: SolverStats, compiled: SolverStats):
    """Every counter equal; evals equal modulo the recorded pruning."""
    assert compiled.assignments_tried == interpreted.assignments_tried
    assert compiled.partial_rejections == interpreted.partial_rejections
    assert compiled.solutions == interpreted.solutions
    assert compiled.fallbacks_to_universe == interpreted.fallbacks_to_universe
    assert compiled.candidates_per_label == interpreted.candidates_per_label
    assert compiled.candidates_per_prefix == interpreted.candidates_per_prefix
    assert compiled.proposal_cache_hits == interpreted.proposal_cache_hits
    assert compiled.prefix_reuses == interpreted.prefix_reuses
    assert (compiled.constraint_evals + compiled.evals_pruned
            == interpreted.constraint_evals)


def assert_engines_agree(ctx, spec):
    """Run both engines on fresh caches; returns the compiled stats."""
    interp_stats, comp_stats = SolverStats(), SolverStats()
    interpreted = detect(ctx, spec, stats=interp_stats,
                         cache=SharedSolverCache(), engine="interpreted")
    compiled = detect(ctx, spec, stats=comp_stats,
                      cache=SharedSolverCache(), engine="compiled")
    assert compiled == interpreted  # the list: solutions AND their order
    assert_stats_reconcile(interp_stats, comp_stats)
    return comp_stats


# -- compiled ≡ interpreted on every shipped spec -----------------------------


@pytest.mark.parametrize("idiom", sorted(BUILTIN_IDIOMS))
@pytest.mark.parametrize("program", sorted(CORPUS))
def test_compiled_matches_interpreted_full_specs(idiom, program):
    spec = REGISTRY.spec(idiom)
    for ctx in contexts_for(CORPUS[program]):
        stats = assert_engines_agree(ctx, spec)
        # The redundancy pass must actually have fired on the full
        # specs (their c_k construction generates vacuous checks).
        assert stats.conjuncts_pruned > 0


@pytest.mark.parametrize("program", sorted(CORPUS))
def test_compiled_matches_interpreted_shared_cache(program):
    """One shared cache accumulated across all six specs — prefix
    replay included — must agree engine to engine: the caches are
    interoperable (same memo keys), so the compiled engine sees the
    same hits, reuses and candidate lists the interpreter sees."""
    for ctx in contexts_for(CORPUS[program]):
        interp_stats, comp_stats = SolverStats(), SolverStats()
        interp_cache, comp_cache = SharedSolverCache(), SharedSolverCache()
        for name in sorted(BUILTIN_IDIOMS):
            spec = REGISTRY.spec(name)
            interpreted = detect(ctx, spec, stats=interp_stats,
                                 cache=interp_cache, engine="interpreted")
            compiled = detect(ctx, spec, stats=comp_stats,
                              cache=comp_cache, engine="compiled")
            assert compiled == interpreted, name
        assert interp_stats.prefix_reuses > 0  # replay actually engaged
        assert_stats_reconcile(interp_stats, comp_stats)


def test_detect_routes_engines():
    """``engine=`` selects the implementation; the default is the
    compiled engine (observable through its pruning counters)."""
    spec = REGISTRY.spec("scalar-reduction")
    ctx = contexts_for(CORPUS["scalar-sum"])[0]
    default_stats = SolverStats()
    default = detect(ctx, spec, stats=default_stats,
                     cache=SharedSolverCache())
    assert default_stats.evals_pruned > 0
    interp_stats = SolverStats()
    interpreted = detect(ctx, spec, stats=interp_stats,
                         cache=SharedSolverCache(), engine="interpreted")
    assert interp_stats.evals_pruned == 0
    assert interp_stats.conjuncts_pruned == 0
    assert default == interpreted
    # The naive full-tree walk stays reachable, and stays interpreted.
    naive_stats = SolverStats()
    naive = detect(ctx, spec, stats=naive_stats,
                   cache=SharedSolverCache(), incremental=False)
    assert naive == interpreted
    assert naive_stats.evals_pruned == 0
    with pytest.raises(ValueError, match="unknown solver engine"):
        detect(ctx, spec, engine="jit")


# -- hypothesis: random label and conjunct orders -----------------------------

_HYPO_PROGRAMS = ("scalar-sum", "histogram", "argminmax")
_HYPO_CONTEXTS = {
    name: contexts_for(CORPUS[name]) for name in _HYPO_PROGRAMS
}


@given(
    idiom=st.sampled_from(sorted(MINI_SPECS)),
    program=st.sampled_from(_HYPO_PROGRAMS),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_random_orders_compiled_matches_interpreted(idiom, program, data):
    """Any label enumeration order and any conjunct order must leave
    the two engines in lockstep — the plan's schedule, pruning pass and
    memo-key construction are order-sensitive by design, so this is
    where a position-accounting bug would surface."""
    base = MINI_SPECS[idiom]()
    labels = tuple(
        data.draw(st.permutations(list(base.label_order)), label="labels")
    )
    conjuncts = list(base.constraint.children)
    shuffled = data.draw(st.permutations(conjuncts), label="conjuncts")
    spec = IdiomSpec(f"{base.name}-shuffled", labels,
                     ConstraintAnd(*shuffled))
    for ctx in _HYPO_CONTEXTS[program]:
        assert_engines_agree(ctx, spec)
        # Solution *sets* are also order-independent (the order of
        # discovery moves, the set of witnesses cannot).
        found = solution_set(detect(ctx, spec), labels)
        baseline = solution_set(detect(ctx, base), base.label_order)
        canon = {
            tuple(t[labels.index(l)] for l in base.label_order)
            for t in found
        }
        assert canon == baseline


# -- partial-prefix replay trie -----------------------------------------------


def _partial_prefix_spec(depth: int = 8) -> IdiomSpec:
    """scalar-reduction with its tail rotated so only the first
    ``depth`` labels still match the declared for-loop base — full
    prefix replay is off, the trie path is on."""
    scalar = REGISTRY.spec("scalar-reduction")
    order = scalar.label_order
    rotated = order[:depth] + (order[depth + 1], order[depth],) + order[depth + 2:]
    spec = scalar.reordered(rotated)
    assert spec.base is None  # full-prefix replay impossible...
    assert spec.declared_base is not None  # ...but the base is declared
    return spec


def test_partial_prefix_trie_replay_matches_interpreted():
    spec = _partial_prefix_spec()
    plan = compile_plan(spec)
    assert plan.prefix_len == 0
    assert plan.partial_base is spec.declared_base
    assert plan.partial_len == 8
    for program in ("scalar-sum", "nested-sum", "iterator-carried"):
        for ctx in contexts_for(CORPUS[program]):
            interpreted = detect(ctx, spec, cache=SharedSolverCache(),
                                 engine="interpreted")
            stats = SolverStats()
            compiled = detect_plan(ctx, spec, stats=stats,
                                   cache=SharedSolverCache())
            assert compiled == interpreted
            # The first unbounded search pays for the frontier and
            # replays it (the interpreter has no trie, so raw stats
            # diverge by the shared-base accounting — solutions and
            # solution counts cannot).
            assert stats.trie_reuses == 1
            assert stats.solutions == len(interpreted)


def test_partial_prefix_trie_hit_and_miss_paths():
    spec = _partial_prefix_spec()
    for ctx in contexts_for(CORPUS["scalar-sum"]):
        cache = SharedSolverCache()
        # Miss: a limit-bounded search on a cold cache must not compute
        # the frontier (limit must stay cheap) — plain DFS instead.
        cold_stats = SolverStats()
        bounded = detect_plan(ctx, spec, stats=cold_stats, limit=1,
                              cache=cache)
        assert cold_stats.trie_reuses == 0
        assert not cache.prefix_trie
        # Fill: the unbounded search computes and stores the frontier.
        warm_stats = SolverStats()
        full = detect_plan(ctx, spec, stats=warm_stats, cache=cache)
        assert warm_stats.trie_reuses == 1
        key = (spec.declared_base, 8)
        assert key in cache.prefix_trie
        assert bounded == full[:1]
        # Hit: the stored frontier is replayed, not recomputed — the
        # second search tries strictly fewer assignments.
        replay_stats = SolverStats()
        again = detect_plan(ctx, spec, stats=replay_stats, cache=cache)
        assert again == full
        assert replay_stats.trie_reuses == 1
        if warm_stats.assignments_tried:
            assert (replay_stats.assignments_tried
                    < warm_stats.assignments_tried)
        # ...and a bounded search replays it too, never recomputing.
        bounded_warm = SolverStats()
        head = detect_plan(ctx, spec, stats=bounded_warm, limit=1,
                           cache=cache)
        assert head == full[:1]
        assert bounded_warm.trie_reuses == 1


# -- universe fallbacks over large candidate batches --------------------------

#: Candidate-batch size the fallback differential must reach at least
#: once per program.
_LARGE_BATCH = 24


class _NoProposeOpcode(Opcode):
    """An opcode atom stripped of its proposer: every search for its
    label falls back to the whole value universe, so the candidate
    loop runs over batches as large as the function."""

    def propose(self, ctx, assignment, label):
        return None

    def propose_implies_partial(self, bound, label):
        return False


def _universe_fallback_spec() -> IdiomSpec:
    return IdiomSpec(
        "batch-probe",
        ("update", "lhs"),
        ConstraintAnd(
            _NoProposeOpcode("update", "fadd", (None, None),
                             commutative=True),
            _NoProposeOpcode("lhs", "phi", ()),
        ),
    )


@pytest.mark.parametrize("program", ("nested-sum", "nested-rms"))
def test_universe_fallback_matches_interpreted(program):
    """Universe-fallback searches over batches of at least
    ``_LARGE_BATCH`` candidates agree with the interpreter candidate
    for candidate: the same solutions and the same counters."""
    spec = _universe_fallback_spec()
    exercised = False
    for ctx in contexts_for(CORPUS[program]):
        if len(ctx.universe) >= _LARGE_BATCH:
            exercised = True
        stats = assert_engines_agree(ctx, spec)
        assert stats.fallbacks_to_universe > 0
    assert exercised  # at least one function reached a large batch


# -- plan construction and codegen invariants ---------------------------------


def test_plan_is_cached_per_spec_and_slots_are_restored():
    spec = REGISTRY.spec("histogram")
    plan = compile_plan(spec)
    assert compile_plan(spec) is plan  # cached on the spec object
    assert plan.conjuncts_pruned > 0
    assert "def _search(" in plan.search_src  # the generated source ships
    ctx = contexts_for(CORPUS["histogram"])[0]
    detect_plan(ctx, spec, cache=SharedSolverCache())
    # Every exit path of the generated search restores the reusable
    # per-plan slot buffer — a stale binding would leak one search's
    # values into the next.
    assert all(slot is _UNBOUND for slot in plan._slots)


def test_reordered_spec_compiles_its_own_plan():
    spec = REGISTRY.spec("scalar-reduction")
    rotated = _partial_prefix_spec()
    assert compile_plan(spec) is not compile_plan(rotated)
    assert compile_plan(rotated).order == rotated.label_order
