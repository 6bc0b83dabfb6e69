"""Flat evaluation plans — the compiled constraint engine.

The incremental solver (:mod:`.solver`) still *interprets* a tree of
Python constraint objects per candidate: every search node walks the
depth's conjunct slice, dispatches ``partial_check`` through a method
lookup, and rebuilds memo keys with per-lookup sorting.  At corpus
scale that interpreter overhead dominates the search itself.  This
module lowers each :class:`~repro.constraints.solver.CompiledSpec`
depth-slice once, per spec, into a :class:`FlatPlan`:

* **slot-indexed bindings** — the partial assignment is a flat list
  indexed by label-order position (slot ``k`` is the label bound at
  depth ``k``); atom closures read ``slots[i]`` directly instead of
  hashing label strings into a dict;
* **precomputed atom closures** — every scheduled ``(depth, conjunct)``
  pair is lowered via :meth:`Constraint.compile_partial` for its exact
  bound label set, eliminating the ``partial_check`` dispatch and the
  per-call bound-set discovery;
* **redundancy pruning** (CoreDiag-style) — conjuncts whose partial
  verdict is constant-true for a depth's bound set (the vacuous checks
  the ``c_k`` construction generates), structural duplicates, and
  conjuncts implied by an earlier conjunct in the chosen order (strict
  dominance ⇒ dominance, ``sese`` ⇒ both dominance legs) are dropped
  from the slice at compile time.  Every skipped evaluation the
  interpreted engine *would* have counted is recorded in
  :attr:`SolverStats.evals_pruned`, position-exactly, so
  ``interpreted.constraint_evals == plan.constraint_evals +
  plan.evals_pruned`` holds per search — fingerprint accounting stays
  honest;
* **partial-prefix replay tries** — full-prefix replay
  (``base_solutions``) requires the extension's label order to start
  with the base's *entire* order.  The plan engine extends
  :class:`~repro.constraints.solver.SharedSolverCache` with
  ``prefix_trie``: the depth-``d`` frontier of a base spec's search
  (every partial assignment of its first ``d`` labels that survived
  pruning), keyed ``(base, d)``.  An ``extends`` spec whose order
  diverges from the base mid-way replays the shared frontier at the
  divergence depth instead of re-enumerating it — sound because
  partial rejections are monotone under binding growth (a conjunct
  that rejected with fewer bindings still rejects with more), so the
  replayed frontier, re-validated against the extension's own
  conjuncts, reaches exactly the solutions the native search reaches.

The interpreted engine is unchanged and remains the differential
oracle; :func:`detect_plan` is bit-identical to it in solutions,
assignments tried, rejections, universe fallbacks, proposal cache hits
and candidate statistics, and eval-exact modulo the recorded pruning.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..ir.values import Value
from .core import PARTIAL_VACUOUS, IdiomSpec, SolverContext
from .logical import intersect_proposals

#: Slot value marking an unbound label.
_UNBOUND = object()

#: Stand-in bound when no solution limit is set: one comparison against
#: a never-reached integer replaces a None test per search node.
_NO_LIMIT = 1 << 62


class SlotView(Mapping):
    """A live ``Mapping`` view of the solver's slot list.

    Generic fallbacks (``partial_check`` wrappers, ``propose``
    implementations) receive this instead of a dict: lookups translate
    label → slot through the plan's table and unbound slots read as
    missing keys.  One instance per search, always current — the view
    wraps the mutable slot list itself.
    """

    __slots__ = ("_slots", "_slot_of", "_order")

    def __init__(self, slots: list, slot_of: dict, order: tuple):
        self._slots = slots
        self._slot_of = slot_of
        self._order = order

    def __getitem__(self, label: str) -> Value:
        value = self._slots[self._slot_of[label]]
        if value is _UNBOUND:
            raise KeyError(label)
        return value

    def get(self, label: str, default=None):
        slot = self._slot_of.get(label)
        if slot is None:
            return default
        value = self._slots[slot]
        return default if value is _UNBOUND else value

    def __contains__(self, label: object) -> bool:
        slot = self._slot_of.get(label)
        return slot is not None and self._slots[slot] is not _UNBOUND

    def __iter__(self) -> Iterator[str]:
        slots = self._slots
        for i, label in enumerate(self._order):
            if slots[i] is not _UNBOUND:
                yield label

    def __len__(self) -> int:
        return sum(1 for value in self._slots if value is not _UNBOUND)


def _generic_partial(constraint):
    """Wrap an unlowerable constraint's ``partial_check`` for the plan
    runtime (never pruned; reads bindings through the slot view)."""
    partial = constraint.partial_check

    def run(ctx, slots, view):
        return partial(ctx, view)

    return run


class CheckChain:
    """A lowered conjunct slice with O(1)-per-candidate accounting.

    Built from ``(closure, pruned_before)`` pairs in schedule order:
    ``pruned_before`` is how many vacuous/redundant conjuncts the
    interpreted engine would have evaluated immediately before this
    closure.  Rather than charging counters check by check, the chain
    precomputes what each outcome costs: a failure at closure index
    ``i`` charges ``i + 1`` evaluations and ``fail_pruned[i]`` skipped
    ones (the pruned entries the interpreter would have reached before
    short-circuiting); a full pass charges ``pass_evals`` and
    ``pass_pruned`` (which folds in ``tail_pruned``, the pruned entries
    after the last kept check).
    """

    __slots__ = ("fns", "fail_pruned", "pass_evals", "pass_pruned")

    def __init__(self, checks, tail_pruned):
        self.fns = tuple(fn for fn, _ in checks)
        prefix = []
        running = 0
        for _, pruned_before in checks:
            running += pruned_before
            prefix.append(running)
        self.fail_pruned = tuple(prefix)
        self.pass_evals = len(checks)
        self.pass_pruned = running + tail_pruned


class PlanStep:
    """One depth of a flat plan.

    ``chain`` is the depth's :class:`CheckChain` — the lowered conjunct
    slice with its precomputed eval/pruned accounting.
    """

    __slots__ = ("label", "slot", "chain", "proposers", "dep_slots")

    def __init__(self, label, slot, chain, proposers):
        self.label = label
        self.slot = slot
        self.chain = chain
        #: ``(conjunct, key_pairs, const_key, single, double)`` rows;
        #: ``key_pairs`` are
        #: the pre-sorted ``(label, slot)`` pairs of the conjunct's
        #: labels bound at this depth — the memo key builds from them
        #: without per-lookup sorting, and matches the interpreted
        #: engine's key byte for byte (the caches are
        #: engine-interoperable).  When no labels are bound the key is
        #: a compile-time constant (``const_key``); the common one- and
        #: two-bound-label cases skip tuple iteration (``single`` /
        #: ``double``).
        self.proposers = proposers
        #: Sorted union of the slots all proposer rows read — the
        #: value ids at these slots determine every row's proposal, so
        #: ``(step, ids)`` keys a whole-depth candidate memo.
        deps = sorted({s for _, pairs, _, _, _ in proposers
                       for _, s in pairs})
        self.dep_slots = tuple(deps)


class PruneDecision:
    """One conjunct the plan compiler dropped from a schedule slice.

    The typed record behind every ``SolverStats.evals_pruned`` unit:
    rather than dropping checks silently, :func:`_compile_slice` logs
    *which* conjunct was pruned *where* and *why*, and the lint pass
    (:mod:`repro.constraints.analysis`) surfaces the records as
    position-exact diagnostics.  ``len(plan.pruning_decisions) ==
    plan.conjuncts_pruned`` by construction.

    ``reason`` is one of

    * ``"vacuous"`` — the partial verdict is constant-true for the
      slice's bound set (the ``c_k`` construction's padding);
    * ``"duplicate"`` — an earlier conjunct with the *same* structural
      key already ran (``established_by``);
    * ``"implied-conjunct"`` — an earlier conjunct *implies* this one
      (``established_by``; e.g. ``sese`` ⇒ its dominance legs);
    * ``"implied-proposal"`` — the depth's candidates come from this
      conjunct's own proposals, which pre-satisfy its check.

    ``where`` names the slice kind (``"depth"``, ``"replay"`` or
    ``"partial"``), ``depth`` the bound-prefix length there, ``index``
    the conjunct's position in ``CompiledSpec.conjuncts``.
    """

    __slots__ = ("reason", "where", "depth", "index", "conjunct",
                 "established_by")

    def __init__(self, reason, where, depth, index, conjunct,
                 established_by=None):
        self.reason = reason
        self.where = where
        self.depth = depth
        self.index = index
        self.conjunct = conjunct
        self.established_by = established_by

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"<PruneDecision {self.reason} conjunct={self.index}"
            f" {self.where}@{self.depth}>"
        )


def _compile_slice(entries, slot_of, bound_of, *, where, depth,
                   known_keys=None, implied=None):
    """Lower one ordered conjunct slice into kept checks.

    ``entries`` yields ``(index, conjunct, labelset)`` in schedule
    order; ``bound_of(labelset)`` names the exact bound label subset at
    this point.  Returns ``(checks, tail_pruned, decisions)``
    where ``decisions`` is the list of :class:`PruneDecision` records
    (one per dropped conjunct, so ``len(decisions)`` is the slice's
    pruned count).  ``known_keys`` seeds the redundancy pass with
    structural keys already established to hold, mapped to the
    establishing conjunct (the base conjuncts of a replay).
    ``implied`` holds ids of conjuncts whose verdict at this depth is
    implied by their own proposals (see
    :meth:`Constraint.propose_implies_partial`) — dropped like
    duplicates, and their structural keys still count as established.
    """
    checks = []
    pending = 0
    decisions: list[PruneDecision] = []
    established: dict = dict(known_keys) if known_keys else {}
    for index, conjunct, labelset in entries:
        bound = bound_of(labelset)
        lowered = conjunct.compile_partial(frozenset(bound), slot_of)
        if lowered is PARTIAL_VACUOUS:
            pending += 1
            decisions.append(
                PruneDecision("vacuous", where, depth, index, conjunct)
            )
            continue
        key = conjunct.structural_key() if labelset <= bound else None
        if key is not None and key in established:
            pending += 1
            by = established[key]
            reason = (
                "duplicate" if by.structural_key() == key
                else "implied-conjunct"
            )
            decisions.append(
                PruneDecision(reason, where, depth, index, conjunct,
                              established_by=by)
            )
            continue
        if implied is not None and id(conjunct) in implied:
            pending += 1
            decisions.append(
                PruneDecision("implied-proposal", where, depth, index,
                              conjunct)
            )
            if key is not None:
                established.setdefault(key, conjunct)
                for implied_key in conjunct.implied_structural_keys():
                    established.setdefault(implied_key, conjunct)
            continue
        if lowered is None:
            lowered = _generic_partial(conjunct)
        checks.append((lowered, pending))
        pending = 0
        if key is not None:
            established.setdefault(key, conjunct)
            for implied_key in conjunct.implied_structural_keys():
                established.setdefault(implied_key, conjunct)
    return tuple(checks), pending, decisions


class FlatPlan:
    """The compiled execution plan of one spec (cached on the spec)."""

    def __init__(self, spec: IdiomSpec):
        from .solver import compile_spec

        self.spec = spec
        compiled = compile_spec(spec)
        order = spec.label_order
        self.order = order
        self.slot_of = {label: i for i, label in enumerate(order)}
        self.prefix_sets = [
            frozenset(order[:k]) for k in range(len(order) + 1)
        ]
        conjuncts = compiled.conjuncts
        labelsets = compiled.labelsets

        #: Schedule slots eliminated by the redundancy pass, summed over
        #: all depths (and replay slices) — a static property of the
        #: plan, charged once per search to ``SolverStats``.
        self.conjuncts_pruned = 0
        #: The typed record of every eliminated slot (one
        #: :class:`PruneDecision` per ``conjuncts_pruned`` unit), in
        #: compile order — consumed by the lint pass.
        self.pruning_decisions: list[PruneDecision] = []
        self.steps: list[PlanStep] = []
        for k, label in enumerate(order):
            bound_after = set(order[: k + 1])
            bound_before = frozenset(order[:k])
            # Conjuncts that propose for this depth's label and whose
            # proposals pre-satisfy their own partial check: candidates
            # come from the proposal intersection, so these checks are
            # implied and compile away.
            implied = {
                id(conjuncts[i])
                for i in compiled.proposers.get(label, ())
                if conjuncts[i].propose_implies_partial(bound_before, label)
            }
            checks, tail, decisions = _compile_slice(
                (
                    (i, conjuncts[i], labelsets[i])
                    for i in compiled.schedule[k]
                ),
                self.slot_of,
                lambda labelset, _b=bound_after: labelset & _b,
                where="depth",
                depth=k,
                implied=implied or None,
            )
            self.conjuncts_pruned += len(decisions)
            self.pruning_decisions.extend(decisions)
            proposers = []
            for i in compiled.proposers.get(label, ()):
                key_pairs = tuple(
                    (l, self.slot_of[l])
                    for l in sorted(labelsets[i])
                    if l in bound_before
                )
                const_key = (
                    (conjuncts[i], label, ()) if not key_pairs else None
                )
                single = key_pairs[0] if len(key_pairs) == 1 else None
                double = None
                if len(key_pairs) == 2:
                    (l0, s0), (l1, s1) = key_pairs
                    double = (l0, s0, l1, s1)
                proposers.append(
                    (conjuncts[i], key_pairs, const_key, single, double)
                )
            proposers = tuple(proposers)
            self.steps.append(
                PlanStep(label, k, CheckChain(checks, tail), proposers)
            )

        #: Depth → label table, used when flushing per-depth candidate
        #: statistics into ``SolverStats`` after a search.
        self.step_label = [s.label for s in self.steps]

        # -- full-prefix replay (mirrors the interpreted engine) ----------
        self.prefix_len = compiled.prefix_len
        self.replay_chain: CheckChain | None = None
        if self.prefix_len:
            prefix_set = set(order[: self.prefix_len])
            base_keys = self._base_established_keys(spec.base, prefix_set)
            checks, tail, decisions = _compile_slice(
                (
                    (i, conjuncts[i], labelsets[i])
                    for i in compiled.replay_indices
                ),
                self.slot_of,
                lambda labelset, _p=prefix_set: labelset & _p,
                where="replay",
                depth=self.prefix_len,
                known_keys=base_keys,
            )
            self.conjuncts_pruned += len(decisions)
            self.pruning_decisions.extend(decisions)
            self.replay_chain = CheckChain(checks, tail)

        # -- partial-prefix trie replay -----------------------------------
        self.partial_base: IdiomSpec | None = None
        self.partial_len = 0
        self.partial_chain: CheckChain | None = None
        if not self.prefix_len:
            self._compile_partial_prefix(compiled, conjuncts, labelsets)

        # -- specialized search function ----------------------------------
        # The search binds into a per-plan slot buffer (all-unbound
        # between searches — every exit path of the generated function
        # restores it), so detect_plan allocates nothing per call.
        self._slots = [_UNBOUND] * len(order)
        self._view = SlotView(self._slots, self.slot_of, order)
        self.search_src, self.search = _codegen_search(self)

    @staticmethod
    def _base_established_keys(base, prefix_set):
        """Structural keys known to hold on every replayed base tuple —
        the keys (and implications) of base conjuncts fully bound
        within the prefix — mapped to the establishing conjunct (for
        the pruning record's provenance)."""
        from .core import constraint_labels, top_level_conjuncts

        keys: dict = {}
        for conjunct in top_level_conjuncts(base.constraint):
            if set(constraint_labels(conjunct)) <= prefix_set:
                key = conjunct.structural_key()
                if key is not None:
                    keys.setdefault(key, conjunct)
                    for implied_key in conjunct.implied_structural_keys():
                        keys.setdefault(implied_key, conjunct)
        return keys

    def _compile_partial_prefix(self, compiled, conjuncts, labelsets):
        """Index the mid-order shared prefix with the declared base.

        Engaged when full-prefix replay is unavailable (the orders
        diverge before the base's order ends) but a proper shared
        prefix remains and the base's conjunct objects appear verbatim
        — the ICSL ``extends`` guarantee that makes the base's
        depth-``d`` frontier a sound stand-in for this spec's own
        prefix search.
        """
        spec = self.spec
        base = spec.declared_base
        if base is None or spec.base is not None:
            return
        depth = spec.shared_prefix_len()
        if depth == 0:
            return
        from .core import top_level_conjuncts

        base_conjuncts = top_level_conjuncts(base.constraint)
        own_ids = {id(c) for c in conjuncts}
        if any(id(c) not in own_ids for c in base_conjuncts):
            return  # conjuncts were rebuilt, not shared: cannot replay
        base_ids = {id(c) for c in base_conjuncts}
        prefix_set = set(self.order[:depth])
        base_keys = self._base_established_keys(base, prefix_set)
        replay = [
            (i, conjuncts[i], labelsets[i])
            for i in range(len(conjuncts))
            if id(conjuncts[i]) not in base_ids
            and (labelsets[i] & prefix_set)
        ]
        checks, tail, decisions = _compile_slice(
            replay,
            self.slot_of,
            lambda labelset, _p=prefix_set: labelset & _p,
            where="partial",
            depth=depth,
            known_keys=base_keys,
        )
        self.conjuncts_pruned += len(decisions)
        self.pruning_decisions.extend(decisions)
        self.partial_base = base
        self.partial_len = depth
        self.partial_chain = CheckChain(checks, tail)


def _codegen_search(plan: FlatPlan):
    """Generate and compile the specialized search function of a plan.

    The final lowering stage: instead of interpreting the per-depth
    step tables with a generic recursive loop, emit one Python function
    per plan — a ladder of per-depth closures whose slot indices,
    proposal memo-key shapes, check chains and counter deltas are baked
    in as source-level constants — then ``compile``/``exec`` it once
    and cache the function on the plan.  Per search node this removes
    every table index, the check-dispatch loop (lowered to a nested
    ``if`` chain), and all constant arithmetic on the statistics
    counters.  Semantics are unchanged: the generated function is the
    same search the generic loop ran, so the engine stays bit-identical
    to the interpreted oracle.

    Returns ``(source, function)``.  The function signature is

    ``_search(ctx, slots, view, memo, isect_memo, depth_memo, universe,
    results, limit_v, stop_depth, stats, mode, frontier)``

    and it flushes all search counters and per-depth candidate
    statistics straight into ``stats`` (the dict keys are compile-time
    constants).  ``mode`` selects a fresh search from depth 0 (``0``),
    a full-prefix replay of ``frontier`` (``1``), or a partial-prefix
    trie replay (``2``); the replay bodies are specialized per plan —
    binder slots, check chain and entry depth are baked in.
    """
    order = plan.order
    nslots = len(order)
    env: dict = {
        "order": order,
        "slot_of": plan.slot_of,
        "_UNBOUND": _UNBOUND,
        "_NO_LIMIT": _NO_LIMIT,
        "intersect_proposals": intersect_proposals,
    }
    lines: list[str] = []

    def w(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    def emit_rows(ind: int, k: int, rows, label: str) -> None:
        for i, (conjunct, key_pairs, const_key, single,
                double) in enumerate(rows):
            cname = f"c{k}_{i}"
            env[cname] = conjunct
            if const_key is not None:
                kname = f"key{k}_{i}"
                env[kname] = const_key
                key_expr = kname
            elif single is not None:
                l, s = single
                key_expr = f"({cname}, {label!r}, (({l!r}, id(slots[{s}])),))"
            elif double is not None:
                l0, s0, l1, s1 = double
                key_expr = (
                    f"({cname}, {label!r}, (({l0!r}, id(slots[{s0}])), "
                    f"({l1!r}, id(slots[{s1}]))))"
                )
            else:
                pname = f"pairs{k}_{i}"
                env[pname] = key_pairs
                key_expr = (
                    f"({cname}, {label!r}, "
                    f"tuple((l, id(slots[s])) for l, s in {pname}))"
                )
            w(ind, f"key = {key_expr}")
            w(ind, "try:")
            w(ind + 1, "cand = memo[key]")
            w(ind + 1, "n_hits += 1")
            w(ind, "except KeyError:")
            w(ind + 1, f"cand = {cname}.propose(ctx, view, {label!r})")
            w(ind + 1, "if cand is not None:")
            w(ind + 2, "cand = list(cand)")
            w(ind + 1, "memo[key] = cand")
            w(ind, "if cand is not None:")
            w(ind + 1, "proposals.append(cand)")

    def emit_loop(ind: int, k: int, chain: CheckChain, slot: int) -> None:
        fns_count = len(chain.fns)
        fail = chain.fail_pruned
        passp = chain.pass_pruned
        w(ind, "for value in candidates:")
        w(ind + 1, f"slots[{slot}] = value")
        w(ind + 1, "n_tried += 1")

        def descend(j: int) -> None:
            if passp:
                w(ind + 1 + j, f"n_pruned += {passp}")
            w(ind + 1 + j, f"if not cont{k}():")
            w(ind + 2 + j, f"slots[{slot}] = _UNBOUND")
            w(ind + 2 + j, "return False")

        if fns_count == 0:
            descend(0)
        else:
            def nest(i: int) -> None:
                if i == fns_count:
                    w(ind + 1 + i, f"n_evals += {fns_count}")
                    descend(i)
                    return
                w(ind + 1 + i, f"if f{k}_{i}(ctx, slots, view):")
                nest(i + 1)
                w(ind + 1 + i, "else:")
                w(ind + 2 + i, f"n_evals += {i + 1}")
                if fail[i]:
                    w(ind + 2 + i, f"n_pruned += {fail[i]}")
                w(ind + 2 + i, "n_rejected += 1")

            nest(0)
        w(ind, f"slots[{slot}] = _UNBOUND")
        w(ind, "return True")

    w(0, "def _search(ctx, slots, view, memo, isect_memo, depth_memo,")
    w(0, "            universe, results, limit_v, stop_depth, stats,")
    w(0, "            mode, frontier):")
    for name in ("n_tried", "n_evals", "n_pruned", "n_rejected",
                 "n_hits", "n_fallbacks", "n_solutions"):
        w(1, f"{name} = 0")
    for k in range(nslots):
        w(1, f"nv{k} = 0")
        w(1, f"nc{k} = 0")
    w(1, "order_prefix = order[:stop_depth]")
    w(1, "def emit():")
    w(2, "nonlocal n_solutions")
    w(2, "if len(results) >= limit_v:")
    w(3, "return False")
    w(2, "results.append(dict(zip(order_prefix, slots)))")
    w(2, "n_solutions += 1")
    w(2, "return True")

    for k, step in enumerate(plan.steps):
        chain = step.chain
        env[f"step{k}"] = step
        for i, fn in enumerate(chain.fns):
            env[f"f{k}_{i}"] = fn
        rows = step.proposers
        label = step.label
        w(1, f"def d{k}():")
        w(2, "nonlocal n_tried, n_evals, n_pruned, n_rejected, "
             f"n_hits, n_fallbacks, nv{k}, nc{k}")
        w(2, "if len(results) >= limit_v:")
        w(3, "return False")
        if rows:
            ids = ", ".join(f"id(slots[{s}])" for s in step.dep_slots)
            inner = f"({ids},)" if len(step.dep_slots) == 1 else f"({ids})"
            w(2, f"dkey = (step{k}, {inner})")
            w(2, "entry = depth_memo.get(dkey)")
            w(2, "if entry is not None:")
            w(3, "candidates, fu = entry")
            w(3, f"n_hits += {len(rows)}")
            w(3, "if fu:")
            w(4, "n_fallbacks += 1")
            w(2, "else:")
            w(3, "proposals = []")
            emit_rows(3, k, rows, label)
            w(3, "if proposals:")
            w(4, "if len(proposals) == 1:")
            w(5, "candidates = proposals[0]")
            w(4, "else:")
            w(5, "ikey = tuple(map(id, proposals))")
            w(5, "candidates = isect_memo.get(ikey)")
            w(5, "if candidates is None:")
            w(6, "candidates = intersect_proposals(proposals)")
            w(6, "isect_memo[ikey] = candidates")
            w(4, "fu = False")
            w(3, "else:")
            w(4, "candidates = universe")
            w(4, "n_fallbacks += 1")
            w(4, "fu = True")
            w(3, "depth_memo[dkey] = (candidates, fu)")
        else:
            w(2, "candidates = universe")
            w(2, "n_fallbacks += 1")
        w(2, f"nv{k} += 1")
        w(2, f"nc{k} += len(candidates)")
        emit_loop(2, k, chain, step.slot)

    for k in range(nslots):
        if k + 1 < nslots:
            w(1, f"cont{k} = d{k + 1} if stop_depth > {k + 1} else emit")
        else:
            w(1, f"cont{k} = emit")

    def emit_replay(mname: str, chain: CheckChain, start: int) -> None:
        fnames = []
        for i, fn in enumerate(chain.fns):
            env[f"{mname}_f{i}"] = fn
            fnames.append(f"{mname}_f{i}")
        entry = f"d{start}" if start < nslots else "emit"
        m = len(fnames)
        w(1, f"def {mname}():")
        w(2, "nonlocal n_evals, n_pruned, n_rejected")
        w(2, "for node in frontier:")
        w(3, "if len(results) >= limit_v:")
        w(4, "break")
        for i in range(start):
            w(3, f"slots[{i}] = node[{order[i]!r}]")
        if m == 0:
            if chain.pass_pruned:
                w(3, f"n_pruned += {chain.pass_pruned}")
            w(3, f"{entry}()")
        else:
            def nest(i: int) -> None:
                if i == m:
                    w(3 + i, f"n_evals += {m}")
                    if chain.pass_pruned:
                        w(3 + i, f"n_pruned += {chain.pass_pruned}")
                    w(3 + i, f"{entry}()")
                    return
                w(3 + i, f"if {fnames[i]}(ctx, slots, view):")
                nest(i + 1)
                w(3 + i, "else:")
                w(4 + i, f"n_evals += {i + 1}")
                if chain.fail_pruned[i]:
                    w(4 + i, f"n_pruned += {chain.fail_pruned[i]}")
                w(4 + i, "n_rejected += 1")

            nest(0)
        w(2, f"for i in range({nslots}):")
        w(3, "slots[i] = _UNBOUND")

    if plan.replay_chain is not None:
        emit_replay("replay1", plan.replay_chain, plan.prefix_len)
    if plan.partial_chain is not None:
        emit_replay("replay2", plan.partial_chain, plan.partial_len)

    w(1, "if mode == 0:")
    if nslots:
        w(2, "if stop_depth:")
        w(3, "d0()")
        w(2, "else:")
        w(3, "emit()")
    else:
        w(2, "emit()")
    if plan.replay_chain is not None:
        w(1, "elif mode == 1:")
        w(2, "replay1()")
    if plan.partial_chain is not None:
        w(1, "elif mode == 2:")
        w(2, "replay2()")

    # Statistics flush: straight-line stores with the per-depth dict
    # keys ((label, bound-prefix) pairs) baked as constants.
    if nslots:
        w(1, "per_label = stats.candidates_per_label")
        w(1, "per_prefix = stats.candidates_per_prefix")
    for k, step in enumerate(plan.steps):
        label = step.label
        pname = f"pkey{k}"
        env[pname] = (label, plan.prefix_sets[k])
        w(1, f"if nv{k}:")
        w(2, f"per_label[{label!r}] = per_label.get({label!r}, 0) + nc{k}")
        w(2, f"prev = per_prefix.get({pname})")
        w(2, "if prev is None:")
        w(3, f"per_prefix[{pname}] = (nv{k}, nc{k})")
        w(2, "else:")
        w(3, f"per_prefix[{pname}] = (prev[0] + nv{k}, prev[1] + nc{k})")
    w(1, "stats.assignments_tried += n_tried")
    w(1, "stats.constraint_evals += n_evals")
    w(1, "stats.evals_pruned += n_pruned")
    w(1, "stats.partial_rejections += n_rejected")
    w(1, "stats.proposal_cache_hits += n_hits")
    w(1, "stats.fallbacks_to_universe += n_fallbacks")
    w(1, "stats.solutions += n_solutions")

    src = "\n".join(lines)
    name = getattr(plan.spec, "name", "spec")
    code = compile(src, f"<flatplan:{name}>", "exec")
    exec(code, env)
    return src, env["_search"]


def compile_plan(spec: IdiomSpec) -> FlatPlan:
    """The flat plan of ``spec`` (cached on the spec object)."""
    plan = getattr(spec, "_plan", None)
    if plan is None or plan.spec is not spec:
        plan = FlatPlan(spec)
        spec._plan = plan
    return plan


def detect_plan(
    ctx: SolverContext,
    spec: IdiomSpec,
    stats=None,
    limit: int | None = None,
    cache=None,
    _frontier_depth: int | None = None,
):
    """All assignments satisfying ``spec`` — the compiled engine.

    Drop-in equivalent of :func:`~repro.constraints.solver.detect`:
    identical solutions in identical order, identical search counters
    (``assignments_tried``, ``partial_rejections``, ``solutions``,
    ``fallbacks_to_universe``, candidate statistics, proposal cache
    hits, prefix reuses), and ``constraint_evals + evals_pruned`` equal
    to the interpreted engine's ``constraint_evals``.

    ``_frontier_depth`` is internal: enumerate the depth-``d`` search
    frontier (partial assignments of the first ``d`` labels) instead of
    full solutions — the producer of the shared prefix trie.
    """
    from .solver import SolverStats

    plan = compile_plan(spec)
    stats = stats if stats is not None else SolverStats()
    cache = cache if cache is not None else ctx.solver_cache
    nslots = len(plan.order)
    results: list[dict[str, Value]] = []
    stats.conjuncts_pruned += plan.conjuncts_pruned
    stop_depth = nslots if _frontier_depth is None else _frontier_depth
    limit_v = _NO_LIMIT if limit is None else limit

    # Resolve replay up front; the generated search function then runs
    # a fresh depth-0 search (mode 0), a full-prefix replay (mode 1)
    # or a partial-prefix trie replay (mode 2) — the replay bodies are
    # specialized into the function alongside the depth ladder.
    mode = 0
    frontier = None
    if _frontier_depth is None:
        if plan.prefix_len:
            prefix = _base_solutions(ctx, spec, stats, cache, limit)
            if prefix is not None:
                stats.prefix_reuses += 1
                mode = 1
                frontier = prefix
        elif plan.partial_base is not None:
            shared = _partial_frontier(ctx, plan, stats, cache, limit)
            if shared is not None:
                stats.trie_reuses += 1
                mode = 2
                frontier = shared

    plan.search(
        ctx,
        plan._slots,
        plan._view,
        cache.proposal_memo,
        cache.intersection_memo,
        cache.depth_memo,
        ctx.universe,
        results,
        limit_v,
        stop_depth,
        stats,
        mode,
        frontier,
    )
    return results


def _base_solutions(ctx, spec, stats, cache, limit):
    """Solved base-prefix tuples, or None — the plan-engine twin of
    :func:`~repro.constraints.solver._base_prefix_solutions` (same
    cache slot, same charge-the-first-caller accounting, same
    ``limit`` gate)."""
    from .solver import SolverStats

    base = spec.base
    solutions = cache.solutions_for(base)
    if solutions is None:
        if limit is not None:
            return None
        base_stats = SolverStats()
        solutions = detect_plan(ctx, base, stats=base_stats, cache=cache)
        cache.store_solutions(base, solutions)
        base_stats.solutions = 0
        base_stats.prefix_reuses = 0
        stats.merge(base_stats)
    return solutions


def _partial_frontier(ctx, plan, stats, cache, limit):
    """The declared base's depth-``d`` search frontier, or None.

    Computed at most once per cache by a truncated plan search of the
    base spec (effort charged to the requester, like full-prefix
    replay); a ``limit``-bounded search only ever replays a frontier
    some unbounded search already paid for.
    """
    from .solver import SolverStats

    key = (plan.partial_base, plan.partial_len)
    frontier = cache.prefix_trie.get(key)
    if frontier is None:
        if limit is not None:
            return None
        base_stats = SolverStats()
        frontier = detect_plan(
            ctx,
            plan.partial_base,
            stats=base_stats,
            cache=cache,
            _frontier_depth=plan.partial_len,
        )
        cache.prefix_trie[key] = frontier
        base_stats.solutions = 0
        base_stats.prefix_reuses = 0
        stats.merge(base_stats)
    return frontier
