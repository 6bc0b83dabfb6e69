"""The four request kinds the workloads are made of.

Each kind owns its set-up and runs one *pass*: every program of its
list once, in a seeded order, one request at a time (closed loop, one
caller).  ``run_pass`` takes an optional :class:`~tracing.Tracer`; with
one, spans are recorded around the calls into each layer.  Every
request's output is checked against hand-written ground truth and
recorded in a :class:`~common.Ledger`.

* :class:`CorpusKind`  — in-process ``detect_program`` (``jobs=1``).
* :class:`CliKind`     — one fresh ``python -m repro detect FILE.c``.
* :class:`ServeKind`   — ``python -m repro gateway`` in its own process,
  one connection with a whole-corpus batch outstanding.
* :class:`ExploitKind` — detect, plan, outline, run serially and on the
  simulated 64-core machine.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import common

_NULL = contextlib.nullcontext()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else _NULL


class Progress:
    """The timed clock of a run, plus set-up samples spread across it.

    ``setup()`` performs one set-up and returns its seconds.  Sample
    ``j`` of ``samples`` is taken as soon as the timed clock reaches
    ``j * seconds / samples``, between requests, so the samples cover
    the whole run; their time is not on the timed clock.
    """

    def __init__(self, seconds: float, setup, samples: int):
        self.seconds = seconds
        self.setup = setup
        self.samples = samples
        self.setups: list[float] = []
        self.timed = 0.0
        self.programs = 0
        self.due()

    def add(self, seconds: float, programs: int = 1) -> None:
        self.timed += seconds
        self.programs += programs
        self.due()

    def due(self) -> None:
        while (self.setup is not None
               and len(self.setups) < self.samples
               and self.timed >= len(self.setups) * self.seconds
               / self.samples):
            self.setups.append(self.setup())

    @property
    def done(self) -> bool:
        return self.timed >= self.seconds

    def finish(self) -> None:
        while self.setup is not None and len(self.setups) < self.samples:
            self.setups.append(self.setup())


def _request(ledger, progress, key, fn):
    """Time ``fn()``; an exception is a failed request."""
    started = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - every crash is a failure
        seconds = time.perf_counter() - started
        ledger.record(seconds, f"{key}: {type(exc).__name__}: {exc}")
        if progress is not None:
            progress.add(seconds)
        return None, seconds
    seconds = time.perf_counter() - started
    if progress is not None:
        progress.add(seconds)
    return result, seconds


# -- corpus-serial -----------------------------------------------------------

#: The warm-up request of the corpus kind (runs every idiom spec, so
#: plan code generation is paid in set-up).
CORPUS_WARMUP_KEY = ("EP", "NAS")


class CorpusKind:
    name = "corpus"

    def __init__(self):
        common.import_repro()
        from repro.idioms.registry import IdiomRegistry
        from repro.pipeline import PipelineOptions
        from repro.pipeline.worker import detect_program
        from repro.workloads import corpus_keys

        self.detect_program = detect_program
        self.options = PipelineOptions(jobs=1, extended=True)
        self.registry = IdiomRegistry()
        self.keys = corpus_keys()
        detect_program(CORPUS_WARMUP_KEY, self.options, self.registry)
        self._references: dict = {}

    def run_pass(self, order, ledger, progress=None, tracer=None) -> None:
        totals = [0, 0]
        for key in order:
            if tracer is None:
                digest, seconds = _request(
                    ledger, progress, key,
                    lambda: self.detect_program(key, self.options,
                                                self.registry))
                problem = None
            else:
                reference = self._reference(key)
                traced, seconds = _request(
                    ledger, progress, key,
                    lambda: self._traced_request(key, tracer))
                digest, problem = (None, None) if traced is None else (
                    traced[0], _compare(key, traced, reference))
            if digest is None:
                continue
            counts = digest.counts()
            totals[0] += counts[0]
            totals[1] += counts[1]
            if problem is not None:
                ledger.record(seconds, problem)
            else:
                ledger.check_counts(key, seconds, counts)
        ledger.check_pass_totals(totals)

    def _reference(self, key):
        """Untimed: ``detect_program``'s digest and ``compile_source``'s
        IR, which the traced decomposition must reproduce exactly."""
        if key not in self._references:
            from repro.frontend import compile_source
            from repro.ir.printer import print_module
            from repro.workloads import program

            bench = program(*key)
            self._references[key] = (
                self.detect_program(key, self.options, self.registry),
                _canonical_ir(print_module(
                    compile_source(bench.source, bench.name))),
            )
        return self._references[key]

    def _traced_request(self, key, tracer):
        """``detect_program`` spelled out as calls into each layer —
        the same sequence as ``compile_source`` and ``detect_unit``."""
        from repro import frontend
        from repro.frontend import parser as parser_module
        from repro.idioms import detect as detect_module
        from repro.idioms.extensions import find_extended_in_function
        from repro.ir import verify_module
        from repro.ir.printer import print_module
        from repro.passes.cse import local_cse
        from repro.passes.licm import hoist_invariant_loads
        from repro.passes.mem2reg import promote_allocas
        from repro.passes.simplify import (
            dead_code_elimination,
            merge_straightline_blocks,
            remove_trivial_phis,
            remove_unreachable_blocks,
        )
        from repro.pipeline.digest import (
            UnitDigest,
            assemble_program,
            digest_extensions,
            digest_function,
            program_to_json,
        )
        from repro.workloads import program

        bench = program(*key)
        with contextlib.ExitStack() as stack:
            stack.enter_context(tracer.wrap(
                parser_module, "tokenize", "frontend.lex",
                lambda tokens: [("frontend.tokens", len(tokens))]))
            stack.enter_context(tracer.wrap(
                detect_module, "SolverContext", "constraints.context"))
            stack.enter_context(tracer.request_scope(key))
            with tracer.span("frontend.parse"):
                ast = frontend.parse(bench.source)
            with tracer.span("frontend.lower"):
                module = frontend.lower_program(ast, bench.name)
            with tracer.span("passes"):
                for function in module.defined_functions():
                    remove_unreachable_blocks(function)
                    promote_allocas(function)
                    dead_code_elimination(function)
                    remove_trivial_phis(function)
                    merge_straightline_blocks(function)
                    hoist_invariant_loads(function)
                    local_cse(function)
            with tracer.span("ir.verify"):
                verify_module(module)
                tracer.count("ir.instructions", sum(
                    len(block.instructions)
                    for function in module.defined_functions()
                    for block in function.blocks))
            functions, extended, spec_stats = [], (), {}
            for function in module.defined_functions():
                with tracer.span("idioms.detect"):
                    fr = detect_module.find_reductions_in_function(
                        function, module, registry=self.registry)
                with tracer.span("idioms.extend"):
                    matches = find_extended_in_function(
                        fr.function, module, registry=self.registry,
                        ctx=fr.solver_context, stats=fr.stats,
                        spec_stats=fr.spec_stats)
                with tracer.span("digest"):
                    extended = extended + digest_extensions(matches)
                    functions.append(digest_function(fr))
                for name, stats in fr.spec_stats.items():
                    spec_stats.setdefault(name, type(stats)()).merge(stats)
                tracer.count("constraints.evals", fr.stats.constraint_evals)
                tracer.count("constraints.evals_pruned",
                             fr.stats.evals_pruned)
                tracer.count("constraints.assignments",
                             fr.stats.assignments_tried)
                tracer.count("constraints.solutions", fr.stats.solutions)
            with tracer.span("digest"):
                digest = assemble_program([UnitDigest(
                    name=bench.name, suite=bench.suite, function=None,
                    index=0, total=len(functions),
                    functions=tuple(functions), extended=extended,
                    spec_stats=spec_stats)])
                program_to_json(digest)
        return digest, _canonical_ir(print_module(module))


def _canonical_ir(text: str) -> list:
    """Printed IR with each block's instructions sorted.

    ``hoist_invariant_loads`` walks a loop's block *set*, so the order
    of hoisted loads in a preheader can differ between two compiles of
    the same source (kmeans, sad); everything else must match exactly.
    """
    canonical, block = [], []
    for line in text.splitlines():
        if line.startswith("  "):
            block.append(line)
        else:
            canonical.extend(sorted(block))
            canonical.append(line)
            block = []
    return canonical + sorted(block)


def _compare(key, traced, reference):
    digest, ir_text = traced
    expected_digest, expected_ir = reference
    if ir_text != expected_ir:
        return f"{key}: traced frontend IR differs from compile_source"
    if digest != expected_digest:
        return f"{key}: traced digest differs from detect_program"
    return None


# -- cli-cold ----------------------------------------------------------------

_SUMMARY = re.compile(
    r": (\d+) scalar reduction\(s\), (\d+) histogram reduction\(s\)")


class CliKind:
    """One fresh ``python -m repro detect FILE.c`` per request."""

    name = "cli"

    def __init__(self):
        common.import_repro()
        from repro.workloads import all_programs

        self.programs = {(p.name, p.suite): p.source
                         for p in all_programs()}
        self.keys = list(self.programs)
        self.generation = 0
        self.directory = None

    def setup(self) -> float:
        """Write the corpus to a fresh directory and run the warm-up
        request; returns the seconds taken."""
        started = time.perf_counter()
        self.generation += 1
        directory = os.path.join(common.WORK, f"cli-{self.generation}")
        os.makedirs(directory, exist_ok=True)
        for (name, suite), source in self.programs.items():
            with open(os.path.join(directory, f"{suite}_{name}.c"),
                      "w") as handle:
                handle.write(source)
        warmup = os.path.join(directory, "warmup.c")
        with open(warmup, "w") as handle:
            handle.write(common.WARMUP_SOURCE)
        self.detect(warmup)
        seconds = time.perf_counter() - started
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.directory = directory
        return seconds

    @staticmethod
    def detect(path: str) -> tuple[int, int]:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "detect", path],
            capture_output=True, text=True, env=common.child_env(),
            cwd=common.ROOT, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: "
                               f"{done.stderr.strip()[-200:]}")
        match = _SUMMARY.search(done.stdout)
        if match is None:
            raise RuntimeError("no summary line in CLI output")
        return int(match.group(1)), int(match.group(2))

    def run_pass(self, order, ledger, progress=None, tracer=None) -> None:
        totals = [0, 0]
        for key in order:
            path = os.path.join(self.directory, f"{key[1]}_{key[0]}.c")
            with (tracer.request_scope(key, "cli.request")
                  if tracer is not None else _NULL):
                counts, seconds = _request(ledger, progress, key,
                                           lambda: self.detect(path))
            if counts is None:
                continue
            totals[0] += counts[0]
            totals[1] += counts[1]
            ledger.check_counts(key, seconds, counts)
        ledger.check_pass_totals(totals)


# -- serve-mixed -------------------------------------------------------------

#: The shipped per-connection budget (256 units) is smaller than one
#: whole-corpus batch at function granularity (345 units), so a single
#: connection could never hold the batch and an interactive request at
#: once; the benchmark raises the budget so no request is refused.
UNIT_BUDGET = "1024"


class ServeKind:
    """Interactive single-program requests while a whole-corpus batch
    request is outstanding on the same connection."""

    def __init__(self, granularity: str = "function"):
        common.import_repro()
        from repro.workloads import corpus_keys

        self.granularity = granularity
        self.name = ("serve" if granularity == "function"
                     else f"serve-{granularity}")
        self.keys = corpus_keys()
        self.process = None
        self.client = None
        self.batch = None
        self.batch_checked = 0
        self.batch_programs = 0
        self.batch_units = 0
        self.peak_rss_mb = 0.0
        self.generation = 0
        self.rejections = 0
        #: Warm in-process detection seconds per program (traced runs).
        self.in_process: dict = {}

    # -- gateway lifetime ----------------------------------------------------

    def setup(self) -> float:
        """Replace the gateway with a fresh one, warm its module caches
        with a whole-corpus batch, and submit the outstanding batch.
        Returns the seconds from spawning the interpreter to ready."""
        from repro.pipeline.gateway import GatewayClient

        self.close()
        self.generation += 1
        os.makedirs(common.WORK, exist_ok=True)
        port_file = os.path.join(
            common.WORK, f"port-{os.getpid()}-{self.generation}")
        command = [sys.executable, "-m", "repro", "gateway",
                   "--port-file", port_file, "--unit-budget", UNIT_BUDGET]
        if self.granularity != "function":
            command += ["--granularity", self.granularity]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=common.child_env(), cwd=common.ROOT,
        )
        port = _await_port(port_file, self.process)
        self.client = GatewayClient(port=port, timeout=120)
        self.client.ping()
        warm = self.client.result(self.client.submit(None, "batch"))
        seconds = time.perf_counter() - started
        if warm.counts() != common.FIGURE8_TOTALS:
            raise RuntimeError(f"warm-up batch counts {warm.counts()}")
        self._submit_batch()
        return seconds

    def _submit_batch(self) -> None:
        self.batch = self.client.submit(None, "batch")
        self.batch_units = self.batch.units
        self.batch_checked = 0

    def close(self) -> None:
        if self.process is None:
            return
        try:
            if self.client is not None:
                if self.batch is not None and not self.batch.done:
                    self.client.cancel(self.batch)
                self.client.close()
        except Exception:  # noqa: BLE001 - the gateway goes away anyway
            pass
        self.client = self.batch = None
        self.peak_rss_mb = max(self.peak_rss_mb,
                               common.tree_peak_rss_mb(self.process.pid))
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.process = None

    # -- traffic -------------------------------------------------------------

    def _drain_batch(self, ledger, progress) -> None:
        """Check the batch digests that arrived; resubmit when done."""
        batch = self.batch
        fresh = batch.digests[self.batch_checked:]
        self.batch_checked += len(fresh)
        for digest in fresh:
            ledger.check_counts(digest.key, None, digest.counts())
        self.batch_programs += len(fresh)
        if progress is not None:
            progress.programs += len(fresh)
        if batch.done:
            try:
                report = self.client.result(batch)
                ledger.check_pass_totals(report.counts())
            except Exception as exc:  # noqa: BLE001
                ledger.record(None, f"batch: {type(exc).__name__}: {exc}")
            self._submit_batch()

    def run_pass(self, order, ledger, progress=None, tracer=None) -> None:
        if tracer is not None:
            with tracer.span("gateway.ping"):
                self.client.ping()
        for key in order:
            client = self.client

            def interactive():
                from repro.pipeline.gateway import GatewayRejected

                try:
                    with _span(tracer, "gateway.admit"):
                        request = client.submit([key], "interactive")
                except GatewayRejected:
                    self.rejections += 1
                    raise
                report = client.result(request)
                if len(report.programs) != 1:
                    raise RuntimeError("expected one program")
                return report.programs[0].counts()

            with (tracer.request_scope(key, "serving.interactive")
                  if tracer is not None else _NULL):
                counts, seconds = _request(ledger, None, key, interactive)
            if counts is not None:
                ledger.check_counts(key, seconds, counts)
            self._drain_batch(ledger, progress)
            if progress is not None:
                # Last: a due set-up sample replaces the gateway.
                progress.add(seconds)


def _await_port(port_file: str, process, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"gateway exited with {process.returncode}")
        try:
            with open(port_file) as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.005)
    raise RuntimeError("gateway did not publish its port")


# -- exploit -----------------------------------------------------------------


class ExploitKind:
    """Detect → plan → outline → serial run → simulated parallel run."""

    name = "exploit"
    threads = 64

    def __init__(self):
        common.import_repro()
        from repro.runtime import MachineModel

        self.machine = MachineModel(cores=self.threads)
        self.keys = [name for name, _, _ in common.EXPLOIT_PROGRAMS]
        self.expected = {name: (plans, refused)
                         for name, plans, refused in common.EXPLOIT_PROGRAMS}
        #: Sequential over simulated parallel cycles, per program.
        self.speedups: dict[str, float] = {}
        self._chain(common.WARMUP_SOURCE, "warmup", None)

    def _chain(self, source, name, tracer):
        from repro.frontend import compile_source
        from repro.idioms import find_reductions
        from repro.runtime import ParallelExecutor, run_sequential
        from repro.transform import outline_loop, plan_all

        with _span(tracer, "frontend.compile"):
            module = compile_source(source, name)
        with _span(tracer, "idioms.find_reductions"):
            report = find_reductions(module)
        plans, refusals = [], []
        with _span(tracer, "transform.plan"):
            for function_reductions in report.functions:
                made, failed = plan_all(module, function_reductions)
                plans.extend(made)
                refusals.extend(failed)
        with _span(tracer, "transform.outline"):
            tasks = [outline_loop(module, plan) for plan in plans]
        outcome = {"counts": report.counts(), "plans": len(plans),
                   "refusals": [str(f) for f in refusals]}
        if tracer is not None:
            tracer.count("transform.plans", len(plans))
            tracer.count("transform.refusals", len(refusals))
        if refusals:
            return outcome  # refused: the original code runs unchanged
        with _span(tracer, "runtime.seq"):
            _, memory, interp = run_sequential(module)
        with _span(tracer, "runtime.parallel"):
            parallel = ParallelExecutor(module, tasks,
                                        threads=self.threads).run()
        sequential = interp.instructions_executed
        simulated = parallel.simulated_time(self.machine)
        outcome["match"] = _same_results(
            interp.output, parallel.output, memory.snapshot(),
            parallel.memory.snapshot())
        outcome["speedup"] = sequential / simulated
        if tracer is not None:
            tracer.count("runtime.instructions", sequential
                         + parallel.sequential_cost
                         + sum(r.total_work() for r in parallel.regions))
            tracer.count("runtime.sim_cycles", simulated)
        return outcome

    def run_pass(self, order, ledger, progress=None, tracer=None) -> None:
        from repro.workloads import program

        for name in order:
            bench = program(name)
            with (tracer.request_scope(name, "exploit.request")
                  if tracer is not None else _NULL):
                outcome, seconds = _request(
                    ledger, progress, name,
                    lambda: self._chain(bench.source, bench.name, tracer))
            if outcome is not None:
                ledger.record(seconds, self._problem(name, bench, outcome))

    def _problem(self, name, bench, outcome):
        expectation = bench.expectation
        counts = (expectation.ours_scalars, expectation.ours_histograms)
        plans, refused = self.expected[name]
        if outcome["counts"] != counts:
            return f"{name}: counts {outcome['counts']} != {counts}"
        if outcome["plans"] != plans or len(outcome["refusals"]) != refused:
            return (f"{name}: {outcome['plans']} plan(s), "
                    f"{len(outcome['refusals'])} refusal(s); expected "
                    f"{plans} and {refused}")
        if refused:
            if not all(common.KMEANS_REFUSAL in reason
                       for reason in outcome["refusals"]):
                return f"{name}: unexpected refusal {outcome['refusals']}"
            return None
        if not outcome["match"]:
            return f"{name}: parallel run differs from the serial run"
        self.speedups[name] = outcome["speedup"]
        return None


def _same_results(seq_output, par_output, seq_memory, par_memory) -> bool:
    if len(seq_output) != len(par_output):
        return False
    for a, b in zip(seq_output, par_output):
        if a != b and not _close_values(a, b, 1e-4):
            return False
    if seq_memory.keys() != par_memory.keys():
        return False
    for name, values in seq_memory.items():
        other = par_memory[name]
        if len(values) != len(other):
            return False
        if any(not math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)
               for a, b in zip(values, other)):
            return False
    return True


def _close_values(a: str, b: str, tolerance: float) -> bool:
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-6,
                            abs_tol=tolerance)
    except ValueError:
        return False
