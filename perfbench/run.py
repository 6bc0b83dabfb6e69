"""Discovery-and-exploitation benchmark for ``repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus-serial --seed 1 \\
        --seconds 15 --trace 0

Workloads (closed loop, one caller; every pass is a seeded shuffle of a
whole program list, so every seed sees the same program mix):

``corpus-serial``  in-process ``detect_program`` over the 40-program
                   corpus (``jobs=1``, extended idioms);
``cli-cold``       one fresh ``python -m repro detect FILE.c`` per
                   corpus program;
``serve-mixed``    ``python -m repro gateway`` (2 workers, function
                   granularity); one connection keeps a whole-corpus
                   batch outstanding and sends single-program
                   interactive requests;
``exploit``        detect → plan → outline → serial run → simulated
                   64-core run over Figure 15's EP and histo, plus
                   kmeans, which the transform must refuse.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with alternating untraced and traced passes (the ratio of
their throughputs is the tracing overhead), adds one traced pass of
every other request kind plus the gateway at program granularity, and
prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any
wrong output, crash, non-zero exit or refused request is a failed
operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

import common
import kinds
from tracing import Tracer

#: workload → (kind, set-up samples per run, set-up taken by a child
#: interpreter).  In-process workloads time a fresh interpreter doing
#: the same set-up (imports, registry, warm-up request); the others'
#: set-up is itself a fresh interpreter (the warm-up CLI call, or a new
#: gateway warmed with a whole-corpus batch).
WORKLOADS = {
    "corpus-serial": (kinds.CorpusKind, 5, True),
    "cli-cold": (kinds.CliKind, 5, False),
    "serve-mixed": (kinds.ServeKind, 3, False),
    "exploit": (kinds.ExploitKind, 3, True),
}

#: Traced passes per request kind in a ``--trace 1`` run; three
#: interactive passes give the gateway p90 ten samples beyond it.
TRACED_PASSES = {"corpus": 1, "exploit": 1, "serve": 3,
                 "serve-program": 3}


def load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def probe_setup(workload: str) -> float:
    """Seconds from spawning an interpreter to a finished in-process
    set-up of ``workload`` (run by ``--setup-probe``)."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(common.HERE, "run.py"),
         "--setup-probe", workload],
        stdout=subprocess.PIPE, text=True, cwd=common.ROOT,
    )
    line = child.stdout.readline()
    seconds = time.perf_counter() - started
    child.communicate(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe of {workload} failed")
    return seconds


def _make(workload: str):
    kind_class, samples, in_process = WORKLOADS[workload]
    kind = kind_class()
    setup = ((lambda: probe_setup(workload)) if in_process
             else kind.setup)
    return kind, setup, samples


def _peak_rss_mb(kind) -> float:
    if isinstance(kind, kinds.ServeKind):
        return kind.peak_rss_mb
    if isinstance(kind, kinds.CliKind):
        return common.rss_children_mb()
    return common.rss_self_mb()


def _close(kind) -> None:
    close = getattr(kind, "close", None)
    if close is not None:
        close()


# -- end-to-end run ----------------------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float):
    """Single-process workloads run pinned to one CPU next to a
    :class:`~common.Speedometer`, and their times are scaled to the
    reference box.  serve-mixed spreads over both CPUs (two workers,
    the gateway, the client) and reports unscaled times."""
    ledger = common.Ledger()
    meter = None
    if workload != "serve-mixed":
        common.pin_to_one_cpu()
        meter = common.Speedometer()
    try:
        kind, setup, samples = _make(workload)
        try:
            progress = kinds.Progress(seconds, setup, samples)
            index = 0
            # An odd number of whole passes: every pass holds the same
            # mix, so the median request is the same kind of request in
            # every run (with exploit's three programs an even count
            # would average two different programs).
            while not progress.done or index % 2 == 0:
                kind.run_pass(common.pass_order(kind.keys, seed, index),
                              ledger, progress)
                index += 1
            progress.finish()
        finally:
            _close(kind)
        factor = 1.0 if meter is None else meter.factor()
    finally:
        if meter is not None:
            meter.close()
    raw = {
        "setup_s": common.median(progress.setups),
        "throughput_pps": progress.programs / progress.timed,
        "latency_p50_ms": 1e3 * common.median(ledger.latencies),
    }
    values = {
        "setup_s": raw["setup_s"] * factor,
        "throughput_pps": raw["throughput_pps"] / factor,
        "latency_p50_ms": raw["latency_p50_ms"] * factor,
        "peak_rss_mb": _peak_rss_mb(kind),
    }
    notes = [f"passes {index}, requests {len(ledger.latencies)}, "
             f"set-up samples {len(progress.setups)}",
             f"speed factor {factor:.4f} from "
             f"{0 if meter is None else meter.samples} samples; "
             "unscaled: " + ", ".join(
                 f"{name} {value:.6g}" for name, value in raw.items())]
    p90, beyond = common.p90_with_tail(ledger.latencies)
    if p90 is not None:
        notes.append(f"latency_p90_ms {1e3 * p90 * factor:.3f} ms "
                     f"({beyond} samples beyond)")
    if isinstance(kind, kinds.ServeKind):
        notes.append("batch_pps "
                     f"{kind.batch_programs / progress.timed:.4f} 1/s")
    if isinstance(kind, kinds.ExploitKind) and kind.speedups:
        notes.append("sim_speedup_geomean "
                     f"{common.geomean(kind.speedups.values()):.6f} x")
    return ledger, values, notes


# -- traced run --------------------------------------------------------------


class TracedRun:
    """Per-layer metrics from spans recorded around each layer call."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = Tracer()
        self.ledger = common.Ledger()
        #: kind name → [timed seconds, programs, batch programs].
        self.totals: dict[str, list] = {}
        self.kinds: dict[str, object] = {}
        self.notes: list[str] = []

    def one_pass(self, kind, index: int, traced: bool) -> None:
        progress = kinds.Progress(0.0, None, 0)
        batch_before = getattr(kind, "batch_programs", 0)
        order = common.pass_order(kind.keys, self.seed, index)
        if traced:
            with self.tracer.traced_pass(kind.name):
                kind.run_pass(order, self.ledger, progress, self.tracer)
        else:
            kind.run_pass(order, self.ledger, progress)
        key = kind.name if traced else kind.name + ":untraced"
        totals = self.totals.setdefault(key, [0.0, 0, 0])
        totals[0] += progress.timed
        totals[1] += progress.programs
        totals[2] += getattr(kind, "batch_programs", 0) - batch_before

    def run(self, workload: str, seconds: float) -> dict:
        kind, _, _ = _make(workload)
        try:
            if not isinstance(kind, (kinds.CorpusKind, kinds.ExploitKind)):
                kind.setup()
            index = 0
            while index < 2 or self._timed(kind.name) < seconds:
                self.one_pass(kind, index, traced=index % 2 == 1)
                index += 1
            untraced = self.totals[kind.name + ":untraced"]
            traced = self.totals[kind.name]
            overhead = ((untraced[1] / untraced[0])
                        / (traced[1] / traced[0]))
            self.notes.append(
                f"untraced {untraced[1] / untraced[0]:.4f} 1/s, traced "
                f"{traced[1] / traced[0]:.4f} 1/s")
            self._finish_kind(kind)
        finally:
            _close(kind)
        for name, passes in TRACED_PASSES.items():
            self._sweep(name, passes)
        metrics = {"trace.overhead_ratio": overhead}
        metrics.update(self._startup())
        metrics.update(self._registry())
        metrics.update(self._layers())
        return metrics

    def span_table(self) -> list[str]:
        """Spans per request kind and name: count and summed self time."""
        rows: dict = {}
        for span in self.tracer.spans:
            row = rows.setdefault((span.kind, span.name), [0, 0.0])
            row[0] += 1
            row[1] += span.self_time
        return [f"span {kind} {name} n={n} self_ms={1e3 * total:.1f}"
                for (kind, name), (n, total) in sorted(rows.items())]

    def _timed(self, name: str) -> float:
        return sum(self.totals.get(key, [0.0])[0]
                   for key in (name, name + ":untraced"))

    def _sweep(self, name: str, passes: int) -> None:
        missing = passes - self.tracer.passes[name]
        if missing <= 0:
            return
        if name == "corpus":
            kind = kinds.CorpusKind()
        elif name == "exploit":
            kind = kinds.ExploitKind()
        else:
            kind = kinds.ServeKind(
                "program" if name == "serve-program" else "function")
        try:
            if isinstance(kind, kinds.ServeKind):
                kind.setup()
            for index in range(missing):
                self.one_pass(kind, index, traced=True)
            self._finish_kind(kind)
        finally:
            _close(kind)

    def _finish_kind(self, kind) -> None:
        """Untimed per-kind measurements taken while the kind is live."""
        self.kinds[kind.name] = kind
        if isinstance(kind, kinds.ServeKind):
            kind.in_process = self._in_process_detection(kind.keys)

    @staticmethod
    def _in_process_detection(keys) -> dict:
        """Warm in-process detection seconds per program, with the
        gateway's options (base idioms, compiled modules cached)."""
        from repro.idioms.registry import IdiomRegistry
        from repro.pipeline import PipelineOptions
        from repro.pipeline.shard import WorkUnit
        from repro.pipeline.worker import ModuleCache, detect_unit

        options, registry = PipelineOptions(), IdiomRegistry()
        modules = ModuleCache()
        seconds = {}
        for key in keys:
            samples = []
            for _ in range(4):
                started = time.perf_counter()
                detect_unit(WorkUnit(*key), options, registry, modules)
                samples.append(time.perf_counter() - started)
            seconds[key] = common.median(samples[1:])
        return seconds

    @staticmethod
    def _startup(rounds: int = 5) -> dict:
        """A fresh ``import repro.__main__`` minus a bare interpreter."""
        bare, full, modules = [], [], 0
        script = "import sys, repro.__main__; print(len(sys.modules))"
        for _ in range(rounds):
            for code, sink in (("pass", bare), (script, full)):
                started = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "-c", code], capture_output=True,
                    text=True, env=common.child_env(), cwd=common.ROOT,
                    check=True, timeout=120)
                sink.append(time.perf_counter() - started)
                if code == script:
                    modules = int(done.stdout)
        return {
            "startup.import_ms": 1e3 * (common.median(full)
                                        - common.median(bare)),
            "startup.modules": modules,
        }

    @staticmethod
    def _registry(rounds: int = 5) -> dict:
        """``IdiomRegistry()`` and ``compile_plan`` over its fresh specs."""
        from repro.constraints.plan import compile_plan
        from repro.idioms.registry import IdiomRegistry

        build, plans = [], []
        for _ in range(rounds):
            started = time.perf_counter()
            registry = IdiomRegistry()
            built = time.perf_counter()
            for name in registry.names():
                compile_plan(registry.spec(name))
            plans.append(time.perf_counter() - built)
            build.append(built - started)
        return {"idioms.registry_ms": 1e3 * common.median(build),
                "plan.compile_ms": 1e3 * common.median(plans)}

    def _layers(self) -> dict:
        t = self.tracer
        ms, count = t.self_ms_per_pass, t.count_per_pass
        lex_ms = ms("corpus", "frontend.lex")
        tokens = count("corpus", "frontend.tokens")
        assignments = count("corpus", "constraints.assignments")
        metrics = {
            "frontend.lex_ms": lex_ms,
            "frontend.parse_ms": ms("corpus", "frontend.parse"),
            "frontend.lower_ms": ms("corpus", "frontend.lower"),
            "frontend.tokens": tokens,
            "frontend.tokens_per_s": tokens / (lex_ms / 1e3),
            "passes.ms": ms("corpus", "passes"),
            "ir.verify_ms": ms("corpus", "ir.verify"),
            "ir.instructions": count("corpus", "ir.instructions"),
            "constraints.context_ms": ms("corpus", "constraints.context"),
            "constraints.evals": count("corpus", "constraints.evals"),
            "constraints.evals_pruned": count("corpus",
                                              "constraints.evals_pruned"),
            "constraints.assignments": assignments,
            "constraints.solution_ratio": (
                count("corpus", "constraints.solutions") / assignments),
            "idioms.detect_ms": ms("corpus", "idioms.detect"),
            "idioms.extend_ms": ms("corpus", "idioms.extend"),
            "digest.ms": ms("corpus", "digest"),
        }
        metrics.update(self._serving("serve", ""))
        metrics.update(self._serving("serve-program", "program."))
        seq_ms = ms("exploit", "runtime.seq")
        parallel_ms = ms("exploit", "runtime.parallel")
        instructions = count("exploit", "runtime.instructions")
        exploit = self.kinds["exploit"]
        metrics.update({
            "transform.plan_ms": ms("exploit", "transform.plan"),
            "transform.outline_ms": ms("exploit", "transform.outline"),
            "transform.plans": count("exploit", "transform.plans"),
            "transform.refusals": count("exploit", "transform.refusals"),
            "runtime.seq_ms": seq_ms,
            "runtime.parallel_ms": parallel_ms,
            "runtime.instructions": instructions,
            "runtime.ips": instructions / ((seq_ms + parallel_ms) / 1e3),
            "runtime.sim_cycles": count("exploit", "runtime.sim_cycles"),
            "runtime.sim_speedup_geomean": common.geomean(
                exploit.speedups.values()),
        })
        return metrics

    def _serving(self, name: str, infix: str) -> dict:
        t, kind = self.tracer, self.kinds[name]
        latency: dict = {}
        for span in t.spans:
            if span.kind == name and span.name == "serving.interactive":
                latency.setdefault(span.request, []).append(span.duration)
        overhead = [common.median(samples) - kind.in_process[key]
                    for key, samples in latency.items()]
        every = [d for samples in latency.values() for d in samples]
        p90, _ = common.p90_with_tail(every)
        timed, _, batch = self.totals[name]
        metrics = {
            f"gateway.{infix}admit_ms":
                1e3 * common.median(t.durations(name, "gateway.admit")),
            f"serving.{infix}units": kind.batch_units,
            f"serving.{infix}overhead_ms": 1e3 * common.median(overhead),
            f"serving.{infix}batch_pps": batch / timed,
            f"serving.{infix}latency_p50_ms": 1e3 * common.median(every),
            f"serving.{infix}latency_p90_ms": 1e3 * p90,
        }
        if not infix:
            metrics["gateway.ping_ms"] = 1e3 * common.median(
                t.durations(name, "gateway.ping"))
            metrics["gateway.rejections"] = sum(
                k.rejections for k in (kind, self.kinds["serve-program"]))
        return metrics


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not common.have_sources():
        print(f"error: no repro sources under {common.SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        _make(args.setup_probe)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()

    os.makedirs(common.WORK, exist_ok=True)
    try:
        if args.trace:
            traced = TracedRun(args.seed)
            values = traced.run(args.workload, args.seconds)
            ledger, listed = traced.ledger, spec["per_layer"]
            notes = traced.notes + traced.span_table()
        else:
            ledger, values, notes = run_end_to_end(
                args.workload, args.seed, args.seconds)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    names = [metric["name"] for metric in listed]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    metrics = {}
    for metric in listed:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload} {metric['name']} {value:.6g} "
              f"{metric['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
