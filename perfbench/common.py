"""Plumbing shared by the benchmark's workloads.

Paths inside the checkout, the seeded request order, the hand-written
ground truth every output is checked against, summary statistics, and
peak-memory readings.  Nothing here imports ``repro`` at module load,
so ``run.py`` can refuse to run in a directory without ``src/``.
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Working directory for CLI sources and gateway port files; ignored
#: by git and removed when a run ends.
WORK = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Figure 8 totals over one whole corpus pass: 84 scalar and 6
#: histogram reductions.
FIGURE8_TOTALS = (84, 6)

#: Exploit programs and what the transform must do with each:
#: ``(name, plans expected, refused loops expected)``.  kmeans is the
#: paper's refusal case (multiple histogram updates in a nested loop);
#: its request stops after planning, as a compiler would fall back to
#: the original code.  IS and tpacf are left out for run time (7.5 s
#: and ~26 s of interpretation per request on a 2-CPU box).
EXPLOIT_PROGRAMS = (("EP", 1, 0), ("histo", 1, 0), ("kmeans", 3, 1))
KMEANS_REFUSAL = "multiple histogram updates"

#: A small program, the warm-up request of cli-cold and exploit
#: (charged to set-up, never timed).
WARMUP_SOURCE = """
double a[32]; int hist[8]; int keys[32]; int n;
double total(void) { double s = 0.0; for (int i = 0; i < n; i++) s = s + a[i]; return s; }
void count(void) { for (int i = 0; i < n; i++) hist[keys[i]]++; }
int main(void) { n = 32; for (int i = 0; i < n; i++) { a[i] = fmod(i * 0.7, 1.0); keys[i] = i % 8; } count(); print_double(total()); return 0; }
"""


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def import_repro() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child interpreters: ``repro`` from the checkout."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def pass_order(keys, seed: int, index: int) -> list:
    """Pass ``index`` of a run: a seeded shuffle of *all* ``keys``.

    Every pass is a permutation of the same list, so any seed sees the
    same program mix; only the order moves.
    """
    order = list(keys)
    random.Random(f"{seed}/{index}").shuffle(order)
    return order


def expected_counts(key) -> tuple[int, int]:
    """(scalars, histograms) from the corpus's hand-written ground truth."""
    from repro.workloads import program

    expectation = program(*key).expectation
    return (expectation.ours_scalars, expectation.ours_histograms)


class Ledger:
    """Attempted and failed operations plus per-request latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []
        #: Set when a check that is not one request fails (a pass total).
        self.inconsistent = False

    def record(self, seconds: float | None,
               problem: str | None = None) -> None:
        """One operation; ``seconds=None`` adds no latency sample."""
        self.attempted += 1
        if problem is None:
            if seconds is not None:
                self.latencies.append(seconds)
        else:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def check_counts(self, key, seconds: float | None, counts) -> None:
        expected = expected_counts(key)
        counts = tuple(counts)
        self.record(seconds, None if counts == expected else
                    f"{key[1]}/{key[0]}: counts {counts} != expected "
                    f"{expected}")

    def check_pass_totals(self, totals) -> None:
        if tuple(totals) != FIGURE8_TOTALS:
            self.inconsistent = True
            self.problems.append(
                f"pass totals {tuple(totals)} != {FIGURE8_TOTALS}"
            )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.inconsistent


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def p90_with_tail(values):
    """(p90, samples beyond it), or (None, n) when fewer than ten
    samples lie beyond the 90th percentile."""
    if len(values) < 2:
        return None, 0
    p90 = statistics.quantiles(values, n=10)[-1]
    beyond = sum(1 for v in values if v > p90)
    return (p90 if beyond >= 10 else None), beyond


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _proc_children(pid: int) -> list[int]:
    children = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children.extend(int(c) for c in handle.read().split())
    except OSError:
        pass
    return children


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sizes of a process and its descendants."""
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        total += _hwm_kb(current)
        stack.extend(_proc_children(current))
    return total / 1024.0


#: Mean seconds of one speedometer sample while a workload runs on the
#: same CPU, on the 2-CPU box the benchmark was written on.  Scaled
#: times are in seconds of that box.
REFERENCE_NOMINAL_S = 0.004


class Speedometer:
    """A ``speedometer.py`` child sampling the speed of this process's CPU.

    This box's CPUs change speed by up to 1.7x within seconds (each
    CPU on its own), so one process's raw times of the same code
    disagree between runs by 20-30 %.  The workload is pinned to one
    CPU and the child, pinned to the same CPU by inheritance, times a
    fixed task ten times a second throughout the run; :meth:`factor`
    converts the run's times to seconds of the reference box.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speedometer.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples = 0

    def factor(self) -> float:
        """``REFERENCE_NOMINAL_S`` over the mean sample so far."""
        self.process.stdin.write("get\n")
        self.process.stdin.flush()
        samples = [float(s) for s in self.process.stdout.readline().split()]
        if not samples:
            raise RuntimeError("speedometer took no samples")
        self.samples = len(samples)
        return REFERENCE_NOMINAL_S / (sum(samples) / len(samples))

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=30)
        self.process.stdout.close()


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
