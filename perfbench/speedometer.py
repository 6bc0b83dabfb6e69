"""Samples the speed of the CPU this process is pinned to.

Every ``INTERVAL`` seconds it times one fixed pure-Python task that
runs no ``repro`` code.  ``get`` on standard input prints the sampled
seconds since the last ``get`` on one line; ``stop`` or end of input
exits.  Started by
:class:`common.Speedometer`, pinned to the same CPU as the workload,
so its samples see the same share of the CPU the workload saw at the
same moments.
"""

import gc
import select
import sys
import time

INTERVAL = 0.1


def reference_task() -> int:
    table, total = {}, 0
    for i in range(6000):
        text = str(i)
        table[text] = (i, text)
        total += len(table[text][1])
    return total


def main() -> int:
    gc.disable()
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL)
        if ready:
            command = sys.stdin.readline().strip()
            if command != "get":
                return 0
            print(" ".join(f"{s:.9f}" for s in samples), flush=True)
            samples = []
        started = time.perf_counter()
        reference_task()
        samples.append(time.perf_counter() - started)


if __name__ == "__main__":
    sys.exit(main())
