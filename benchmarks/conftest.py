"""Shared helpers for the figure-regenerating benchmark harness."""

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

# The solver's differential oracles (the interpreted search, brute force
# and the native specs) live with the tests; the benchmarks compare
# against them too.
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "tests", "constraints")
)


def write_artifact(name: str, text: str) -> str:
    """Persist a rendered table/figure under results/ and return it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return text
