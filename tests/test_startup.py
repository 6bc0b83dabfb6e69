"""Import hygiene: each CLI verb loads only the layers it runs.

``repro detect FILE.c`` is a compile-time pass; its cold start must not
pay for the runtime, the transform, the pipeline's process and socket
machinery, the spec linter or numpy.  The check runs the real CLI in a
fresh interpreter (through ``runpy``, as ``python -m repro`` does) and
inspects ``sys.modules`` afterwards.
"""

import json
import os
import subprocess
import sys

import repro

EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                       "histogram.c")

#: Modules a one-file ``detect`` must never import.
NOT_FOR_DETECT = (
    "numpy",
    "repro.pipeline",
    "repro.runtime",
    "repro.transform",
    "repro.baselines",
    "repro.evaluation",
    "repro.constraints.analysis",
    "multiprocessing",
    "asyncio",
    "socket",
)

_PROBE = """
import json, runpy, sys
sys.argv = ["repro"] + sys.argv[1:]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(*argv: str) -> set[str]:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_detect_imports_only_the_detection_stack():
    loaded = _modules_after("detect", EXAMPLE)
    assert "repro.idioms" in loaded  # the probe really ran detection
    assert sorted(set(NOT_FOR_DETECT) & loaded) == []


def test_every_public_name_resolves():
    for name in repro.__all__:
        namespace: dict = {}
        exec(f"from repro import {name}", namespace)
        assert namespace[name] is getattr(repro, name)


def test_subpackages_resolve_as_attributes():
    assert repro.pipeline.detect_corpus is repro.detect_corpus
    assert repro.runtime.Interpreter is repro.Interpreter
