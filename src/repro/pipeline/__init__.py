"""Corpus-scale detection pipeline.

The paper's detector runs once per compiled program; the north-star is
a system that detects reductions across heavy corpus traffic as fast as
the hardware allows.  This package is the seam between the two: a
staged, batched detection engine that

* **plans and shards** corpus work across worker processes — whole
  programs, or ``(program, function)`` units so one giant module
  cannot serialize a run; weighted by a static proxy or by a previous
  run's **measured costs** (:mod:`repro.pipeline.shard`),
* runs each unit through the **staged** worker — compile (cached per
  worker) → detect (shared solver caches) → extension idioms →
  baseline models (:mod:`repro.pipeline.worker`),
* reduces per-shard results with a **deterministic checked merge**
  back into canonical corpus order (:mod:`repro.pipeline.engine`),
* serves continuous traffic through a **persistent engine** —
  long-lived warm workers, async submission, streamed per-program
  digests, weighted-fair **priority scheduling** (interactive vs
  batch job classes), per-job **cancellation**, and **fault
  tolerance**: heartbeat liveness, worker recycling, and bounded
  resubmission of units lost to killed workers
  (:mod:`repro.pipeline.serving`), and
* exposes the persistent engine over the network through a **socket
  gateway** — length-prefixed JSON frames, streamed digests,
  mid-flight cancellation and per-connection admission control with
  structured retry-after backpressure (:mod:`repro.pipeline.gateway`),
  and
* reports everything as process-portable **digests** whose fingerprint
  is byte-identical between ``jobs=1``, ``jobs=N``, function-sharded,
  served and gateway-served runs (:mod:`repro.pipeline.digest`).

Quickstart::

    from repro.pipeline import PipelineOptions, ServingEngine, detect_corpus

    report = detect_corpus(jobs=4, extended=True, granularity="function")
    print(report.summary())
    assert report.fingerprint() == detect_corpus(jobs=1,
                                                 extended=True).fingerprint()

    with ServingEngine(PipelineOptions(jobs=4, extended=True,
                                       granularity="function")) as engine:
        for digest in engine.submit().stream():
            print(digest.name, digest.counts())
"""

import importlib

#: Public name → the submodule that defines it.  The package is lazy
#: (PEP 562): importing ``repro.pipeline`` loads no submodule, and a
#: name's submodule loads on first access — ``detect_corpus`` does not
#: pull in the gateway's asyncio/socket stack.
_EXPORTS = {
    "PipelineOptions": "options",
    "DetectionPipeline": "engine",
    "ServingEngine": "serving",
    "ServingJob": "serving",
    "JobClass": "serving",
    "JobCancelled": "serving",
    "PriorityScheduler": "serving",
    "serve_worker": "serving",
    "GatewayServer": "gateway",
    "GatewayClient": "gateway",
    "GatewayRequest": "gateway",
    "GatewayError": "gateway",
    "GatewayRejected": "gateway",
    "GatewayRequestFailed": "gateway",
    "detect_corpus": "engine",
    "merge_digests": "engine",
    "merge_unit_digests": "engine",
    "lpt_order": "shard",
    "make_shards": "shard",
    "plan_units": "shard",
    "measured_weights": "shard",
    "unit_weight": "shard",
    "WorkUnit": "shard",
    "run_shard": "worker",
    "run_unit_shard": "worker",
    "detect_program": "worker",
    "detect_unit": "worker",
    "CorpusReport": "digest",
    "ProgramDigest": "digest",
    "UnitDigest": "digest",
    "UnitFailure": "digest",
    "FunctionDigest": "digest",
    "ScalarDigest": "digest",
    "HistogramDigest": "digest",
    "ExtensionDigest": "digest",
    "assemble_program": "digest",
    "digest_report": "digest",
    "digest_function": "digest",
    "digest_extensions": "digest",
    "report_to_json": "digest",
    "report_from_json": "digest",
    "program_to_json": "digest",
    "program_from_json": "digest",
    "load_report": "digest",
    "save_report": "digest",
    "ExplorationPolicy": "feedback",
    "FeedbackStore": "feedback",
    "OrderObs": "feedback",
    "shape_bucket": "feedback",
    "canonical_orders": "feedback",
    "feedback_from_detection": "feedback",
    "feedback_from_report": "feedback",
    "load_feedback": "feedback",
    "save_feedback": "feedback",
    "resolve_feedback_options": "engine",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    owner = _EXPORTS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
