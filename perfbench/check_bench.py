"""The benchmark's own tests.

Run from the root of a checkout::

    python -m pytest perfbench/check_bench.py -q

(The file name keeps it out of the repository's default test run: the
metric tests start the benchmark, which takes about a minute.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import kinds  # noqa: E402

RUN = os.path.join(common.HERE, "run.py")


def _spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=common.ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_keys_and_names():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        __import__("run").WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_seed_reorders_requests_without_changing_the_mix():
    keys = [(f"p{i}", "suite") for i in range(40)]
    for index in range(3):
        one = common.pass_order(keys, 1, index)
        two = common.pass_order(keys, 2, index)
        assert one != two
        assert sorted(one) == sorted(two) == sorted(keys)
        assert one == common.pass_order(keys, 1, index)
    assert common.pass_order(keys, 1, 0) != common.pass_order(keys, 1, 1)


def test_wrong_expectation_is_counted_as_a_failure(monkeypatch):
    kind = kinds.CorpusKind()
    wrong = ("EP", "NAS")
    truth = common.expected_counts

    def expected(key):
        scalars, histograms = truth(key)
        return (scalars + 1, histograms) if key == wrong else (
            scalars, histograms)

    monkeypatch.setattr(common, "expected_counts", expected)
    ledger = common.Ledger()
    kind.run_pass(kind.keys, ledger)
    assert ledger.attempted == 40
    assert ledger.failed == 1 and not ledger.correct
    assert "NAS/EP" in ledger.problems[0]


def test_wrong_pass_total_is_not_correct():
    ledger = common.Ledger()
    ledger.check_pass_totals((84, 5))
    assert not ledger.correct


def test_crash_and_exploit_mismatch_are_failures():
    ledger = common.Ledger()

    def crash():
        raise RuntimeError("boom")

    kinds._request(ledger, None, "key", crash)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    kind = kinds.ExploitKind.__new__(kinds.ExploitKind)
    kind.expected = {"EP": (1, 0)}
    kind.speedups = {}
    common.import_repro()
    from repro.workloads import program

    outcome = {"counts": (2, 1), "plans": 1, "refusals": [],
               "match": False, "speedup": 1.0}
    assert "differs" in kind._problem("EP", program("EP"), outcome)
    outcome["match"] = True
    assert kind._problem("EP", program("EP"), outcome) is None


def test_predictions_cover_every_per_layer_metric():
    spec = _spec()
    with open(os.path.join(common.HERE, "predictions.json")) as handle:
        groups = json.load(handle)["groups"]
    listed = [m for g in groups for m in g["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for group in groups:
        for metric, workload in group["moves"]:
            assert metric in end_to_end and workload in workloads


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    done = _run("--workload", "corpus-serial", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    result = _result(done)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 40
    listed = _spec()[section]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    for metric in listed:
        assert re.search(rf"^corpus-serial {re.escape(metric['name'])} "
                         rf"\S+ {re.escape(metric['unit'])}$",
                         done.stdout, re.M)
    if trace == "1":
        metrics = result["metrics"]
        assert metrics["constraints.evals"]["value"] == 9704
        assert metrics["transform.refusals"]["value"] == 1
        assert metrics["gateway.rejections"]["value"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exploit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
