"""Tests for the ``python -m repro`` command line interface."""

import pytest

from repro.__main__ import main

SOURCE = """
double a[32]; int hist[8]; int keys[32]; int n;

double total(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}

void count(void) {
    for (int i = 0; i < n; i++) hist[keys[i]]++;
}

int main(void) {
    n = 32;
    for (int i = 0; i < n; i++) { a[i] = fmod(i * 0.7, 1.0); keys[i] = i % 8; }
    count();
    print_double(total());
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def test_detect_command(source_file, capsys):
    assert main(["detect", source_file]) == 0
    out = capsys.readouterr().out
    assert "1 scalar reduction(s), 1 histogram reduction(s)" in out
    assert "op=add" in out


def test_detect_with_baselines(source_file, capsys):
    assert main(["detect", source_file, "--baselines"]) == 0
    out = capsys.readouterr().out
    assert "icc model" in out
    assert "Polly model" in out


def test_emit_command(source_file, capsys):
    assert main(["emit", source_file]) == 0
    out = capsys.readouterr().out
    assert "define double @total()" in out
    assert "phi" in out


def test_parallelize_command(source_file, capsys):
    assert main(["parallelize", source_file, "--threads", "8"]) == 0
    out = capsys.readouterr().out
    assert "outlined:" in out
    assert "outputs match" in out


def test_detect_list_idioms_without_file(capsys):
    assert main(["detect", "--list-idioms"]) == 0
    out = capsys.readouterr().out
    assert "registered idioms:" in out
    for name in ("for-loop", "scalar-reduction", "histogram",
                 "dot-product", "argminmax", "nested-array-reduction"):
        assert name in out
    assert "forloop.icsl" in out
    assert "argminmax.icsl" in out


def test_detect_extended_flag(tmp_path, capsys):
    path = tmp_path / "dot.c"
    path.write_text(
        "double xs[16]; double ys[16]; int n;\n"
        "double dot(void) {\n"
        "    double s = 0.0;\n"
        "    for (int i = 0; i < n; i++) s = s + xs[i] * ys[i];\n"
        "    return s;\n"
        "}\n"
    )
    assert main(["detect", str(path), "--extended"]) == 0
    out = capsys.readouterr().out
    assert "extension dot-product" in out


def test_corpus_command_with_jobs_and_extended(capsys):
    assert main(["corpus", "--jobs", "2", "--extended"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8 (NAS): reductions detected" in out
    assert "paper vs measured" in out
    assert "extension idioms:" in out
    assert "nested-array-reduction" in out


def test_detect_without_file_or_list_flag_errors(capsys):
    assert main(["detect"]) == 2
    assert "FILE.c" in capsys.readouterr().err


def test_detect_feedback_round_trip(source_file, tmp_path, capsys):
    feedback = tmp_path / "feedback.json"
    assert main(["detect", source_file, "--extended",
                 "--save-feedback", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "feedback saved to" in out
    assert feedback.exists()
    assert main(["detect", source_file, "--extended",
                 "--feedback-from", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "1 scalar reduction(s), 1 histogram reduction(s)" in out


def test_detect_reports_bad_feedback_artifact(source_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99, \"specs\": {}}")
    assert main(["detect", source_file, "--feedback-from", str(bad)]) == 2
    assert "cannot load feedback artifact" in capsys.readouterr().err


def test_corpus_feedback_round_trip(tmp_path, capsys):
    feedback = tmp_path / "corpus-feedback.json"
    assert main(["corpus", "--save-feedback", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "feedback saved to" in out
    assert main(["corpus", "--feedback-from", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "Figure 8 (NAS): reductions detected" in out


def test_detect_with_user_spec_file(source_file, tmp_path, capsys):
    spec = tmp_path / "rmw.icsl"
    spec.write_text(
        "idiom read-modify-write {\n"
        "  order: st v p\n"
        "  opcode(st, store, v, p)\n"
        "  (opcode(v, add, _, _) | opcode(v, fadd, _, _))\n"
        "}\n"
    )
    assert main(["detect", source_file, "--spec", str(spec),
                 "--list-idioms"]) == 0
    out = capsys.readouterr().out
    assert "read-modify-write" in out
    assert "custom" in out
    assert "match(es)" in out


def test_detect_reports_malformed_spec_file(source_file, tmp_path, capsys):
    bad = tmp_path / "bad.icsl"
    bad.write_text("idiom broken {\n  order: x\n  frobnicate(x)\n}\n")
    assert main(["detect", source_file, "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot load spec file" in err
    assert "line 3" in err


def test_detect_reports_missing_spec_file(source_file, capsys):
    assert main(["detect", source_file, "--spec", "/nonexistent.icsl"]) == 2
    assert "cannot load spec file" in capsys.readouterr().err


def test_detect_reports_binary_spec_file(source_file, tmp_path, capsys):
    binary = tmp_path / "binary.icsl"
    binary.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["detect", source_file, "--spec", str(binary)]) == 2
    assert "cannot load spec file" in capsys.readouterr().err


def test_parallelize_reports_nothing_to_do(tmp_path, capsys):
    path = tmp_path / "empty.c"
    path.write_text("int main(void) { print_int(1); return 0; }")
    assert main(["parallelize", str(path)]) == 1
    assert "nothing to parallelize" in capsys.readouterr().out


def test_parallelize_reports_runtime_fault(tmp_path, capsys):
    """An out-of-bounds run ends with one ``error:`` line, not a traceback."""
    path = tmp_path / "oob.c"
    path.write_text(
        "double a[8]; int n;\n"
        "double total(void) { double s = 0.0; "
        "for (int i = 0; i < n; i++) s = s + a[i]; return s; }\n"
        "int main(void) { n = 16; print_double(total()); return 0; }\n"
    )
    assert main(["parallelize", str(path)]) == 2
    captured = capsys.readouterr()
    assert "outlined:" in captured.out
    assert captured.err == "error: load out of bounds: a[8] (size 8)\n"


def test_detect_renders_spec_diagnostic(source_file, tmp_path, capsys):
    """The malformed-spec path shows the caret-rendered diagnostic."""
    bad = tmp_path / "bad.icsl"
    bad.write_text("idiom broken {\n  order: x\n  frobnicate(x)\n}\n")
    assert main(["detect", source_file, "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:3: error:" in err
    assert "^" in err


def test_detect_lint_gate_rejects_bad_spec(source_file, tmp_path, capsys):
    """--lint rejects a parseable spec with an unconstrained label."""
    bad = tmp_path / "loose.icsl"
    bad.write_text(
        "idiom loose {\n"
        "  order: x ghost\n\n"
        "  opcode(x, add, _, _)\n"
        "}\n"
    )
    assert main(["detect", source_file, "--spec", str(bad)]) == 0
    capsys.readouterr()
    assert main(
        ["detect", source_file, "--spec", str(bad), "--lint"]
    ) == 2
    err = capsys.readouterr().err
    assert "ICSL001" in err
    assert "ghost" in err


def test_lint_shipped_specs_clean(capsys):
    assert main(["lint", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_lint_json_report(capsys):
    import json

    assert main(["lint", "--strict", "--json", "--no-cross"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["error"] == 0
    assert payload["summary"]["warning"] == 0
    assert all(d["code"].startswith("ICSL") for d in payload["diagnostics"])


def test_lint_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.icsl"
    bad.write_text("idiom broken {\n  order: x\n  frobnicate(x)\n}\n")
    assert main(["lint", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "ICSL000" in out


def test_lint_strict_promotes_warnings(tmp_path, capsys):
    spec = tmp_path / "warny.icsl"
    spec.write_text(
        "idiom warny {\n"
        "  order: header body\n\n"
        "  branch(header, body)\n"
        "  dominates(header, header)\n"
        "}\n"
    )
    assert main(["lint", str(spec)]) == 0
    capsys.readouterr()
    assert main(["lint", str(spec), "--strict"]) == 1
    assert "ICSL005" in capsys.readouterr().out


# -- feedback lifecycle commands ----------------------------------------------


@pytest.fixture(scope="module")
def explored_artifact(tmp_path_factory):
    """A feedback artifact with measured order rows (Parboil slice,
    ε=0.5, seed=3 — a combination known to sample that slice)."""
    from repro.pipeline import (detect_corpus, feedback_from_report,
                                save_feedback)
    from repro.workloads import corpus_keys

    small = [key for key in corpus_keys() if key[1] == "Parboil"]
    report = detect_corpus(jobs=1, keys=small, explore=0.5,
                           explore_seed=3)
    path = tmp_path_factory.mktemp("feedback") / "explored.json"
    save_feedback(feedback_from_report(report), str(path))
    return str(path)


def test_feedback_inspect_is_deterministic(explored_artifact, capsys):
    assert main(["feedback", "inspect", explored_artifact]) == 0
    first = capsys.readouterr().out
    assert f"feedback artifact {explored_artifact}" in first
    assert "fingerprint" in first
    assert "spec for-loop" in first
    assert "[incumbent]" in first
    assert "derive:" in first
    assert main(["feedback", "inspect", explored_artifact]) == 0
    assert capsys.readouterr().out == first


def test_feedback_inspect_json(explored_artifact, capsys):
    import json

    assert main(["feedback", "inspect", explored_artifact, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 3
    assert payload["orders"]
    assert "derived_orders" in payload


def test_feedback_diff_exit_codes(explored_artifact, tmp_path, capsys):
    from repro.pipeline import load_feedback, save_feedback

    assert main(["feedback", "diff", explored_artifact,
                 explored_artifact]) == 0
    assert "identical:" in capsys.readouterr().out

    decayed = tmp_path / "decayed.json"
    save_feedback(load_feedback(explored_artifact).decay(0.5),
                  str(decayed))
    assert main(["feedback", "diff", explored_artifact,
                 str(decayed)]) == 1
    out = capsys.readouterr().out
    assert f"A {explored_artifact}:" in out
    assert f"B {decayed}:" in out
    assert "spec " in out


def test_feedback_decay_cli(explored_artifact, tmp_path, capsys):
    from repro.pipeline import load_feedback

    out_path = tmp_path / "decayed.json"
    assert main(["feedback", "decay", explored_artifact,
                 "--keep", "0.5", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "before:" in out
    assert "after:" in out
    original = load_feedback(explored_artifact)
    decayed = load_feedback(str(out_path))  # verifies its fingerprint
    assert len(decayed.orders) <= len(original.orders)

    assert main(["feedback", "decay", explored_artifact,
                 "--keep", "1.5", "--out", str(out_path)]) == 2
    assert "keep must be within" in capsys.readouterr().err


def test_feedback_commands_reject_bad_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99, \"specs\": {}}")
    assert main(["feedback", "inspect", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot load feedback artifact" in err
    assert str(bad) in err
    assert "hint:" in err


def test_corpus_explore_records_measured_orders(tmp_path, capsys):
    feedback = tmp_path / "explored.json"
    assert main(["corpus", "--jobs", "2", "--explore", "0.25",
                 "--explore-seed", "1",
                 "--save-feedback", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "feedback saved to" in out
    assert "measured order(s)" in out
    assert main(["feedback", "inspect", str(feedback)]) == 0
    assert "[incumbent]" in capsys.readouterr().out
