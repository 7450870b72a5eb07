"""Output checks and traced-run accounting on a small real command."""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

import run

TINY = "synth-tiny"
TINY_ARGV = ["synthesize", "--bound", "4", "--axiom", "invlpg"]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, TINY, (TINY_ARGV, 0))
    env = {"PYTHONPATH": str(run.ROOT / "src"), "TMPDIR": str(tmp_path), "PATH": ""}
    probe = run.execute(TINY, tmp_path, env, {TINY: {"sha256": ""}})
    digest = (tmp_path / "suite.elts").read_bytes()
    return tmp_path, env, {TINY: {"sha256": hashlib.sha256(digest).hexdigest()}}, probe


def test_pinned_digest_passes_and_tampered_digest_fails(tiny):
    work, env, expected, probe = tiny
    assert "digest" in probe.error
    good = run.execute(TINY, work, env, expected)
    assert good.error is None
    assert good.wall_s > good.setup_s > 0
    assert good.cpu_s > 0 and good.peak_rss_mb > 0


def test_tampered_digest_is_a_failed_operation(tiny, monkeypatch):
    _work, _env, expected, _probe = tiny
    tampered = {TINY: {"sha256": "0" * 64}}
    monkeypatch.setattr(run, "load_expected", lambda: tampered)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", TINY, "--seconds", "0.1"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_wrong_exit_code_and_missing_suite_fail(tmp_path):
    suite = tmp_path / "suite.elts"
    expected = {"synth-b7-j2": {"sha256": ""}}
    assert "exit code 1" in run.check_output("synth-b7-j2", 1, suite, expected)
    assert "no suite" in run.check_output("synth-b7-j2", 0, suite, expected)


def test_fuzz_findings_must_violate_only_invlpg(tmp_path):
    suite = tmp_path / "suite.elts"
    suite.write_text("test fuzz_001\nmeta seed=0 violates=invlpg+sc_per_loc\nendtest\n")
    expected = {"fuzz-b10": {"sha256": hashlib.sha256(suite.read_bytes()).hexdigest()}}
    assert "only invlpg" in run.check_output("fuzz-b10", 1, suite, expected)
    suite.write_text("test fuzz_001\nmeta seed=0 violates=invlpg\nendtest\n")
    expected = {"fuzz-b10": {"sha256": hashlib.sha256(suite.read_bytes()).hexdigest()}}
    assert run.check_output("fuzz-b10", 1, suite, expected) is None


def test_traced_run_reconciles_and_keeps_the_output(tiny):
    work, env, expected, _probe = tiny
    result, metric = run.traced_execution(TINY, work, env, expected)
    assert result.error is None
    layer_sum = sum(
        v for k, v in metric.items() if k == "cli.import_s" or k.endswith(".self_s")
    )
    assert layer_sum + metric["residual_s"] == pytest.approx(result.wall_s)
    assert 0 <= metric["residual_s"] < result.wall_s
    assert metric["skeletons.programs"] > 0
    assert metric["witnesses.executions"] > 0
    assert metric["models.checks"] > 0


def test_without_sources_it_fails_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fuzz-b10"]) != 0
    assert capsys.readouterr().out == ""
