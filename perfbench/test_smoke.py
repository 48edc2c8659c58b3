"""Smoke test of the benchmark at a tiny size.

Run with ``python -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from perfbench import checks, run, spans, workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")


def _masseyq_modules():
    return {k: v for k, v in sys.modules.items() if k == "masseyq" or k.startswith("masseyq.")}


@pytest.fixture(autouse=True)
def _keep_masseyq_modules():
    """The harness re-imports masseyq; give other tests their modules back."""
    saved = _masseyq_modules()
    yield
    for name in _masseyq_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def _command(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_one_round_prints_every_metric_and_is_correct():
    proc = _command(run.ROOT, "--workload", "queries", "--seed", "2", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(BENCH, encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_ratio" in proc.stdout


def test_one_wrong_expected_answer_raises_error_ratio(tmp_path, monkeypatch):
    make = workloads.make

    def tampered(name, seed, rotation):
        wl = make(name, seed, rotation)
        first = wl.round(0)
        transfer = next(req for req in first if req.argv[0] == "transfer")
        transfer.expect = dict(transfer.expect, exit=0)
        return wl

    monkeypatch.setattr(workloads, "make", tampered)
    monkeypatch.chdir(tmp_path)
    with run.SpeedProbe() as probe:
        shown, _, detail, attempted, failed = run.run_plain("queries", 2, 0.01, probe)
    assert failed == 1 and detail["rounds"] == 1
    assert shown["error_ratio"] == pytest.approx(1 / attempted)
    assert "exit code 12, expected 0" in detail["failures"][0]


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(BENCH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_massey_oracle_known_verdicts():
    oracles = run._load_oracles()
    heis = workloads.Model("h.alg", 3, {2: [(Fraction(1), 0, 1)]}, [0, 1])
    torus = workloads.Model("t.alg", 2, {}, [0, 1])
    assert checks.massey_oracle(heis, [0, 0, 1], oracles.ff_rref) == checks.EXIT_OK
    assert checks.massey_oracle(torus, [0, 0, 1], oracles.ff_rref) == checks.EXIT_UNDEFINED
    assert checks.massey_oracle(torus, [0, 0, 0], oracles.ff_rref) == checks.EXIT_VANISHES


def test_recorder_counts_repeat_and_self_times_add_up(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli = run.fresh_cli()
    model = workloads.filiform(5)
    (tmp_path / model.file).write_text(model.text())
    req = workloads.Request(["massey", model.file, "x1", "x2", "x2"], {})
    recorder = spans.Recorder()
    recorder.install()
    try:
        counts = []
        for i in range(2):
            before = dict(recorder.calls)
            recorder.begin_request(i)
            with run.SpeedProbe() as probe:
                assert run.call(cli, req, probe).rc == 0
            counts.append({k: v - before.get(k, 0) for k, v in recorder.calls.items()})
    finally:
        recorder.uninstall()
    assert counts[0] == counts[1] and counts[0]["cohomology.triple_massey"] == 1
    metrics = recorder.metrics()
    assert metrics["cohomology.triple_massey.distinct_ratio"] == 1.0
    roots = [s for s in recorder.spans if s[4] == -1]
    assert [s[0] for s in roots] == ["cli.main", "cli.main"]
    module_total = sum(metrics[f"{m}.self_s"] for m in spans.MODULES)
    assert module_total == pytest.approx(sum(s[3] for s in roots), rel=1e-6)
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
