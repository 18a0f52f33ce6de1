"""Tests of the benchmark itself: generator, tracing, checks and smoke runs."""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT)]

import run  # noqa: E402
from gen import build_scale_document  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import C7_SHA256, NAMES, Invocation, prepare  # noqa: E402

SMALL = 30_000
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", [SMALL, 100_000])
def test_seed_zero_is_the_c7_document(n):
    from tests.test_acceptance import build_scale_document as original

    assert build_scale_document(n, 0)[0] == original(n)


def test_seed_zero_hashes_match_c7():
    for n, digest in C7_SHA256.items():
        assert hashlib.sha256(build_scale_document(n, 0)[0]).hexdigest() == digest


def test_other_seeds_shuffle_only_the_data_lines():
    base, undeclared = build_scale_document(SMALL, 0)
    shuffled, undeclared_shuffled = build_scale_document(SMALL, 7)
    assert shuffled != base and undeclared_shuffled == undeclared
    base_lines, new_lines = base.split(b"\n"), shuffled.split(b"\n")
    schema = 232  # class, property and axiom declarations
    assert new_lines[:schema] == base_lines[:schema]
    assert sorted(new_lines) == sorted(base_lines)
    assert shuffled == build_scale_document(SMALL, 7)[0]


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    outer, inner = self_times(tracer.spans)
    assert tracer.spans[1]["parent"] == 0
    assert inner >= 0.02
    assert 0.01 <= outer < 0.02


@pytest.fixture
def few_samples(monkeypatch):
    for constant in ("SETUP_SAMPLES", "IMPORT_SAMPLES", "PROBE_REPS"):
        monkeypatch.setattr(run, constant, 1)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run(name, few_samples):
    out = run.run_workload(name, 1, 0, False, DECLARED["end_to_end"], size=SMALL)
    result = out["result"]
    assert result["failed"] == 0, out["lines"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert result["metrics"]["wall_s"]["value"] > 0


def test_traced_smoke_run_reports_every_layer(few_samples):
    out = run.run_workload("contaminate-100k", 0, 0, True, DECLARED["per_layer"], size=SMALL)
    result = out["result"]
    assert result["failed"] == 0, out["lines"]
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert result["metrics"]["contaminate.requested"]["value"] == 42


def test_traceback_counts_as_failed_operation(tmp_path):
    # a lone surrogate parses, then serializing it raises UnicodeEncodeError
    doc = tmp_path / "bad.nt"
    doc.write_text('<http://example.org/s> <http://example.org/p> "\\uD800" .\n')
    plan = tmp_path / "plan.json"
    plan.write_text('{"seed": 0, "intensities": {}}')
    out = tmp_path / "out.nt"
    inv = Invocation(["contaminate", str(doc), "--plan", str(plan), "-o", str(out)],
                     [out], lambda deadline: None)
    bench_run = run.Run(tmp_path, time.monotonic() + 60)
    run.run_invocations(bench_run, [inv], {})
    assert bench_run.attempted == 1
    assert len(bench_run.errors) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_pipeline_inputs_follow_the_seed(tmp_path):
    plans = {seed: [inv for inv in prepare("pipeline-small", tmp_path / str(seed), seed)
                    if inv.args[0] == "contaminate"][0].args[3]
             for seed in (0, 5)}
    assert plans[0].endswith("zoo_demo.json")
    assert json.loads(Path(plans[5]).read_text())["seed"] == 20240808 + 5
