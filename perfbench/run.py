"""Benchmark of the rdfqa command line, one workload per run.

    python3 perfbench/run.py --workload assess-400k --seed 0 --seconds 45 --trace 0

Runs are a closed loop: one client starts one fresh CLI process at a time and
waits for it to exit. With ``--trace 0`` the workload's invocations are
repeated until ``--seconds`` of them have been measured, every output is
checked outside the timed region, and the end-to-end metrics of
BENCHMARK.json are reported. With ``--trace 1`` the invocations run once as
processes, then once or more in a traced child (layers.py) that times each
call into a layer, and the per-layer metrics are reported. Layers that a
workload's invocations never reach are timed on the pipeline-small fixtures
(the probe), so every traced run reports every per-layer metric.

One line per metric (median, quartiles, sample count, unit) goes to stdout,
and the last line is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import ROOT, SRC, Child, cli_argv, run_child
from spans import self_times
from workloads import NAMES, Invocation, prepare

HERE = Path(__file__).resolve().parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170  # every run ends within the contract's 180 s
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
PROBE_REPS = 5
IMPORTS = {"import.scipy_s": "import scipy.stats", "import.rdfqa_s": "import rdfqa.cli"}


@dataclass
class Run:
    """The operations of one run and the reasons any of them failed."""

    workdir: Path
    deadline: float  # time.monotonic() value
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def launch(self, argv: list[str]) -> Child:
        self.attempted += 1
        log = self.workdir / "log"
        log.mkdir(parents=True, exist_ok=True)
        return run_child(argv, log, self.deadline)

    def fail(self, what: str, why: str):
        self.errors.append(f"{what}: {why}")


@dataclass
class Metric:
    samples: list[float]
    probe: bool = False  # taken on the probe's fixtures, not on the workload
    n: int | None = None  # sample count, when it is not len(samples)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of one run's samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _digest(paths: list[Path]) -> tuple[str, ...] | None:
    try:
        return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    except OSError:
        return None


def run_invocations(run: Run, invocations: list[Invocation], reference: dict) -> tuple[float, int]:
    """Run every invocation once, in order, then check the outputs untimed.

    Returns the summed wall time and the largest ru_maxrss (KiB). The first
    outputs of each invocation are checked; later ones must equal them.
    """
    wall, peak, children = 0.0, 0, []
    for inv in invocations:
        for path in inv.outputs:
            path.unlink(missing_ok=True)
        child = run.launch(cli_argv(inv.args))
        wall += child.wall_s
        peak = max(peak, child.maxrss_kb)
        children.append(child)
    for i, (inv, child) in enumerate(zip(invocations, children)):
        why = child.error()
        if why is None:
            digest = _digest(inv.outputs)
            if digest is None:
                why = "missing output"
            elif i not in reference:
                reference[i] = digest
                why = inv.check(run.deadline)
            elif reference[i] != digest:
                why = "output differs from the first run"
        if why:
            run.fail(" ".join(inv.args[:2]), why)
    return wall, peak


def _setup_sample(run: Run, setup: list[float]):
    """Time one fresh ``rdfqa --help``."""
    child = run.launch(cli_argv(["--help"]))
    why = child.error() or (None if b"usage: rdfqa" in child.stdout else "no usage text")
    if why:
        run.fail("--help", why)
    setup.append(child.wall_s)


def measure(name: str, seed: int, seconds: float, run: Run, size: int | None) -> dict[str, Metric]:
    invocations = prepare(name, run.workdir / "w", seed, size)
    setup, walls, peak_kb, reference = [], [], 0, {}
    # one set-up sample before each repetition spreads them over the host's
    # drift in speed; stop at the repetition count whose summed time lies
    # nearest ``seconds``
    while not walls or (sum(walls) + statistics.median(walls) / 2 < seconds
                        and time.monotonic() < run.deadline):
        _setup_sample(run, setup)
        wall, peak = run_invocations(run, invocations, reference)
        walls.append(wall)
        peak_kb = max(peak_kb, peak)
    while len(setup) < SETUP_SAMPLES:
        _setup_sample(run, setup)
    ok = 1 - len(run.errors) / run.attempted
    return {"wall_s": Metric(walls), "setup_s": Metric(setup),
            "peak_rss_mb": Metric([peak_kb * 1024 / 1e6], n=len(walls) * len(invocations)),
            "success_ratio": Metric([ok], n=run.attempted)}


def _layers(run: Run, spec: dict) -> tuple[Child, dict | None]:
    """Run layers.py on one spec; its result is None when the child failed."""
    spec_path, result_path = run.workdir / "spec.json", run.workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = run.launch([sys.executable, str(HERE / "layers.py"), str(spec_path), str(result_path)])
    if child.error():
        run.fail("layers.py", child.error())
        return child, None
    return child, json.loads(result_path.read_text(encoding="utf-8"))


def trace(name: str, seed: int, seconds: float, run: Run, size: int | None) -> dict[str, Metric]:
    invocations = prepare(name, run.workdir / "w", seed, size)
    probe = []
    if name != "pipeline-small":
        probe = prepare("pipeline-small", run.workdir / "probe", seed)
    imports: dict[str, list[float]] = {key: [] for key in IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        for key, stmt in IMPORTS.items():
            child = run.launch([sys.executable, "-c", "import time; t = time.perf_counter(); "
                                f"{stmt}; print(time.perf_counter() - t)"])
            if child.error():
                run.fail(key, child.error())
            else:
                imports[key].append(float(child.stdout))
    reference: dict = {}
    wall, _ = run_invocations(run, invocations, reference)
    # one repetition per fresh process: later repetitions in one process run
    # on a fragmented heap and read slower than the CLI does
    own = [inv.args for inv in invocations]
    results, traced_s = [], 0.0
    while not results or (traced_s < seconds and time.monotonic() < run.deadline):
        child, result = _layers(run, {"runs": [f"rep{len(results)}"], "invocations": own,
                                      "peak": False})
        if result is None:
            return {}
        traced_s += child.wall_s
        results.append(result)
    for i, inv in enumerate(invocations):
        if i in reference and _digest(inv.outputs) != reference[i]:
            run.fail(" ".join(inv.args[:2]), "the traced replay wrote other bytes than the CLI")
    if probe:
        _, result = _layers(run, {"runs": [f"probe{i}" for i in range(PROBE_REPS)],
                                  "invocations": [inv.args for inv in probe], "peak": False})
        if result is None:
            return {}
        results.append(result)
    _, peak = _layers(run, {"runs": [], "invocations": own, "peak": True})
    if peak is None or not all(imports.values()):
        return {}
    metrics, layers, spans = _layer_metrics(results)
    # a fresh process pays the import before the first traced layer starts
    imported = len(invocations) * statistics.median(imports["import.rdfqa_s"])
    metrics.update({key: Metric(v) for key, v in imports.items()})
    metrics["parsing.peak_mb"] = Metric([peak["parsing.peak_mb"]])
    metrics["cli.other_s"] = Metric([wall - imported - t for t in layers])
    metrics["trace.overhead_s"] = Metric([imported + t - wall for t in spans])
    return metrics


def _layer_metrics(results: list[dict]) -> tuple[dict[str, Metric], list[float], list[float]]:
    """Per-layer metrics from the spans: per repetition, the self time summed
    over the spans of one name; over repetitions, their samples.

    ``contaminate.Hn_s`` is the heuristic's run alone minus ``contaminate.base_s``.
    Also returns, per repetition of the workload, the summed time of the spans
    directly under the invocation spans, and of the invocation spans.
    """
    per_run: dict[str, dict[str, float]] = {}
    layers: dict[str, float] = {}
    invocations: dict[str, float] = {}
    for result in results:
        spans = result["spans"]
        for s, own in zip(spans, self_times(spans)):
            times = per_run.setdefault(s["run"], {})
            key = s["name"] + "_s"
            times[key] = times.get(key, 0.0) + own
            if s["name"].startswith("cli."):
                invocations[s["run"]] = invocations.get(s["run"], 0.0) + s["end"] - s["start"]
            elif s["parent"] is not None and spans[s["parent"]]["name"].startswith("cli."):
                layers[s["run"]] = layers.get(s["run"], 0.0) + s["end"] - s["start"]
        for run_id, counts in result["counts"].items():
            times = per_run[run_id]
            for key in [k for k in times if k.startswith("contaminate.H")]:
                times[key] -= times["contaminate.base_s"]
            times.update(counts)
            if counts.get("contaminate.requested"):
                times["contaminate.achieved_ratio"] = \
                    counts["contaminate.achieved"] / counts["contaminate.requested"]

    own = [r for r in per_run if r.startswith("rep")]
    probe = [r for r in per_run if r.startswith("probe")]
    metrics: dict[str, Metric] = {}
    for runs, is_probe in ((probe, True), (own, False)):
        for key in {k for r in runs for k in per_run[r]}:
            samples = [per_run[r][key] for r in runs if key in per_run[r]]
            metrics[key] = Metric(samples, is_probe)
    return metrics, [layers[r] for r in own], [invocations[r] for r in own]


def run_workload(name: str, seed: int, seconds: float, traced: bool, declared: list[dict],
                 size: int | None = None) -> dict:
    """One run of one workload; returns the result object that run.py prints."""
    workdir = WORK / f"{name}-{os.getpid()}"
    run = Run(workdir, time.monotonic() + RUN_LIMIT_S)
    try:
        if traced:
            found = trace(name, seed, seconds, run, size)
        else:
            found = measure(name, seed, seconds, run, size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    metrics, lines = {}, []
    for entry in declared:
        metric = found.get(entry["name"])
        if metric is None:
            continue
        q1, median, q3 = quartiles(metric.samples)
        metrics[entry["name"]] = {"value": median, "unit": entry["unit"]}
        lines.append(f"{name:<17} {entry['name']:<28} {median:>14.6g} {entry['unit']:<6} "
                     f"q1 {q1:.6g}  q3 {q3:.6g}  n={metric.n or len(metric.samples)}"
                     + ("  (probe)" if metric.probe else ""))
    failed = len(run.errors)
    if not traced:
        lines.append(f"{name:<17} {'fail_ratio':<28} {failed / max(run.attempted, 1):>14.6g} "
                     f"{'ratio':<6} {failed} failed  n={run.attempted}")
    lines.extend(f"{name:<17} FAILED {why}" for why in run.errors)
    correct = not run.errors and len(metrics) == len(declared)
    return {"lines": lines, "result": {"correct": correct, "attempted": run.attempted,
                                       "failed": failed, "metrics": metrics}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rdfqa" / "cli.py").is_file() or not BENCHMARK.is_file():
        print(f"run.py: no rdfqa sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
        print("\n".join(out["lines"]), flush=True)
        results[name] = out["result"]
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{key}": value for name, r in results.items()
                             for key, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
