"""The workloads: their inputs, their CLI invocations and the output checks.

Inputs come from the workload seed alone. Checks run after the timed region
and return an error message, or None when the outputs are right.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import build_scale_document
from harness import ROOT, run_child

DATA = ROOT / "src" / "rdfqa" / "data"
HEURISTICS = [f"H{i}" for i in range(1, 15)]
METRICS = [f"M{i}" for i in range(1, 11)]

# sha256 of tests/test_acceptance.py::build_scale_document(n), the C7 document
C7_SHA256 = {
    400_000: "35bfef727e0d85215f69f5ac50018d96124564a25b3b9042de646acae36580aa",
    100_000: "c580e6aae0c7ba685fcbe7e596219b5c46d5a5ddcfbf2a44053e7ea29ef5547d",
}
# report_digest() of the assess-400k report at seed 0
ASSESS_400K_SEED0_DIGEST = "ba076ba5c49570721b8dda77f2312be96bd253304cbd3d3597f177ce531675ef"

NAMES = ("assess-400k", "contaminate-100k", "pipeline-small")
DEFAULT_SIZE = {"assess-400k": 400_000, "contaminate-100k": 100_000}


@dataclass
class Invocation:
    args: list[str]  # arguments after ``rdfqa``
    outputs: list[Path]
    check: Callable[[float], str | None]  # takes the run's deadline


def scale_document(size: int, seed: int, path: Path) -> int:
    """Write the seeded C7 document; return its undeclared-predicate count."""
    doc, undeclared = build_scale_document(size, seed)
    if seed == 0 and size in C7_SHA256 and hashlib.sha256(doc).hexdigest() != C7_SHA256[size]:
        raise RuntimeError(f"the generator no longer reproduces the C7 document at {size}")
    path.write_bytes(doc)
    return undeclared


def report_digest(report: dict) -> str:
    kept = {key: report[key] for key in ("counts", "metrics", "flags")}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def _read_report(path: Path) -> tuple[dict | None, str | None]:
    try:
        report = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: unreadable report ({exc})"
    metrics = report.get("metrics", {})
    if sorted(metrics) != sorted(METRICS):
        return None, f"{path.name}: metrics {sorted(metrics)}"
    for key, entry in metrics.items():
        if not 0.0 <= entry["value"] <= 1.0:
            return None, f"{path.name}: {key} = {entry['value']} outside [0, 1]"
    return report, None


def _report_check(path: Path) -> Callable[[float], str | None]:
    return lambda deadline: _read_report(path)[1]


def _text_check(path: Path, needle: str) -> Callable[[float], str | None]:
    def check(deadline):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            return f"{path.name}: unreadable ({exc})"
        return None if needle in text else f"{path.name}: no {needle!r}"
    return check


def _replay_check(original: Path, output: Path, manifest: Path,
                  expected: Path | None = None) -> Callable[[float], str | None]:
    """The output re-parses and replaying the manifest reproduces its bytes."""
    def check(deadline):
        if expected is not None and output.read_bytes() != expected.read_bytes():
            return f"{output.name} differs from {expected.name}"
        log = output.parent / "verify-log"
        log.mkdir(exist_ok=True)
        argv = [sys.executable, str(Path(__file__).with_name("verify.py")),
                str(original), str(output), str(manifest)]
        child = run_child(argv, log, deadline)
        err = child.error()
        return f"{output.name}: {err}" if err else None
    return check


def prepare(name: str, workdir: Path, seed: int, size: int | None = None) -> list[Invocation]:
    """Write the workload's inputs under ``workdir``; return its invocations in order."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "assess-400k":
        return _assess_scale(workdir, seed, size or DEFAULT_SIZE[name])
    if name == "contaminate-100k":
        return _contaminate_scale(workdir, seed, size or DEFAULT_SIZE[name])
    if name == "pipeline-small":
        return _pipeline(workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


def _assess_scale(workdir: Path, seed: int, size: int) -> list[Invocation]:
    doc, report = workdir / "scale.nt", workdir / "scale.json"
    undeclared = scale_document(size, seed, doc)

    def check(deadline):
        data, err = _read_report(report)
        if err:
            return err
        if data["counts"]["triples"] != size:
            return f"counts.triples = {data['counts']['triples']}, expected {size}"
        if data["metrics"]["M4"]["numerator"] != undeclared:
            return f"M4 numerator {data['metrics']['M4']['numerator']}, expected {undeclared}"
        if seed == 0 and size == 400_000 and report_digest(data) != ASSESS_400K_SEED0_DIGEST:
            return "report differs from the recorded seed-0 digest"
        return None

    return [Invocation(["assess", str(doc), "--format", "json", "-o", str(report)],
                       [report], check)]


def _write_plan(path: Path, seed: int, intensities: dict[str, int]):
    path.write_text(json.dumps({"seed": seed, "intensities": intensities}), encoding="utf-8")


def _contaminate_scale(workdir: Path, seed: int, size: int) -> list[Invocation]:
    doc, plan = workdir / "scale.nt", workdir / "plan.json"
    out, manifest = workdir / "dirty.nt", workdir / "dirty.manifest.json"
    scale_document(size, seed, doc)
    _write_plan(plan, seed, {h: 3 for h in HEURISTICS})
    return [Invocation(["contaminate", str(doc), "--plan", str(plan), "-o", str(out)],
                       [out, manifest], _replay_check(doc, out, manifest))]


def _pipeline(workdir: Path, seed: int) -> list[Invocation]:
    """The README quick start on the bundled fixtures."""
    plan = DATA / "plans" / "zoo_demo.json"
    if seed:
        bundled = json.loads(plan.read_text(encoding="utf-8"))
        plan = workdir / "plan.json"
        _write_plan(plan, bundled["seed"] + seed, bundled["intensities"])
    clean = DATA / "zoo_clean.nt"
    dirty, manifest = workdir / "dirty.nt", workdir / "dirty.manifest.json"
    reports = {stem: workdir / f"{stem}.json"
               for stem in ("family_nt", "family_ttl", "clean", "dirty")}
    compare, correlate = workdir / "compare.txt", workdir / "correlate.txt"

    def assess(src: Path, stem: str) -> Invocation:
        return Invocation(["assess", str(src), "--format", "json", "-o", str(reports[stem])],
                          [reports[stem]], _report_check(reports[stem]))

    return [
        assess(DATA / "family.nt", "family_nt"),
        assess(DATA / "family.ttl", "family_ttl"),
        assess(clean, "clean"),
        Invocation(["contaminate", str(clean), "--plan", str(plan), "-o", str(dirty)],
                   [dirty, manifest],
                   _replay_check(clean, dirty, manifest,
                                 expected=DATA / "zoo_dirty.nt" if seed == 0 else None)),
        assess(dirty, "dirty"),
        Invocation(["compare", str(reports["clean"]), str(reports["dirty"]),
                    "--manifest", str(manifest), "-o", str(compare)],
                   [compare], _text_check(compare, "heuristics")),
        Invocation(["correlate", *map(str, reports.values()), "-o", str(correlate)],
                   [correlate], _text_check(correlate, "M10")),
    ]
