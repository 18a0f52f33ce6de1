"""Traced replay of a workload's CLI invocations through rdfqa's public functions.

Run as a child process with the package importable:

    PYTHONPATH=src python3 perfbench/layers.py SPEC.json RESULT.json

SPEC holds the invocations (CLI argument lists, in order), the run ids to
replay them under, one repetition per id, and whether to take the parse
peak instead. Each invocation is replayed the way ``rdfqa.cli`` runs it,
with a span around every call into a layer, and writes the same output
files. After it, a ``breakdown`` span times what that call does inside: the
dedup, both indices, each metric alone and each heuristic alone. RESULT
receives the spans and the counts of each repetition, or the largest
tracemalloc peak of parsing the invocations' N-Triples inputs.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

from rdfqa import metrics as m
from rdfqa.cli import build_parser
from rdfqa.contaminate import (
    ALL_HEURISTICS,
    ContaminationPlan,
    contaminate,
    load_manifest,
    load_plan,
    manifest_to_json,
    replay_manifest,
)
from rdfqa.core.indexing import build_instance_index, build_schema_index
from rdfqa.core.model import make_dataset
from rdfqa.core.parsing import guess_format, parse_dataset, serialize_dataset
from rdfqa.reporting import load_report, render_report
from rdfqa.stats import compute_delta, correlation_matrix, render_delta_table, render_matrix

from spans import Tracer


def _load(tr: Tracer, path: Path, counts: Counter):
    fmt = guess_format(path)
    with tr.span("parsing.read"):
        data = path.read_bytes()
    with tr.span("parsing.decode"):
        text = data.decode("utf-8")
    with tr.span(f"parsing.{fmt}"):
        dataset = parse_dataset(text, fmt, path.stem)
    counts["parsing.triples"] += len(dataset.triples)
    counts["parsing.duplicates"] += dataset.duplicate_count
    return dataset


def _indices(tr: Tracer, dataset):
    with tr.span("model.dedup"):
        make_dataset(dataset.id, dataset.triples)
    with tr.span("indexing.schema"):
        schema = build_schema_index(dataset)
    with tr.span("indexing.instance"):
        instances = build_instance_index(dataset)
    return schema, instances


def _assess(tr, args, counts):
    with tr.span("cli.assess"):
        dataset = _load(tr, args.dataset, counts)
        with tr.span("metrics.dictionary"):
            words = m.default_dictionary()
        with tr.span("metrics.assess"):
            report = m.assess(dataset, words)
        with tr.span("reporting.render"):
            text = render_report(report, args.format)
        args.output.write_bytes(text.encode("utf-8"))
    with tr.span("breakdown"):
        schema, inst = _indices(tr, dataset)
        calls = {
            "M1": lambda: m.m1_missing_property_values(schema, inst),
            "M2": lambda: m.m2_out_of_range_values(dataset, schema, inst),
            "M3": lambda: m.m3_misspelled_values(dataset, words),
            "M4": lambda: m.m4_undefined_terms(dataset, schema),
            "M5": lambda: m.m5_disjoint_membership(schema, inst),
            "M6": lambda: m.m6_inconsistent_values(dataset),
            "M7": lambda: m.m7_functional_conflicts(dataset, schema),
            "M8": lambda: m.m8_inverse_functional_conflicts(dataset, schema),
            "M9": lambda: m.m9_improper_datatype(dataset, schema),
            "M10": lambda: m.m10_similar_classes(schema, inst),
        }
        for key, call in calls.items():
            with tr.span(f"metrics.{key}"):
                call()


def _contaminate(tr, args, counts):
    with tr.span("cli.contaminate"):
        dataset = _load(tr, args.dataset, counts)
        plan = load_plan(args.plan)
        if args.seed is not None:
            plan = ContaminationPlan(plan.intensities, args.seed, plan.dataset_id or dataset.id)
        elif not plan.dataset_id:
            plan = ContaminationPlan(plan.intensities, plan.seed, dataset.id)
        with tr.span("metrics.dictionary"):
            words = m.default_dictionary()
        with tr.span("contaminate.total"):
            dirty, manifest = contaminate(dataset, plan, words)
        with tr.span("parsing.serialize"):
            out = serialize_dataset(dirty)
        with tr.span("contaminate.manifest_json"):
            manifest_json = manifest_to_json(manifest)
        args.output.write_bytes(out)
        (args.manifest or args.output.with_suffix(".manifest.json")).write_bytes(
            manifest_json.encode("utf-8"))
    counts["parsing.serialize_bytes"] += len(out)
    counts["contaminate.edits"] += len(manifest.edits)
    counts["contaminate.requested"] += sum(plan.intensities.values())
    counts["contaminate.achieved"] += sum(manifest.achieved.values())
    with tr.span("breakdown"):
        _indices(tr, dataset)
        with tr.span("contaminate.base"):
            contaminate(dataset, ContaminationPlan({}, plan.seed, plan.dataset_id), words)
        for h in ALL_HEURISTICS:
            if plan.intensity(h):
                alone = ContaminationPlan({h: plan.intensity(h)}, plan.seed, plan.dataset_id)
                with tr.span(f"contaminate.{h.value}"):
                    contaminate(dataset, alone, words)
        with tr.span("contaminate.replay"):
            replay_manifest(dataset, manifest)


def _compare(tr, args, counts):
    with tr.span("cli.compare"):
        with tr.span("reporting.load"):
            before, after = load_report(args.before), load_report(args.after)
        if args.manifest:  # the CLI reads it for its trend table
            load_manifest(args.manifest)
        with tr.span("stats.delta"):
            delta = compute_delta(before, after)
        render_delta_table(delta)


def _correlate(tr, args, counts):
    with tr.span("cli.correlate"):
        with tr.span("reporting.load"):
            reports = [load_report(p) for p in args.reports]
        with tr.span("stats.correlate"):
            matrix = correlation_matrix(reports, alpha=args.alpha)
        render_matrix(matrix)


REPLAY = {"assess": _assess, "contaminate": _contaminate,
          "compare": _compare, "correlate": _correlate}
REPLAY_INPUT = ("assess", "contaminate")  # the commands that parse a dataset


def _repetition(tr, run_id, invocations) -> Counter:
    parser = build_parser()
    counts: Counter = Counter()
    tr.run_id = run_id
    with tr.span("rep"):
        for argv in invocations:
            args = parser.parse_args(argv)
            REPLAY[args.command](tr, args, counts)
    return counts


def _parse_peak_mb(invocations) -> float:
    """Largest tracemalloc peak of parse_dataset over the N-Triples inputs."""
    parser = build_parser()
    paths = {args.dataset for args in map(parser.parse_args, invocations)
             if args.command in REPLAY_INPUT and guess_format(args.dataset) == "ntriples"}
    peak = 0
    for path in sorted(paths):
        text = path.read_bytes().decode("utf-8")
        tracemalloc.start()
        try:
            parse_dataset(text, "ntriples", path.stem)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if spec["peak"]:
        result = {"parsing.peak_mb": _parse_peak_mb(spec["invocations"])}
    else:
        tr = Tracer()
        counts = {run_id: _repetition(tr, run_id, spec["invocations"]) for run_id in spec["runs"]}
        result = {"spans": tr.spans, "counts": counts}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
