"""Command-line front end: assess, contaminate, compare, correlate.

Exit codes: 0 success, 1 an input that cannot be read or parsed or an
output that cannot be written, 2 usage error. An error names the file it
came from. Output files are written atomically; a failing command leaves no
partial files behind. A command runs with the cyclic garbage collector off.

Each command imports only the modules it runs: at module level this file
imports what ``build_parser`` needs, and every rdfqa module is imported
inside the function that uses it. So ``--help`` and a usage error load no
rdfqa module but this one, and ``assess`` never loads the contaminator.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .metrics import Dictionary, MetricId

DICTIONARY_ENV = "RDFQA_DICTIONARY"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2


def _fail(message: str, code: int) -> int:
    print(f"rdfqa: error: {message}", file=sys.stderr)
    return code


class InputError(Exception):
    """An input file that does not decode or parse; the message names it."""


def _read(load, path, errors=ValueError):
    """``load(path)``; one of ``errors``, by default a decode or JSON error,
    becomes an InputError naming ``path``."""
    try:
        return load(path)
    except errors as exc:
        raise InputError(f"{path}: {exc}") from None


def _write_atomic(*files: tuple[Path, Iterable[bytes]]):
    """Write every ``(path, blocks)`` pair or none: each file's blocks of
    bytes go to a temporary file first, and the temporaries are renamed once
    all are written. A block is written as it comes, so a writer need never
    hold a whole file's bytes."""
    tmps = [p.with_name(f"{p.name}.tmp{os.getpid()}-{k}") for k, (p, _) in enumerate(files)]
    renamed = []
    try:
        for tmp, (_, blocks) in zip(tmps, files):
            with open(tmp, "wb") as fh:
                fh.writelines(blocks)
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for path in tmps + renamed:
            path.unlink(missing_ok=True)
        raise


def _emit(text: str, output_path: Path | None):
    if output_path is None:
        sys.stdout.write(text)
    else:
        _write_atomic((output_path, (text.encode("utf-8"),)))


def _resolve_dictionary(args: argparse.Namespace) -> Dictionary:
    from .metrics import default_dictionary, load_dictionary

    # precedence: flag, then environment, then the packaged word list
    path = args.dictionary or os.environ.get(DICTIONARY_ENV)
    return _read(load_dictionary, path) if path else default_dictionary()


def _load_input_dataset(args: argparse.Namespace):
    from .core.parsing import ParseError, load_dataset, merge_datasets

    errors = (ParseError, ValueError)
    dataset = _read(load_dataset, args.dataset, errors)
    if args.schema is not None:
        dataset = merge_datasets(dataset, _read(load_dataset, args.schema, errors))
    return dataset


def significance_level(text: str) -> float:
    """An ``--alpha``: a number strictly between 0 and 1, else a usage error."""
    value = float(text)
    if not 0 < value < 1:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"alpha must lie strictly between 0 and 1, not {text}")
    return value


def _parse_metric_selection(raw: str) -> tuple[MetricId, ...]:
    from .metrics import metric_id

    ids = []
    for token in raw.replace(",", " ").split():
        ids.append(metric_id(token))
    if not ids:
        raise ValueError("empty metric selection")
    return tuple(dict.fromkeys(ids))


def cmd_assess(args: argparse.Namespace) -> int:
    from .metrics import assess
    from .reporting import render_report

    selection = None
    if args.metrics is not None:
        try:
            selection = _parse_metric_selection(args.metrics)
        except ValueError as exc:
            return _fail(str(exc), EXIT_USAGE)
    dataset = _load_input_dataset(args)
    report = assess(dataset, _resolve_dictionary(args), selection=selection)
    _emit(render_report(report, args.format), args.output)
    return EXIT_OK


def cmd_contaminate(args: argparse.Namespace) -> int:
    manifest_path = args.manifest or args.output.with_suffix(".manifest.json")
    if os.path.realpath(manifest_path) == os.path.realpath(args.output):
        return _fail(f"--manifest and -o/--output name the same file: {args.output}", EXIT_USAGE)
    import dataclasses

    from .contaminate import contaminate, load_plan, manifest_to_json
    from .core.parsing import serialize_blocks

    dataset = _load_input_dataset(args)
    plan = _read(load_plan, args.plan)
    dictionary = _resolve_dictionary(args)
    plan = dataclasses.replace(plan, seed=plan.seed if args.seed is None else args.seed)
    contaminated, manifest = contaminate(dataset, plan, dictionary)
    _write_atomic((args.output, serialize_blocks(contaminated)),
                  (manifest_path, (manifest_to_json(manifest).encode("utf-8"),)))
    for warning in manifest.warnings:
        print(f"rdfqa: warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _trend_rows(delta_report, manifest) -> list[dict]:
    """The heuristic trend, one row per heuristic in H1..H14 order: the
    intensity the plan requested (None if it names no such heuristic), the
    edits achieved, the target metric and its delta (None if not compared)."""
    from .contaminate import ALL_HEURISTICS, HEURISTIC_TARGETS

    return [{"heuristic": h.value, "requested": manifest.plan.intensities.get(h),
             "achieved": manifest.achieved.get(h, 0), "metric": HEURISTIC_TARGETS[h].value,
             "delta": delta_report.delta.get(HEURISTIC_TARGETS[h])}
            for h in ALL_HEURISTICS]


def _requested(rows: list[dict]) -> list[dict]:
    return [row for row in rows if row["requested"] is not None]


def _trend_table(rows: list[dict]) -> str:
    """One line per metric that a requested heuristic targets, naming every
    heuristic that targets it; H1..H14 meet the metrics in M1..M10 order."""
    from itertools import groupby

    lines = ["heuristics  applied   metric  delta"]
    for metric, group in groupby(rows, key=lambda row: row["metric"]):
        group = list(group)
        if _requested(group):
            label = "+".join(row["heuristic"] for row in group)
            applied = "+".join(str(row["achieved"]) for row in group)
            delta = group[0]["delta"]
            delta_txt = f"{delta:+.2f}" if delta is not None else "n/a"
            lines.append(f"{label:<10}  {applied:<8}  {metric:<6}  {delta_txt}")
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> int:
    from .reporting import load_report, to_csv, to_json
    from .stats import MetricMismatch, compute_delta, delta_to_csv, delta_to_dict, render_delta_table

    before = _read(load_report, args.before)
    after = _read(load_report, args.after)
    manifest = None
    if args.manifest:
        from .contaminate import load_manifest

        manifest = _read(load_manifest, args.manifest)
    try:
        delta_report = compute_delta(before, after)
    except MetricMismatch as exc:
        return _fail(str(exc), EXIT_USAGE)
    rows = None if manifest is None else _trend_rows(delta_report, manifest)
    if args.format == "json":
        payload = delta_to_dict(delta_report)
        if rows is not None:
            payload["trend"] = _requested(rows)
        text = to_json(payload)
    elif args.format == "csv":
        text = delta_to_csv(delta_report)
        if rows is not None:  # headed by the JSON keys; an n/a delta is an empty cell
            text += "\n" + to_csv([rows[0].keys(), *(row.values() for row in _requested(rows))])
    else:
        text = render_delta_table(delta_report)
        if rows is not None:
            text += "\n" + _trend_table(rows)
    _emit(text, args.output)
    return EXIT_OK


def cmd_correlate(args: argparse.Namespace) -> int:
    if len(args.reports) < 3:
        return _fail("correlate needs at least 3 report files", EXIT_USAGE)
    from .reporting import load_report, to_json
    from .stats import correlation_matrix, matrix_to_csv, matrix_to_dict, render_matrix

    reports = [_read(load_report, p) for p in args.reports]
    matrix = correlation_matrix(reports, alpha=args.alpha)
    if args.format == "json":
        text = to_json(matrix_to_dict(matrix))
    elif args.format == "csv":
        text = matrix_to_csv(matrix)
    else:
        text = render_matrix(matrix)
    _emit(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdfqa",
        description="Assess the intrinsic quality of RDF datasets before publication.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser("assess", help="compute the quality metrics for a dataset")
    p_assess.add_argument("dataset", type=Path)
    p_assess.add_argument("--schema", type=Path, help="separate schema file merged before indexing")
    p_assess.add_argument("--dictionary", type=Path, help="word list for the misspelling metric")
    p_assess.add_argument("--metrics", help="subset to compute, e.g. M1,M7")

    p_cont = sub.add_parser("contaminate", help="inject quality defects per a plan file")
    p_cont.add_argument("dataset", type=Path)
    p_cont.add_argument("--plan", type=Path, required=True)
    p_cont.add_argument("--seed", type=int, help="override the plan's seed")
    p_cont.add_argument("--schema", type=Path)
    p_cont.add_argument("--dictionary", type=Path)
    p_cont.add_argument("--manifest", type=Path, help="manifest output path")
    p_cont.add_argument("-o", "--output", type=Path, required=True)

    p_cmp = sub.add_parser("compare", help="delta between two metric reports")
    p_cmp.add_argument("before", type=Path)
    p_cmp.add_argument("after", type=Path)
    p_cmp.add_argument("--manifest", type=Path,
                       help="contamination manifest; adds the heuristic trend table")

    p_corr = sub.add_parser("correlate", help="inter-metric rank correlation over reports")
    p_corr.add_argument("reports", type=Path, nargs="+")
    p_corr.add_argument("--alpha", type=significance_level, default=0.05)

    # last in each command, so its help and usage text keep their order
    for p in (p_assess, p_cmp, p_corr):
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("-o", "--output", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    # A parsed graph holds no reference cycles, so a pass of the cyclic
    # collector over its millions of terms and triples frees nothing. The
    # command runs without it, and the caller's setting comes back after.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        handlers = {
            "assess": cmd_assess,
            "contaminate": cmd_contaminate,
            "compare": cmd_compare,
            "correlate": cmd_correlate,
        }
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
