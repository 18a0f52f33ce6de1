"""Report serialization: JSON, CSV (one row per dataset) and a plain table.

JSON and CSV carry full-precision values; the table view rounds to 0.01.
``to_json`` and ``to_csv`` are the one encoding of each format that every
rdfqa output file uses: reports, deltas, trends, matrices and manifests.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from contextlib import contextmanager
from typing import Mapping

from .metrics import MetricId, MetricReport, MetricValue, ReportCounts, metric_id


def to_json(data) -> str:
    """``data`` as JSON text: indented by two spaces, ending in a newline."""
    return json.dumps(data, indent=2) + "\n"


class _Lines(list):
    """A file for ``csv.writer`` that keeps each line written: one per row."""

    write = list.append


def to_csv(rows) -> str:
    """``rows`` as CSV text (RFC 4180), one line per row, each ending in a
    newline. A cell that holds a comma, a quote, a CR or an LF is quoted, a
    quote inside it doubled; ``None`` is an empty cell, and a float is
    written in full precision."""
    # Before Python 3.13 the writer quotes a line break only if it is in
    # its line terminator, so it is given both, and each row ends in "\n".
    lines = _Lines()
    csv.writer(lines, lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def report_to_dict(report: MetricReport) -> dict:
    return {
        "dataset": report.dataset_id,
        "tool": "rdfqa",
        "version": report.tool_version,
        "counts": dataclasses.asdict(report.counts),
        "dictionary": report.dictionary_id,
        "flags": list(report.flags),
        "metrics": {
            mid.value: {
                "value": mv.value,
                "numerator": mv.numerator,
                "denominator": mv.denominator,
                "clamped": mv.clamped,
                "offenders": list(mv.offenders),
            }
            for mid, mv in report.metrics.items()
        },
    }


@contextmanager
def malformed(what: str):
    """Raise the errors that reading a wrongly shaped JSON ``what`` causes,
    a missing key, a value of the wrong type or nesting too deep for the
    decoder, as ValueError. Nesting too deep is said in plain words: the
    decoder's RecursionError names the interpreter's limit, not the file."""
    try:
        yield
    except RecursionError:
        raise ValueError(f"malformed {what}: nested too deeply") from None
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise ValueError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def read_json(path, what: str):
    """The JSON value in the file at ``path``, a ``what``; nesting too deep
    for the decoder makes it a malformed one."""
    with open(path, encoding="utf-8") as fh, malformed(what):
        return json.load(fh)


def typed(value, *kinds: type):
    """``value`` if it is exactly one of ``kinds``: a JSON ``true`` or ``2.9``
    is no count, ``"0.5"`` no metric value, and ``[1]`` no dataset id."""
    if type(value) not in kinds:
        raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def counted(value, what: str, name: str) -> int:
    """``value`` if it is a JSON integer of at least 0, as every count rdfqa
    writes is; a negative ``name`` makes a malformed ``what``."""
    if typed(value, int) < 0:
        raise ValueError(f"malformed {what}: {name} {value} is below 0")
    return value


def typed_items(value, *kinds: type) -> tuple:
    """The items of the JSON list ``value``, each exactly one of ``kinds``:
    a string is no list of flags."""
    return tuple(typed(item, *kinds) for item in typed(value, list))


def report_from_dict(data: Mapping) -> MetricReport:
    with malformed("report"):
        counts = data.get("counts", {})
        metrics = {}
        for key, entry in data["metrics"].items():
            mid = metric_id(key)
            value = float(typed(entry["value"], int, float))
            if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
                raise ValueError(f"malformed report: {key} value {value!r} is not in [0, 1]")
            metrics[mid] = MetricValue(
                id=mid,
                value=value,
                numerator=counted(entry["numerator"], "report", f"{key} numerator"),
                denominator=counted(entry["denominator"], "report", f"{key} denominator"),
                clamped=typed(entry.get("clamped", False), bool),
                offenders=typed_items(entry.get("offenders", []), int, str),
            )
        return MetricReport(
            dataset_id=typed(data.get("dataset", ""), str),
            counts=ReportCounts(**{f.name: counted(counts.get(f.name, 0), "report",
                                                   f"counts {f.name}")
                                   for f in dataclasses.fields(ReportCounts)}),
            metrics=metrics,
            dictionary_id=typed(data.get("dictionary"), str, type(None)),
            tool_version=typed(data.get("version", ""), str),
            flags=typed_items(data.get("flags", []), str),
        )


def load_report(path) -> MetricReport:
    return report_from_dict(read_json(path, "report"))


def report_to_table(report: MetricReport) -> str:
    lines = [
        f"dataset     {report.dataset_id}",
        f"triples     {report.counts.triples}",
        f"instances   {report.counts.instances}",
        f"classes     {report.counts.classes}",
        f"properties  {report.counts.properties}",
    ]
    if report.dictionary_id:
        lines.append(f"dictionary  {report.dictionary_id}")
    lines.append("")
    lines.append("metric  value  numerator  denominator")
    for mid in MetricId:
        mv = report.metrics.get(mid)
        if mv is None:
            continue
        note = " (clamped)" if mv.clamped else ""
        note += " (degenerate)" if mv.degenerate else ""
        lines.append(f"{mid.value:<6}  {mv.value:.2f}   {mv.numerator:<9}  {mv.denominator}{note}")
    if report.flags:
        lines.append("")
        lines.extend(f"! {flag}" for flag in report.flags)
    return "\n".join(lines) + "\n"


def render_report(report: MetricReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report_to_dict(report))
    if fmt == "csv":  # one header line and one row
        ids = [mid for mid in MetricId if mid in report.metrics]
        return to_csv([["dataset", *ids],
                       [report.dataset_id, *(report.metrics[m].value for m in ids)]])
    if fmt == "table":
        return report_to_table(report)
    raise ValueError(f"unknown report format: {fmt!r}")
