"""Report serialization: JSON, CSV (one row per dataset) and a plain table.

JSON and CSV carry full-precision values; the table view rounds to 0.01.
"""

from __future__ import annotations

import dataclasses
import io
import json
from contextlib import contextmanager
from typing import Mapping

from .metrics import MetricId, MetricReport, MetricValue, ReportCounts, metric_id


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
                numerator=typed(entry["numerator"], int),
                denominator=typed(entry["denominator"], int),
                clamped=typed(entry.get("clamped", False), bool),
                offenders=typed_items(entry.get("offenders", []), int, str),
            )
        return MetricReport(
            dataset_id=typed(data.get("dataset", ""), str),
            counts=ReportCounts(**{f.name: typed(counts.get(f.name, 0), int)
                                   for f in dataclasses.fields(ReportCounts)}),
            metrics=metrics,
            dictionary_id=data.get("dictionary"),
            tool_version=data.get("version", ""),
            flags=typed_items(data.get("flags", []), str),
        )


def report_to_json(report: MetricReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def load_report(path) -> MetricReport:
    return report_from_dict(read_json(path, "report"))


def report_to_csv(report: MetricReport) -> str:
    """One header line and one row: dataset, then the metric columns in order."""
    ids = [mid for mid in MetricId if mid in report.metrics]
    out = io.StringIO()
    out.write("dataset," + ",".join(m.value for m in ids) + "\n")
    out.write(report.dataset_id + ","
              + ",".join(repr(report.metrics[m].value) for m in ids) + "\n")
    return out.getvalue()


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
        return report_to_json(report)
    if fmt == "csv":
        return report_to_csv(report)
    if fmt == "table":
        return report_to_table(report)
    raise ValueError(f"unknown report format: {fmt!r}")
