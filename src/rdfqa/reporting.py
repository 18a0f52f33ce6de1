"""Every rdfqa output in JSON, CSV and a plain-text table: ``render``.

An output is a metric report, a delta between two reports (with the
heuristic trend of a manifest) or a correlation matrix. ``to_json``,
``to_csv`` and ``to_table`` are the one encoder of each format; a table
rounds values to 0.01. Reports are read back here too.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from contextlib import contextmanager
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .metrics import MetricId, MetricReport, MetricValue, ReportCounts, metric_id

if TYPE_CHECKING:
    from .stats import CorrelationMatrix, DeltaReport


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


def to_table(columns: Mapping[str, int | None], rows: Iterable[Sequence[str]]) -> str:
    """``rows`` of text cells under a header of the names in ``columns``, each
    mapped to its column's width: a cell is left-justified to that width, two
    spaces part the columns, and the last column (width None) is not padded."""
    widths = list(columns.values())[:-1]
    return "".join("  ".join([*map(str.ljust, row, widths), row[-1]]) + "\n"
                   for row in [list(columns), *rows])


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


# ---------------------------------------------------------------------------
# Rendering: each output's JSON value, CSV rows and table


def _report_rows(report: MetricReport) -> list:
    """One header line and one row."""
    ids = [mid for mid in MetricId if mid in report.metrics]
    return [["dataset", *ids], [report.dataset_id, *(report.metrics[m].value for m in ids)]]


def _report_table(report: MetricReport) -> str:
    fields = [("dataset", report.dataset_id), *dataclasses.asdict(report.counts).items()]
    if report.dictionary_id:
        fields.append(("dictionary", report.dictionary_id))
    rows = []
    for mid in MetricId:
        mv = report.metrics.get(mid)
        if mv is not None:
            note = " (clamped)" if mv.clamped else ""
            note += " (degenerate)" if mv.degenerate else ""
            rows.append((mid.value, f"{mv.value:.2f}", str(mv.numerator),
                         f"{mv.denominator}{note}"))
    text = "".join(f"{name:<10}  {value}\n" for name, value in fields) + "\n" + to_table(
        {"metric": 6, "value": 5, "numerator": 9, "denominator": None}, rows)
    if report.flags:
        text += "\n" + "".join(f"! {flag}\n" for flag in report.flags)
    return text


_DELTA_COLUMNS = {"metric": 6, "before": 6, "after": 6, "delta": None}


def _delta_values(delta: DeltaReport) -> list[tuple[MetricId, float, float, float]]:
    return [(mid, delta.before.metrics[mid].value, delta.after.metrics[mid].value,
             delta.delta[mid]) for mid in MetricId if mid in delta.delta]


def _requested(trend: Iterable[dict]) -> list[dict]:
    return [row for row in trend if row["requested"] is not None]


def _delta_dict(delta: DeltaReport) -> dict:
    data = {
        "dataset": delta.dataset_id,
        "before": {m.value: delta.before.metrics[m].value for m in delta.delta},
        "after": {m.value: delta.after.metrics[m].value for m in delta.delta},
        "delta": {m.value: delta.delta[m] for m in delta.delta},
    }
    if delta.trend is not None:
        data["trend"] = _requested(delta.trend)
    return data


def _delta_rows(delta: DeltaReport) -> list:
    rows = [tuple(_DELTA_COLUMNS), *_delta_values(delta)]
    if delta.trend is not None:
        # after an empty line, headed by the JSON keys; an n/a delta is an empty cell
        rows += [(), delta.trend[0].keys(), *(row.values() for row in _requested(delta.trend))]
    return rows


def _delta_table(delta: DeltaReport) -> str:
    text = f"dataset: {delta.dataset_id}\n\n" + to_table(_DELTA_COLUMNS, [
        (mid.value, f"{b:.2f}", f"{a:.2f}", f"{d:+.2f}") for mid, b, a, d in _delta_values(delta)])
    if delta.trend is not None:
        text += "\n" + _trend_table(delta.trend)
    return text


def _trend_table(trend: Sequence[dict]) -> str:
    """One line per metric that a requested heuristic targets, naming every
    heuristic that targets it; H1..H14 meet the metrics in M1..M10 order."""
    rows = []
    for metric, group in groupby(trend, key=itemgetter("metric")):
        group = list(group)
        if _requested(group):
            delta = group[0]["delta"]
            rows.append(("+".join(row["heuristic"] for row in group),
                         "+".join(str(row["achieved"]) for row in group), metric,
                         "n/a" if delta is None else f"{delta:+.2f}"))
    return to_table({"heuristics": 10, "applied": 8, "metric": 6, "delta": None}, rows)


def _matrix_dict(matrix: CorrelationMatrix) -> dict:
    pairs = [{"a": a.value, "b": b.value, "undefined": True} if cell is None else
             {"a": a.value, "b": b.value, "rho": cell.rho, "p_value": cell.p_value,
              "significant": matrix.significant(a, b)}
             for (a, b), cell in matrix.cells.items()]
    return {"alpha": matrix.alpha, "n": matrix.n,
            "metrics": [m.value for m in matrix.metric_ids], "pairs": pairs}


def _matrix_rows(matrix: CorrelationMatrix) -> list:
    """One row per pair; an undefined pair has empty rho, p value and significance."""
    return [("a", "b", "rho", "p_value", "significant"),
            *((a, b, None, None, None) if cell is None else
              (a, b, cell.rho, cell.p_value, str(matrix.significant(a, b)).lower())
              for (a, b), cell in matrix.cells.items())]


def _matrix_table(matrix: CorrelationMatrix) -> str:
    """The upper triangle in right-justified columns: a rho row and a p value
    row per metric; '*' marks p <= alpha, '-' otherwise, 'n/a' an undefined pair."""
    ids = matrix.metric_ids
    lines = [" " * 9 + "".join(f"{m.value:>7}" for m in ids)]
    for i, a in enumerate(ids):
        later, blank = ids[i + 1:], " " * 7 * (i + 1)
        rhos = (matrix.cells[(a, b)] for b in later)
        lines.append(f"{a.value:<9}{blank}" + "".join(
            "    n/a" if cell is None else f"{cell.rho:>7.2f}" for cell in rhos))
        lines.append(f"{'p value':<9}{blank}" + "".join(
            f"{'*' if matrix.significant(a, b) else '-':>7}" for b in later))
    lines += ["", f"('-' means p value > {matrix.alpha:g}, '*' means p value <= "
                  f"{matrix.alpha:g}, 'n/a' an undefined pair)"]
    return "\n".join(lines) + "\n"


#: each output type's JSON value, CSV rows and table text, by the type's
#: name: this module does not import ``stats``, which defines two of them
_VIEWS = {
    "MetricReport": dict(json=report_to_dict, csv=_report_rows, table=_report_table),
    "DeltaReport": dict(json=_delta_dict, csv=_delta_rows, table=_delta_table),
    "CorrelationMatrix": dict(json=_matrix_dict, csv=_matrix_rows, table=_matrix_table),
}
_ENCODERS = dict(json=to_json, csv=to_csv, table=str)


def render(output: MetricReport | DeltaReport | CorrelationMatrix, fmt: str) -> str:
    """``output``, a metric report, a delta (with its trend, if any) or a
    correlation matrix, as ``fmt`` text: "json", "csv" or "table"."""
    if fmt not in _ENCODERS:
        raise ValueError(f"unknown output format: {fmt!r}")
    return _ENCODERS[fmt](_VIEWS[type(output).__name__][fmt](output))


render_report = render  # the name perfbench/layers.py imports
