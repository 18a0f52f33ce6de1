"""Statistical analysis over metric reports.

Before/after deltas and Spearman rank correlation with average-rank tie
handling. The two-sided p-value uses the Student-t approximation
t = rho*sqrt((n-2)/(1-rho^2)) with n-2 degrees of freedom, computed as the
regularized incomplete beta function I_x((n-2)/2, 1/2) by its continued
fraction. A constant input vector makes the correlation undefined - a
tagged result (None cell), not an exception - because a vector of identical
values (typically all zeros) carries no rank information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .metrics import MetricId, MetricReport
from .reporting import to_csv


@dataclass(frozen=True)
class DeltaReport:
    dataset_id: str
    before: MetricReport
    after: MetricReport
    delta: Mapping[MetricId, float]


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float


@dataclass(frozen=True)
class CorrelationMatrix:
    metric_ids: tuple[MetricId, ...]
    #: upper-triangle cells keyed (a, b) with a before b; None marks an
    #: undefined pair (at least one constant vector)
    cells: Mapping[tuple[MetricId, MetricId], SpearmanResult | None]
    alpha: float
    n: int

    def significant(self, a: MetricId, b: MetricId) -> bool:
        cell = self.cells.get((a, b)) or self.cells.get((b, a))
        return cell is not None and cell.p_value <= self.alpha


class MetricMismatch(Exception):
    """Reports do not cover the same metric selection."""


def compute_delta(before: MetricReport, after: MetricReport) -> DeltaReport:
    """Elementwise after - before. Raises MetricMismatch on differing selections."""
    if set(before.metrics) != set(after.metrics):
        missing = {m.value for m in set(before.metrics) ^ set(after.metrics)}
        raise MetricMismatch(f"metric selections differ: {sorted(missing)}")
    delta = {mid: after.metrics[mid].value - before.metrics[mid].value
             for mid in before.metrics}
    return DeltaReport(dataset_id=after.dataset_id, before=before, after=after,
                       delta=delta)


# ---------------------------------------------------------------------------
# Spearman's rho


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2.0  # average of 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = sum((a - mean_x) ** 2 for a in x)
    var_y = sum((b - mean_y) ** 2 for b in y)
    return cov / math.sqrt(var_x * var_y)


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> SpearmanResult | None:
    """Spearman rank correlation with a t-approximated two-sided p-value.

    Returns None (undefined) when either vector is constant. Requires n >= 3.
    """
    if len(x) != len(y):
        raise ValueError("input vectors must have equal length")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples")
    if min(x) == max(x) or min(y) == max(y):
        return None
    rho = _pearson(average_ranks(x), average_ranks(y))
    # guard against rounding drift before the t transform
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _student_t_two_sided_p(t_stat, n - 2)
    return SpearmanResult(rho=rho, p_value=min(p, 1.0))


def _log_gamma_half_ratio(z: float) -> float:
    """log Gamma(z+1/2) - log Gamma(z). For large z the two lgamma values
    are close and large, so their difference loses digits; there the
    asymptotic series is used instead, from the Bernoulli-polynomial form of
    Stirling's series (DLMF 5.11.8), truncated where its next term is below
    one unit in the last place at z = 20."""
    if z < 20.0:
        return math.lgamma(z + 0.5) - math.lgamma(z)
    w = 1.0 / (z * z)
    return 0.5 * math.log(z) - (1.0 / 8.0 - w * (1.0 / 192.0 - w * (
        1.0 / 640.0 - w * (17.0 / 14336.0 - w * 31.0 / 18432.0)))) / z


def _student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) = I_x(df/2, 1/2) at x = df/(df+t^2), by the modified
    Lentz method (Numerical Recipes, 3rd ed., section 6.4). Past
    x = (a+1)/(a+b+2) it uses I_x(a, b) = 1 - I_{1-x}(b, a), with 1-x formed
    from t, so a small p is never a difference of two numbers near 1.

    x and y = 1 - x are both formed from t, and each step reads whichever
    one keeps its digits: the logarithm of the one near 1 is ``log1p`` of
    the other, the first Lentz denominator 1 - (a+b)x/(a+1) is formed as
    (1-b + (a+b)y)/(a+1) when b < 1, and the gamma prefactor reads
    ``_log_gamma_half_ratio``. So the p-value keeps its digits at large df.
    """
    a, b = df / 2.0, 0.5
    x, y = df / (df + t * t), t * t / (df + t * t)
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    if x == 0.0:  # t == 0
        return 1.0
    tiny = 1e-300
    c = 1.0
    first = (1.0 - b) + (a + b) * y if b < 1.0 else (a + 1.0) - (a + b) * x
    d = 1.0 / max(first / (a + 1.0), tiny)
    f = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    # one of a and b is 1/2, so B(a, b) is Gamma(1/2) Gamma(z) / Gamma(z+1/2)
    # for the other one, z
    ix = f / a * math.exp(_log_gamma_half_ratio(b if swap else a) - math.lgamma(0.5)
                          + a * log_x + b * log_y)
    return 1.0 - ix if swap else ix


def correlation_matrix(reports: Sequence[MetricReport],
                       alpha: float = 0.05) -> CorrelationMatrix:
    """Pairwise rho over every metric pair present in all reports.

    Pairs involving a constant metric vector are Undefined (None cells),
    which operationalizes the caveat that all-zero metric columns would
    otherwise manufacture spurious correlations.
    """
    if not 0 < alpha < 1:  # NaN fails both comparisons
        raise ValueError(f"alpha must lie strictly between 0 and 1, not {alpha}")
    if len(reports) < 3:
        raise ValueError("need at least 3 reports")
    ids = tuple(mid for mid in MetricId if all(mid in r.metrics for r in reports))
    vectors = {mid: [r.metrics[mid].value for r in reports] for mid in ids}
    cells: dict[tuple[MetricId, MetricId], SpearmanResult | None] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            cells[(a, b)] = spearman_rho(vectors[a], vectors[b])
    return CorrelationMatrix(metric_ids=ids, cells=cells, alpha=alpha, n=len(reports))


# ---------------------------------------------------------------------------
# Rendering


def render_delta_table(report: DeltaReport) -> str:
    lines = [f"dataset: {report.dataset_id}", "",
             "metric  before  after   delta"]
    for mid in MetricId:
        if mid not in report.delta:
            continue
        b = report.before.metrics[mid].value
        a = report.after.metrics[mid].value
        d = report.delta[mid]
        lines.append(f"{mid.value:<6}  {b:.2f}    {a:.2f}    {d:+.2f}")
    return "\n".join(lines) + "\n"


def delta_to_dict(report: DeltaReport) -> dict:
    return {
        "dataset": report.dataset_id,
        "before": {m.value: report.before.metrics[m].value for m in report.delta},
        "after": {m.value: report.after.metrics[m].value for m in report.delta},
        "delta": {m.value: report.delta[m] for m in report.delta},
    }


def delta_to_csv(report: DeltaReport) -> str:
    return to_csv([("metric", "before", "after", "delta"),
                   *((mid, report.before.metrics[mid].value, report.after.metrics[mid].value,
                      report.delta[mid]) for mid in MetricId if mid in report.delta)])


def render_matrix(matrix: CorrelationMatrix) -> str:
    """Upper-triangle text rendering: a rho row and a significance row per
    metric; '*' marks p <= alpha, '-' otherwise, 'n/a' an undefined pair."""
    ids = matrix.metric_ids
    width = 7
    header = "         " + "".join(f"{m.value:>{width}}" for m in ids)
    lines = [header]
    for i, a in enumerate(ids):
        rho_cells = []
        sig_cells = []
        for j, b in enumerate(ids):
            if j <= i:
                rho_cells.append(" " * width)
                sig_cells.append(" " * width)
                continue
            cell = matrix.cells[(a, b)]
            if cell is None:
                rho_cells.append(f"{'n/a':>{width}}")
                sig_cells.append(f"{'-':>{width}}")
            else:
                rho_cells.append(f"{cell.rho:>{width}.2f}")
                sig_cells.append(f"{'*' if matrix.significant(a, b) else '-':>{width}}")
        lines.append(f"{a.value:<9}" + "".join(rho_cells))
        lines.append(f"{'p value':<9}" + "".join(sig_cells))
    lines.append("")
    lines.append(f"('-' means p value > {matrix.alpha:g}, '*' means p value <= {matrix.alpha:g},"
                 " 'n/a' an undefined pair)")
    return "\n".join(lines) + "\n"


def matrix_to_dict(matrix: CorrelationMatrix) -> dict:
    pairs = []
    for (a, b), cell in matrix.cells.items():
        entry: dict = {"a": a.value, "b": b.value}
        if cell is None:
            entry["undefined"] = True
        else:
            entry.update(rho=cell.rho, p_value=cell.p_value,
                         significant=matrix.significant(a, b))
        pairs.append(entry)
    return {"alpha": matrix.alpha, "n": matrix.n,
            "metrics": [m.value for m in matrix.metric_ids], "pairs": pairs}


def matrix_to_csv(matrix: CorrelationMatrix) -> str:
    """One row per pair; an undefined pair has empty rho, p value and significance."""
    return to_csv([("a", "b", "rho", "p_value", "significant"),
                   *((a, b, None, None, None) if cell is None else
                     (a, b, cell.rho, cell.p_value, str(matrix.significant(a, b)).lower())
                     for (a, b), cell in matrix.cells.items())])
