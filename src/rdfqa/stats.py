"""Statistical analysis over metric reports; ``reporting.render`` writes
its results. Before/after deltas, with the heuristic trend of a
contamination manifest, and Spearman rank correlation with average-rank tie
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
from functools import partial
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

from .metrics import MetricId, MetricReport
from .reporting import render

if TYPE_CHECKING:
    from .contaminate import ContaminationManifest


@dataclass(frozen=True)
class DeltaReport:
    dataset_id: str
    before: MetricReport
    after: MetricReport
    delta: Mapping[MetricId, float]
    #: with a manifest, one row per heuristic in H1..H14 order: the intensity
    #: requested (None if the plan names none), the edits achieved, the
    #: target metric and its delta (None if not compared)
    trend: tuple[dict, ...] | None = None


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


def compute_delta(before: MetricReport, after: MetricReport,
                  manifest: ContaminationManifest | None = None) -> DeltaReport:
    """Elementwise after - before, with the heuristic trend of ``manifest``
    if one is given. Raises MetricMismatch on differing selections."""
    if set(before.metrics) != set(after.metrics):
        missing = {m.value for m in set(before.metrics) ^ set(after.metrics)}
        raise MetricMismatch(f"metric selections differ: {sorted(missing)}")
    delta = {mid: after.metrics[mid].value - before.metrics[mid].value
             for mid in before.metrics}
    trend = None
    if manifest is not None:
        from .contaminate import HEURISTIC_TARGETS  # loaded: it made ``manifest``

        trend = tuple({"heuristic": h.value, "requested": manifest.plan.intensities.get(h),
                       "achieved": manifest.achieved.get(h, 0), "metric": metric.value,
                       "delta": delta.get(metric)} for h, metric in HEURISTIC_TARGETS.items())
    return DeltaReport(dataset_id=after.dataset_id, before=before, after=after,
                       delta=delta, trend=trend)


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
    cells = {(a, b): spearman_rho(vectors[a], vectors[b]) for a, b in combinations(ids, 2)}
    return CorrelationMatrix(metric_ids=ids, cells=cells, alpha=alpha, n=len(reports))


# the names perfbench/layers.py imports
render_delta_table = render_matrix = partial(render, fmt="table")
