import math
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path
from random import Random

import pytest

from rdfqa import (
    MetricId,
    MetricMismatch,
    assess,
    compute_delta,
    correlation_matrix,
    spearman_rho,
)
from rdfqa.metrics import MetricReport, MetricValue, ReportCounts
from rdfqa.stats import _student_t_two_sided_p, average_ranks, render_matrix
from .oracle import brute_force_ranks, brute_force_spearman, spearman_exact_p


def fake_report(dataset_id, values):
    metrics = {}
    for mid, v in zip(MetricId, values):
        metrics[mid] = MetricValue(id=mid, value=v, numerator=0, denominator=1)
    return MetricReport(dataset_id=dataset_id, counts=ReportCounts(0, 0, 0, 0),
                        metrics=metrics, dictionary_id=None, tool_version="t", flags=())


def test_rho_one_for_any_monotone_sequence():
    assert spearman_rho([1, 2, 3, 5, 9], [1, 2, 3, 5, 9]).rho == 1.0
    assert spearman_rho([0.1, 0.2, 0.7], [10, 20, 700]).rho == 1.0


def test_rho_minus_one_for_reversed():
    x = [1.0, 2.0, 3.0, 4.0]
    assert spearman_rho(x, list(reversed(x))).rho == -1.0


def test_constant_vector_is_undefined():
    assert spearman_rho([1, 1, 1], [1, 2, 3]) is None
    assert spearman_rho([1, 2, 3], [0, 0, 0]) is None


def test_too_few_samples_is_an_error():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2])


def test_tied_ranks_match_brute_force_oracle():
    x, y = [1, 2, 2, 4], [1, 3, 2, 4]
    assert average_ranks(x) == brute_force_ranks(x)
    result = spearman_rho(x, y)
    assert abs(result.rho - brute_force_spearman(x, y)) <= 1e-12
    # value frozen from the oracle
    assert abs(result.rho - 0.9486832980505138) <= 1e-12


def test_rho_matches_oracle_on_random_vectors():
    rng = Random(2024)
    for _ in range(200):
        n = rng.randrange(3, 12)
        x = [rng.randrange(0, 6) / 4 for _ in range(n)]
        y = [rng.randrange(0, 6) / 4 for _ in range(n)]
        if min(x) == max(x) or min(y) == max(y):
            assert spearman_rho(x, y) is None
            continue
        assert abs(spearman_rho(x, y).rho - brute_force_spearman(x, y)) <= 1e-12


def test_rho_symmetry_and_monotone_invariance():
    rng = Random(7)
    for _ in range(50):
        x = [rng.random() for _ in range(8)]
        y = [rng.random() for _ in range(8)]
        a = spearman_rho(x, y).rho
        assert abs(a - spearman_rho(y, x).rho) <= 1e-12
        fx = [math.exp(3 * v) for v in x]
        gy = [v ** 3 for v in y]
        assert abs(a - spearman_rho(fx, gy).rho) <= 1e-12


def test_p_value_properties():
    r = spearman_rho([1, 2, 3, 4, 5], [1, 2, 3, 5, 4])
    assert 0.0 < r.p_value <= 1.0
    assert spearman_rho([1, 2, 3], [1, 2, 3]).p_value == 0.0


def test_p_value_matches_scipy_student_t():
    # the p-value is computed without scipy; hold it to scipy's Student-t
    # survival function on every n from 3 to 200, and at three large n
    stats = pytest.importorskip("scipy.stats")
    rng = Random(11)
    checked = 0
    for n in range(3, 201):
        ident = list(range(n))
        near_one = ident[:]
        near_one[0], near_one[1] = near_one[1], near_one[0]
        pairs = [(ident, near_one), (ident, near_one[::-1])]
        for _ in range(10):
            pairs.append((ident, rng.sample(ident, n)))
            pairs.append(([rng.randrange(n // 3 + 2) for _ in ident],
                          [rng.randrange(n // 3 + 2) for _ in ident]))
        for x, y in pairs:
            result = spearman_rho(x, y)
            if result is None or abs(result.rho) == 1.0:
                continue
            rho = result.rho
            t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            expected = min(2.0 * float(stats.t.sf(abs(t), n - 2)), 1.0)
            diff = abs(result.p_value - expected)
            assert diff <= 1e-10, (n, rho, result.p_value, expected)
            if expected > 1e-300:
                assert diff <= 1e-9 * expected, (n, rho, result.p_value, expected)
            checked += 1
    assert checked > 4000
    # at large n, x = df/(df+t^2) is near 1; each bound is about twice the
    # relative error measured against scipy 1.17.1: 2.5e-13, 4.1e-11, 1.5e-10
    for n, bound in [(10**4, 5e-13), (10**6, 6e-11), (10**8, 3e-10)]:
        expected = 2.0 * float(stats.t.sf(2.2, n - 2))
        got = _student_t_two_sided_p(2.2, n - 2)
        assert abs(got - expected) <= bound * expected, (n, got, expected)


def test_runtime_needs_no_scipy():
    root = Path(__file__).resolve().parent.parent
    with (root / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import rdfqa.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_ci_installs_exactly_the_test_extra():
    # the CI step pipes the extra, as its Python code reads it from
    # pyproject.toml, into pip install, so the test packages are listed once
    root = Path(__file__).resolve().parent.parent
    with (root / "pyproject.toml").open("rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    (code,) = re.findall(r"- name: Install the test extra\n(?:\s+#.*\n)*\s+run: >-\n"
                         r"\s+python -c \"(.+)\"\n\s+\| xargs pip install\n", workflow)
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == extra


def test_exact_permutation_agrees_in_direction():
    x = [1, 2, 3, 4, 5, 6]
    y = [1, 2, 4, 3, 5, 6]
    approx = spearman_rho(x, y).p_value
    exact = spearman_exact_p(x, y)
    assert 0 < exact < 0.2
    assert abs(exact - approx) < 0.1


def test_delta_zero_and_antisymmetry(family, words):
    report = assess(family, words)
    delta = compute_delta(report, report)
    assert all(v == 0.0 for v in delta.delta.values())
    other = fake_report(family.id, [0.1] * 10)
    forward = compute_delta(report, other)
    backward = compute_delta(other, report)
    for mid in forward.delta:
        assert forward.delta[mid] == -backward.delta[mid]


def test_delta_reference_row():
    # full-precision values whose 0.01-rounded displays reproduce the
    # reference row: M1 0.33 -> 0.56 (delta 0.23), M2 0.16 -> 0.20 (delta 0.03)
    before = fake_report("fao", [0.335, 0.1649, 0.16, 0, 0, 0.20, 0, 0, 0, 0.22])
    after = fake_report("dirty fao", [0.565, 0.1951, 0.16, 0, 0, 0.28, 0, 0, 0.05, 0.29])
    delta = compute_delta(before, after)
    assert round(delta.delta[MetricId.MISSING_VALUES], 2) == 0.23
    assert round(delta.delta[MetricId.OUT_OF_RANGE], 2) == 0.03


def test_delta_mismatch_raises(family, words):
    full = assess(family, words)
    partial = assess(family, words, selection=(MetricId.MISSING_VALUES,))
    with pytest.raises(MetricMismatch):
        compute_delta(full, partial)


def test_matrix_identical_columns_give_rho_one():
    reports = [fake_report(f"d{i}", [v] * 10) for i, v in enumerate([0.1, 0.5, 0.3])]
    matrix = correlation_matrix(reports)
    cell = matrix.cells[(MetricId.MISSING_VALUES, MetricId.OUT_OF_RANGE)]
    assert cell.rho == 1.0


def test_matrix_constant_column_is_undefined():
    values = [[0.1, 0.0, *([0.2] * 8)], [0.5, 0.0, *([0.1] * 8)], [0.3, 0.0, *([0.9] * 8)]]
    reports = [fake_report(f"d{i}", v) for i, v in enumerate(values)]
    matrix = correlation_matrix(reports)
    cell = matrix.cells[(MetricId.MISSING_VALUES, MetricId.OUT_OF_RANGE)]
    assert cell is None
    assert not matrix.significant(MetricId.MISSING_VALUES, MetricId.OUT_OF_RANGE)
    assert "n/a" in render_matrix(matrix)


def test_matrix_covers_all_45_pairs_over_pooled_reports():
    # the experiment pools clean and contaminated reports: 8 + 8
    rng = Random(99)
    reports = [fake_report(f"d{i}", [rng.random() for _ in range(10)]) for i in range(16)]
    matrix = correlation_matrix(reports)
    assert len(matrix.cells) == 45
    assert matrix.metric_ids == tuple(MetricId)
    assert matrix.n == 16


def test_matrix_exactly_one_significant_pair():
    # seed picked so the noise columns stay uncorrelated at alpha=0.05
    rng = Random(1)
    base = [rng.random() for _ in range(8)]
    reports = []
    for i in range(8):
        row = [rng.random() for _ in range(10)]
        row[6] = base[i]          # M7 column
        row[7] = base[i] * 0.5    # M8 column: strictly monotone in M7
        reports.append(fake_report(f"d{i}", row))
    matrix = correlation_matrix(reports)
    significant = [(a.value, b.value) for (a, b), cell in matrix.cells.items()
                   if cell is not None and cell.p_value <= matrix.alpha]
    assert significant == [("M7", "M8")]
    body = render_matrix(matrix).split("\n\n")[0]
    assert body.count("*") == 1


def test_matrix_requires_three_reports():
    with pytest.raises(ValueError):
        correlation_matrix([fake_report("a", [0.0] * 10)] * 2)


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.1", "0", "1"])
def test_matrix_requires_an_alpha_strictly_between_0_and_1(alpha):
    # a NaN alpha would reach the JSON matrix as the non-JSON token NaN
    reports = [fake_report(f"d{i}", [float(i)] * 10) for i in range(3)]
    with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
        correlation_matrix(reports, alpha=float(alpha))
