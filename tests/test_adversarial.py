"""Adversarial inputs with budgets.

Each input runs through the CLI, which must exit 0 with no traceback, and
an in-process run of the same command must stay under a stated budget. A
budget is set from a measured run, with headroom; an input that misses its
budget stays out of this corpus until the program is fixed.
"""

import json
import subprocess
import sys
import tracemalloc

import pytest

from rdfqa import MetricId, assess, parse_dataset
from rdfqa.reporting import report_to_dict

from .test_acceptance import build_wide_document

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
CHAIN = "http://example.org/chain#"


def build_chain_document(n_classes, cycle=False):
    """Declared classes ``c0`` under ``c1`` under .. ``c{n-1}``, the top one
    declared disjoint with ``D``, and instance ``x`` in ``c0`` and ``D``, the
    one disjoint membership. With ``cycle``, ``c{n-1}`` sits under ``c0``."""
    lines = [f"<{CHAIN}D> <{RDF}type> <{OWL}Class> ."]
    lines += [f"<{CHAIN}c{i}> <{RDF}type> <{OWL}Class> ." for i in range(n_classes)]
    lines += [f"<{CHAIN}c{i}> <{RDFS}subClassOf> <{CHAIN}c{(i + 1) % n_classes}> ."
              for i in range(n_classes - 1 + cycle)]
    lines.append(f"<{CHAIN}c{n_classes - 1}> <{OWL}disjointWith> <{CHAIN}D> .")
    lines.append(f"<{CHAIN}x> <{RDF}type> <{CHAIN}c0> .")
    lines.append(f"<{CHAIN}x> <{RDF}type> <{CHAIN}D> .")
    lines.append("")
    return "\n".join(lines).encode()


HIERARCHIES = {
    "chain": (lambda: build_chain_document(3001), CHAIN + "x"),
    "cycle": (lambda: build_chain_document(3001, cycle=True), CHAIN + "x"),
    "wide": (lambda: build_wide_document(1500), "http://example.org/wide#x"),
}
# tracemalloc peak of assess on each hierarchy: 2.0-2.1 MB measured on a
# 2-core VM with Python 3.11.7. A closure kept per class peaked at 216.6 MB
# on the chain and 395.6 MB on the cycle.
ASSESS_PEAK_BUDGET = 8_000_000


@pytest.mark.parametrize("name", HIERARCHIES)
def test_assess_on_a_deep_or_wide_hierarchy_exits_cleanly_within_budget(tmp_path, words,
                                                                         name):
    build, disjoint_member = HIERARCHIES[name]
    data = build()
    path = tmp_path / f"{name}.nt"
    path.write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "rdfqa", "assess", str(path), "--format",
                           "json"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    dataset = parse_dataset(data, "ntriples", name)
    tracemalloc.start()
    try:
        report = assess(dataset, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ASSESS_PEAK_BUDGET
    assert report.metrics[MetricId.DISJOINT_MEMBERSHIP].offenders == (disjoint_member,)
    assert json.loads(proc.stdout)["metrics"] == report_to_dict(report)["metrics"]
