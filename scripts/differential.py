#!/usr/bin/env python3
"""Compare this tree's reports and contaminations with another tree's.

Each tree runs the same cases in one child process of its own, with its own
``src`` and ``tests/datagen.py`` on the path, and prints a sha256 per case.
A case is one CLI output in one format, or the contaminated N-Triples plus
manifest of one plan at one seed. The plans are every heuristic at
intensity 3, and each heuristic alone at 1 and at 3; the seeds are
0..S-1. The datasets are the four bundled fixtures, one escape-heavy
dataset and N datasets of ``make_random_dataset``, drawn in turn from one
``Random(7)``. The escape-heavy dataset holds every character of both
writer escape tables in IRIs, blank node labels, datatypes and lexical
forms, all in the middle one of three writer blocks, so the writer's clean
and escaping paths both write its output.

The CLI outputs are written by ``rdfqa.cli.main`` to ``-o`` files, in
json, csv and table: each dataset's report (``assess``), each dataset's
``compare`` against its contamination by every heuristic at 3 with seed
0, without and with that contamination's manifest, and one ``correlate``
over the reports of the bundled and the random datasets. A command that
exits non-zero gives its exit code as its case. The escape-heavy
dataset's blank node labels cannot be written as N-Triples, so its one
report case is its JSON report made in process.

Usage:
    python scripts/differential.py OTHER_TREE [--random 400] [--seeds 3]

OTHER_TREE is a checkout, e.g. one made by ``git archive REV | tar -x -C
DIR``. The script prints, per plan, how many cases differ, then the first
10 differing keys and ``N cases, K differ``. It exits 1 when K > 0 or when
either tree's run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CASES = r"""
import hashlib, json, os, shutil, sys, tempfile
from pathlib import Path
from random import Random
from rdfqa import (ALL_HEURISTICS, BlankNode, ContaminationPlan, Iri, Literal, Triple,
                   assess, default_dictionary, load_dataset, make_dataset, serialize_dataset)
from rdfqa.cli import main
from rdfqa.contaminate import contaminate, manifest_to_json
from rdfqa.core.parsing import SERIALIZE_BLOCK_TRIPLES as BLOCK
from rdfqa.fixtures import fixture_path
from rdfqa.reporting import report_to_dict, to_json
from tests.datagen import make_random_dataset


def escape_heavy():
    ex, xsd = "http://example.org/esc#", "http://www.w3.org/2001/XMLSchema#"
    owl, rdfs = "http://www.w3.org/2002/07/owl#", "http://www.w3.org/2000/01/rdf-schema#"
    rdf_type = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    cls, prop = Iri(ex + "C"), Iri(ex + "p")
    schema = [Triple(cls, rdf_type, Iri(owl + "Class")),
              Triple(prop, rdf_type, Iri(owl + "DatatypeProperty")),
              Triple(prop, Iri(rdfs + "range"), Iri(xsd + "string"))]
    escaping = []
    for k, c in enumerate([*map(chr, range(0x21)), *'<>"{}|^`\\']):
        s = Iri(f"{ex}s{c}{k}")
        escaping += [Triple(Iri(f"{ex}C{c}"), rdf_type, Iri(owl + "Class")),
                     Triple(s, rdf_type, Iri(f"{ex}C{c}")), Triple(s, rdf_type, cls),
                     Triple(s, Iri(f"{ex}p{c}"), Iri(f"{ex}o{c}")),
                     Triple(BlankNode(f"b{c}{k}"), prop, Literal(f"{k}", datatype=Iri(ex + c)))]
    for k, c in enumerate([*map(chr, range(0x20)), "\\", '"']):
        escaping.append(Triple(Iri(f"{ex}t{k}"), prop, Literal(f"word{c}text", language="en")))

    def clean(start, stop):
        # an instance of C, then its value, one triple per k
        return [Triple(Iri(f"{ex}i{k // 2}"), rdf_type, cls) if k % 2 == 0 else
                Triple(Iri(f"{ex}i{k // 2}"), prop, Literal(f"value {k // 2}", language="en"))
                for k in range(start, stop)]

    return make_dataset("escape-heavy", [
        *schema, *clean(0, BLOCK - len(schema)),
        *escaping, *clean(BLOCK, 2 * BLOCK - len(escaping)),
        *clean(2 * BLOCK, 3 * BLOCK)])


def write(path, data):
    Path(path).write_bytes(data)
    return path


def cli(key, *argv):
    # runs rdfqa *argv in each format and records each output, or the exit
    # code of a command that fails; returns the path of the JSON output
    outs = {fmt: os.path.join(tmp, f"{len(digests)}.{fmt}") for fmt in ("json", "csv", "table")}
    for fmt, out in outs.items():
        code = main([*argv, "--format", fmt, "-o", out])
        digests[f"{key}.{fmt}"] = (hashlib.sha256(Path(out).read_bytes()).hexdigest()
                                   if code == 0 else f"exit {code}")
    return outs["json"]


n_random, n_seeds = map(int, sys.argv[1:])
words = default_dictionary()
bundled = ("family.nt", "family.ttl", "zoo_clean.nt", "zoo_dirty.nt")
datasets = {name: load_dataset(fixture_path(name)) for name in bundled}
datasets["escape-heavy"] = escape_heavy()
assert len(datasets["escape-heavy"].triples) == 3 * BLOCK
rng = Random(7)
datasets.update((f"random-{i}", make_random_dataset(rng)) for i in range(n_random))
plans = {"all@3": dict.fromkeys(ALL_HEURISTICS, 3)}
plans.update((f"{h.value}@{n}", {h: n}) for h in ALL_HEURISTICS for n in (1, 3))
digests = {}
tmp = tempfile.mkdtemp()
reports = []
for name, dataset in datasets.items():
    if name == "escape-heavy":  # its blank node labels are no N-Triples labels
        report = to_json(report_to_dict(assess(dataset, words))).encode()
        digests[f"assess/{name}.json"] = hashlib.sha256(report).hexdigest()
    else:
        source = (str(fixture_path(name)) if name in bundled else
                  write(os.path.join(tmp, f"{name}.nt"), serialize_dataset(dataset)))
        report = cli(f"assess/{name}", "assess", source)
        reports.append(report)
        dirty, manifest = contaminate(dataset, ContaminationPlan(plans["all@3"], 0), words)
        dirty_path = write(os.path.join(tmp, f"{name}.dirty.nt"), serialize_dataset(dirty))
        manifest_path = write(os.path.join(tmp, f"{name}.manifest.json"),
                              manifest_to_json(manifest).encode())
        dirty_report = os.path.join(tmp, f"{name}.dirty.json")
        assert main(["assess", dirty_path, "--format", "json", "-o", dirty_report]) == 0
        cli(f"compare/{name}", "compare", report, dirty_report)
        cli(f"compare-manifest/{name}", "compare", report, dirty_report,
            "--manifest", manifest_path)
    for plan, intensities in plans.items():
        for seed in range(n_seeds):
            dirty, manifest = contaminate(dataset, ContaminationPlan(intensities, seed), words)
            digest = hashlib.sha256(serialize_dataset(dirty))
            digest.update(manifest_to_json(manifest).encode())
            digests[f"{plan}/{name}/seed{seed}"] = digest.hexdigest()
cli("correlate/bundled+random", "correlate", *reports)
shutil.rmtree(tmp)
json.dump(digests, sys.stdout)
"""


def _start(tree: Path, args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _CASES, str(args.random), str(args.seeds)],
        cwd=tree, env={**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{tree}"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    parser.add_argument("--random", type=int, default=400, help="random datasets (default 400)")
    parser.add_argument("--seeds", type=int, default=3, help="seeds per plan (default 3)")
    args = parser.parse_args(argv)

    trees = (ROOT, args.other_tree.resolve())
    children = [_start(tree, args) for tree in trees]
    digests = []
    for tree, child in zip(trees, children):
        out, err = child.communicate()
        if child.returncode:
            print(f"{tree}: the run failed (exit {child.returncode})\n{err}", file=sys.stderr)
        else:
            digests.append(json.loads(out))
    if len(digests) < len(trees):
        return 1

    mine, theirs = digests
    keys = list(dict.fromkeys([*mine, *theirs]))
    differ = [key for key in keys if mine.get(key) != theirs.get(key)]
    cases, differing = (Counter(key.split("/", 1)[0] for key in ks) for ks in (keys, differ))
    for plan, n in cases.items():
        print(f"{plan}: {differing[plan]} of {n} differ")
    for key in differ[:10]:
        print(f"differs: {key}")
    print(f"{len(keys)} cases, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
