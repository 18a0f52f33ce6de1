#!/usr/bin/env python3
"""Compare this tree's reports and contaminations with another tree's.

Each tree runs the same cases in one child process of its own, with its own
``src`` and ``tests/datagen.py`` on the path, and prints a sha256 per case.
A case is the JSON report of one dataset, or the contaminated N-Triples plus
manifest of one plan at one seed. The plans are every heuristic at
intensity 3, and each heuristic alone at 1 and at 3; the seeds are
0..S-1. The datasets are the four bundled fixtures and N datasets of
``make_random_dataset``, drawn in turn from one ``Random(7)``.

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

_CASES = """
import hashlib, json, sys
from random import Random
from rdfqa import (ALL_HEURISTICS, ContaminationPlan, assess, default_dictionary,
                   load_dataset, serialize_dataset)
from rdfqa.contaminate import contaminate, manifest_to_json
from rdfqa.fixtures import fixture_path
from rdfqa.reporting import render_report
from tests.datagen import make_random_dataset

n_random, n_seeds = map(int, sys.argv[1:])
words = default_dictionary()
datasets = {name: load_dataset(fixture_path(name))
            for name in ("family.nt", "family.ttl", "zoo_clean.nt", "zoo_dirty.nt")}
rng = Random(7)
datasets.update((f"random-{i}", make_random_dataset(rng)) for i in range(n_random))
plans = {"all@3": dict.fromkeys(ALL_HEURISTICS, 3)}
plans.update((f"{h.value}@{n}", {h: n}) for h in ALL_HEURISTICS for n in (1, 3))
digests = {}
for name, dataset in datasets.items():
    report = render_report(assess(dataset, words), "json").encode()
    digests[f"assess/{name}"] = hashlib.sha256(report).hexdigest()
    for plan, intensities in plans.items():
        for seed in range(n_seeds):
            dirty, manifest = contaminate(dataset, ContaminationPlan(intensities, seed), words)
            digest = hashlib.sha256(serialize_dataset(dirty))
            digest.update(manifest_to_json(manifest).encode())
            digests[f"{plan}/{name}/seed{seed}"] = digest.hexdigest()
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
