#!/usr/bin/env python3
"""End-to-end contamination experiment over a directory of datasets.

For every dataset file with a matching plan it: assesses the clean dataset,
contaminates it, assesses the contaminated twin, and writes all four
artifacts (clean/dirty reports, contaminated N-Triples, manifest) into the
output directory. It finishes with per-dataset deltas and one rank
correlation matrix pooled over every report produced (clean and dirty
together; pass --clean-only to pool only the clean half).

Usage:
    python scripts/run_experiment.py DATASET_DIR PLAN_DIR OUT_DIR [--alpha 0.05]

Plans are matched to datasets by file stem (dataset foo.nt uses foo.json).
The bundled fixtures work as a demo:

    python scripts/run_experiment.py src/rdfqa/data src/rdfqa/data/plans out/
"""

import argparse
import sys
from pathlib import Path

from rdfqa import assess, default_dictionary, load_dataset, serialize_dataset
from rdfqa.cli import significance_level
from rdfqa.contaminate import contaminate, load_plan, manifest_to_json
from rdfqa.reporting import render
from rdfqa.stats import compute_delta, correlation_matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dataset_dir", type=Path)
    parser.add_argument("plan_dir", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--alpha", type=significance_level, default=0.05)
    parser.add_argument("--clean-only", action="store_true",
                        help="pool only the clean reports for the correlation matrix")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    words = default_dictionary()

    candidates: dict[str, Path] = {}
    for dataset_path in sorted(args.dataset_dir.glob("*.ttl")) + sorted(args.dataset_dir.glob("*.nt")):
        candidates[dataset_path.stem] = dataset_path  # .nt wins over .ttl twins

    pool = []
    for stem, dataset_path in sorted(candidates.items()):
        plan_path = args.plan_dir / (stem + ".json")
        if not plan_path.exists():
            continue
        dataset = load_dataset(dataset_path)
        plan = load_plan(plan_path)
        clean_report = assess(dataset, words)
        dirty, manifest = contaminate(dataset, plan, words)
        dirty_report = assess(dirty, words)

        # UTF-8 whatever the locale, as the CLI writes them
        out = args.out_dir
        (out / f"{stem}.clean.json").write_text(render(clean_report, "json"),
                                                encoding="utf-8")
        (out / f"{stem}.dirty.nt").write_bytes(serialize_dataset(dirty))
        (out / f"{stem}.dirty.manifest.json").write_text(manifest_to_json(manifest),
                                                         encoding="utf-8")
        (out / f"{stem}.dirty.json").write_text(render(dirty_report, "json"),
                                                encoding="utf-8")

        print(f"== {stem}")
        print(render(compute_delta(clean_report, dirty_report), "table"))
        for warning in manifest.warnings:
            print(f"  warning: {warning}")

        pool.append(clean_report)
        if not args.clean_only:
            pool.append(dirty_report)

    if len(pool) < 3:
        print("fewer than 3 reports pooled; no correlation matrix")
        return 0

    matrix = correlation_matrix(pool, alpha=args.alpha)
    print(f"== pooled correlation over {matrix.n} reports")
    print(render(matrix, "table"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
