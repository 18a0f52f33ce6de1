"""Check one contaminate output: it re-parses, and replaying its manifest on
the input reproduces it byte for byte. Needs the package importable:

    PYTHONPATH=src python3 perfbench/verify.py INPUT OUTPUT MANIFEST

Exits 0 when both hold, 1 otherwise.
"""

import sys
from pathlib import Path

from rdfqa import load_dataset, load_manifest, parse_dataset, replay_manifest, serialize_dataset


def main(argv: list[str]) -> int:
    original, output, manifest = map(Path, argv)
    produced = output.read_bytes()
    parse_dataset(produced, "ntriples", output.stem)
    replayed = replay_manifest(load_dataset(original), load_manifest(manifest))
    if serialize_dataset(replayed) != produced:
        print(f"replaying {manifest.name} does not reproduce {output.name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
