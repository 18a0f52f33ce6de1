"""Golden bytes of every CLI output format.

Each file under ``tests/golden`` holds the exact output of one command in
one format: ``assess`` of the four bundled datasets, ``compare`` of the zoo
reports with and without the bundled manifest, and ``correlate`` of the
bundled reports, once with every pair defined and once with none. A change
to any output byte, whitespace and float digits included, fails here; a
deliberate one re-records the file it changes.
"""

import csv
import io
from pathlib import Path

import pytest

from rdfqa.cli import main
from rdfqa.fixtures import fixture_path

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "csv", "table")
SOURCES = {"family_nt": "family.nt", "family_ttl": "family.ttl",
           "zoo_clean": "zoo_clean.nt", "zoo_dirty": "zoo_dirty.nt"}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The JSON report of each bundled dataset, by its name in ``SOURCES``."""
    tmp = tmp_path_factory.mktemp("reports")
    paths = {}
    for name, source in SOURCES.items():
        paths[name] = str(tmp / f"{name}.json")
        assert main(["assess", str(fixture_path(source)), "--format", "json",
                     "-o", paths[name]]) == 0
    return paths


def _cases():
    for name, source in SOURCES.items():
        yield f"assess-{name}", lambda r, s=source: ["assess", str(fixture_path(s))]
    yield "compare", lambda r: ["compare", r["zoo_clean"], r["zoo_dirty"]]
    yield "compare-manifest", lambda r: ["compare", r["zoo_clean"], r["zoo_dirty"], "--manifest",
                                         str(fixture_path("zoo_dirty.manifest.json"))]
    yield "correlate", lambda r: ["correlate", *r.values()]
    yield "correlate-undefined", lambda r: ["correlate", r["family_nt"], r["family_ttl"],
                                            r["zoo_clean"]]


CASES = dict(_cases())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_cli_output_equals_its_golden_bytes(tmp_path, reports, case, fmt):
    out = tmp_path / "out"
    assert main([*CASES[case](reports), "--format", fmt, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.{fmt}").read_bytes()


def test_every_golden_file_is_checked():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        f"{case}.{fmt}" for case in CASES for fmt in FORMATS)


@pytest.mark.parametrize("stem, cell", [
    ('a,b "c"', '"a,b ""c"""'),
    # RFC 4180 readers take a bare CR for a line break; it is quoted on every
    # Python version, where the stdlib writer quotes it only from 3.13
    ("a\rb", '"a\rb"'),
])
def test_a_dataset_id_that_needs_quoting_is_one_quoted_csv_cell(tmp_path, stem, cell):
    # RFC 4180: the cell is quoted and each quote in it doubled, so the row
    # keeps the header's eleven cells
    dataset = tmp_path / f"{stem}.nt"
    dataset.write_bytes(fixture_path("family.nt").read_bytes())
    out = tmp_path / "out.csv"
    assert main(["assess", str(dataset), "--format", "csv", "-o", str(out)]) == 0
    header, row = (GOLDEN / "assess-family_nt.csv").read_text().splitlines()
    text = out.read_bytes().decode()
    assert text == f'{header}\n{cell},{row.split(",", 1)[1]}\n'
    assert [len(r) for r in csv.reader(io.StringIO(text))] == [11, 11]
