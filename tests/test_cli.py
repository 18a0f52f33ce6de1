import gc
import json
import os
import shutil
import subprocess
import sys
import time
import tomllib
import tracemalloc
from pathlib import Path

import pytest

import rdfqa.contaminate
from rdfqa.cli import main
from rdfqa.core import parsing
from rdfqa.core.model import is_declaration_triple
from rdfqa.core.parsing import serialize_dataset
from rdfqa.core.model import make_dataset
from rdfqa.fixtures import fixture_path

from .test_acceptance import build_scale_document
from .test_parsing import NESTING_DEPTH, nested_turtle

FAMILY = str(fixture_path("family.nt"))
ZOO = str(fixture_path("zoo_clean.nt"))
PLAN = str(fixture_path("plans/zoo_demo.json"))


def run_cli(args):
    return main(list(args))


def test_assess_table_shows_rounded_m1(capsys):
    assert run_cli(["assess", FAMILY]) == 0
    out = capsys.readouterr().out
    assert "M1      0.88" in out
    assert "classes     18" in out


def test_assess_json_full_precision(capsys):
    assert run_cli(["assess", FAMILY, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["metrics"]["M1"]["value"] - (1 - 37 / 306)) < 1e-12
    assert data["counts"] == {"triples": 138, "instances": 7, "classes": 18,
                              "properties": 17}


def test_assess_csv_column_order(capsys):
    assert run_cli(["assess", FAMILY, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dataset,M1,M2,M3,M4,M5,M6,M7,M8,M9,M10"
    assert lines[1].startswith("family,")


def test_assess_metric_subset(capsys):
    assert run_cli(["assess", FAMILY, "--metrics", "M7", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data["metrics"]) == ["M7"]


def test_json_and_csv_values_agree(tmp_path):
    jsn = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    assert run_cli(["assess", FAMILY, "--format", "json", "-o", str(jsn)]) == 0
    assert run_cli(["assess", FAMILY, "--format", "csv", "-o", str(csv)]) == 0
    data = json.loads(jsn.read_text())
    header, row = csv.read_text().strip().splitlines()
    csv_values = dict(zip(header.split(",")[1:], row.split(",")[1:]))
    for mid, entry in data["metrics"].items():
        assert float(csv_values[mid]) == entry["value"]


def test_assess_malformed_input_exits_1_no_partial_file(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://a/s> <http://a/p> .\n")
    out = tmp_path / "report.json"
    code = run_cli(["assess", str(bad), "--format", "json", "-o", str(out)])
    assert code == 1
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp*"))
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["assess", "contaminate"])
@pytest.mark.parametrize("escape", ["\\uD800", "\\U00110000"])
def test_escape_outside_unicode_exits_1_without_traceback(tmp_path, command, escape):
    bad = tmp_path / "bad.nt"
    bad.write_text(f'<http://a/s> <http://a/p> "{escape}" .\n')
    plan = tmp_path / "plan.json"
    plan.write_text('{"seed": 0, "intensities": {}}')
    out = tmp_path / "out"
    extra = ["--plan", str(plan)] if command == "contaminate" else []
    proc = subprocess.run(
        [sys.executable, "-m", "rdfqa", command, str(bad), *extra, "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line 1, column 28" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.nt", "plan.json"]


@pytest.mark.parametrize("command", ["assess", "contaminate"])
def test_invalid_utf8_exits_1_without_traceback(tmp_path, command):
    bad = tmp_path / "bad.nt"
    bad.write_bytes(b'<http://e/s> <http://e/p> "\xff" .\n')
    plan = tmp_path / "plan.json"
    plan.write_text('{"seed": 0, "intensities": {}}')
    out = tmp_path / "out"
    extra = ["--plan", str(plan)] if command == "contaminate" else []
    proc = subprocess.run(
        [sys.executable, "-m", "rdfqa", command, str(bad), *extra, "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line 1, column 28: invalid UTF-8 byte 0xFF" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.nt", "plan.json"]


@pytest.mark.parametrize("datatype, time", [("date", ""), ("dateTime", "T12:00:00")])
def test_assess_reads_a_5000_digit_year_by_its_last_four_digits(tmp_path, datatype, time):
    xsd = "http://www.w3.org/2001/XMLSchema#"
    schema = (f"<http://e/p> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
              f"<http://www.w3.org/2002/07/owl#DatatypeProperty> .\n"
              f"<http://e/p> <http://www.w3.org/2000/01/rdf-schema#range> <{xsd}{datatype}> .\n")
    reports = []
    for head in ("", "1" + "0" * 4995):
        doc = tmp_path / f"years{len(head)}.nt"
        doc.write_text(schema + "".join(
            f'<http://e/s{i}> <http://e/p> "{head}{year}-{day}{time}"^^<{xsd}{datatype}> .\n'
            for i, (year, day) in enumerate((y, d) for y in ("2000", "1900", "2024", "2023")
                                            for d in ("02-29", "02-28", "04-31", "13-01"))))
        out = tmp_path / f"{doc.stem}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rdfqa", "assess", str(doc), "--format", "json", "-o", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        reports.append(json.loads(out.read_text())["metrics"]["M2"])
    assert reports[0]["numerator"] == 10  # 04-31, 13-01, and 02-29 of 1900 and 2023
    assert reports[1] == reports[0]


@pytest.mark.parametrize("shape", ["bnode", "collection", "mix"])
def test_assess_deeply_nested_turtle_exits_0_without_traceback(tmp_path, shape):
    doc = tmp_path / "nested.ttl"
    doc.write_text(nested_turtle(shape, NESTING_DEPTH))
    out = tmp_path / "nested.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rdfqa", "assess", str(doc), "--format", "json", "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    triples = {"bnode": 1, "collection": 2, "mix": 3}[shape] * NESTING_DEPTH + 1
    assert json.loads(out.read_text())["counts"]["triples"] == triples


def test_assess_unknown_metric_is_usage_error(capsys):
    assert run_cli(["assess", FAMILY, "--metrics", "M99"]) == 2


def test_assess_unknown_metric_exits_2_before_reading_the_dataset(tmp_path):
    assert run_cli(["assess", str(tmp_path / "nope.nt"), "--metrics", "M11"]) == 2


@pytest.mark.parametrize("selection", ["", ","])
def test_assess_empty_metric_selection_exits_2_before_reading_the_dataset(
        tmp_path, capsys, selection):
    assert run_cli(["assess", str(tmp_path / "nope.nt"), "--metrics", selection]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty metric selection" in captured.err


def test_assess_missing_file_exits_1(tmp_path):
    assert run_cli(["assess", str(tmp_path / "nope.nt")]) == 1


def _rdfqa(*args, env=None):
    return subprocess.run([sys.executable, "-m", "rdfqa", *map(str, args)],
                          capture_output=True, text=True, env={**os.environ, **(env or {})})


def _assert_input_error(proc, named):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"rdfqa: error: {named}"), proc.stderr


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_stdout_carries_the_bytes_of_the_output_file_in_any_locale(tmp_path, fmt, encoding):
    # the dataset id is in neither encoding; stdout gets UTF-8, as -o does
    dataset = tmp_path / "Ωμέγα.nt"
    dataset.write_bytes(fixture_path("family.nt").read_bytes())
    out = tmp_path / "out"
    assert run_cli(["assess", str(dataset), "--format", fmt, "-o", str(out)]) == 0
    proc = subprocess.run([sys.executable, "-m", "rdfqa", "assess", str(dataset), "--format", fmt],
                          capture_output=True, env={**os.environ, "PYTHONIOENCODING": encoding})
    assert proc.returncode == 0, proc.stderr.decode(encoding, "replace")
    assert proc.stdout == out.read_bytes()


@pytest.mark.parametrize("command", ["assess", "contaminate"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_undecodable_dictionary_exits_1_naming_it(tmp_path, command, source):
    words = tmp_path / "words.txt"
    words.write_bytes(b"apple\n\xff\n")
    flag = ["--dictionary", words] if source == "flag" else []
    plan = ["--plan", PLAN] if command == "contaminate" else []
    proc = _rdfqa(command, ZOO, *plan, *flag, "-o", tmp_path / "out.nt",
                  env={"RDFQA_DICTIONARY": str(words)} if source == "env" else None)
    _assert_input_error(proc, f"{words}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["words.txt"]


@pytest.mark.parametrize("command", ["assess", "contaminate", "compare", "correlate"])
def test_unwritable_output_exits_1_naming_it(tmp_path, command):
    report = tmp_path / "r.json"
    assert run_cli(["assess", ZOO, "--format", "json", "-o", str(report)]) == 0
    out = tmp_path / "missing" / "out"
    args = {
        "assess": ["assess", ZOO],
        "contaminate": ["contaminate", ZOO, "--plan", PLAN],
        "compare": ["compare", report, report],
        "correlate": ["correlate", report, report, report],
    }[command]
    proc = _rdfqa(*args, "-o", out)
    _assert_input_error(proc, "")
    assert str(out.parent) in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_unwritable_manifest_leaves_no_contaminated_output(tmp_path):
    out = tmp_path / "dirty.nt"
    manifest = tmp_path / "missing" / "m.json"
    proc = _rdfqa("contaminate", ZOO, "--plan", PLAN, "-o", out, "--manifest", manifest)
    _assert_input_error(proc, "")
    assert str(manifest.parent) in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_manifest_and_output_naming_one_file_exit_2_before_reading_input(
        tmp_path, capsys, monkeypatch):
    # the dataset and the plan do not exist: a read of either would exit 1
    (tmp_path / "link").symlink_to(tmp_path / "x.nt")
    monkeypatch.chdir(tmp_path)
    for manifest in ["x.nt", str(tmp_path / "x.nt"), "sub/../x.nt", "link"]:
        assert run_cli(["contaminate", "missing.nt", "--plan", "missing.json",
                        "--manifest", manifest, "-o", "x.nt"]) == 2
        err = capsys.readouterr().err
        assert "--manifest and -o/--output name the same file" in err
    assert [p.name for p in tmp_path.iterdir()] == ["link"]


def test_a_write_failing_after_its_first_block_leaves_no_file(tmp_path, monkeypatch):
    serialize_blocks = parsing.serialize_blocks

    def first_block_then_fail(dataset):
        yield next(serialize_blocks(dataset))
        raise OSError("disk full")

    monkeypatch.setattr(parsing, "serialize_blocks", first_block_then_fail)
    out = tmp_path / "dirty.nt"
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "-o", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


# tracemalloc rise of the contaminate CLI from the return of contaminate()
# to its end, on 30k triples with H1 at 1: 1.3 MB measured on a 2-core VM
# with Python 3.11.7. Serializing the whole output at once rose 8.9 MB.
WRITE_RISE_BUDGET = 3_000_000


def test_contaminate_writes_the_returned_dataset_in_blocks_within_budget(tmp_path, monkeypatch):
    doc = tmp_path / "c7_30k.nt"
    doc.write_bytes(build_scale_document(30_000))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 1, "intensities": {"H1": 1}}))
    contaminate, returned, current = rdfqa.contaminate.contaminate, [], []

    def contaminate_then_reset_peak(*args):
        returned.append(contaminate(*args))
        tracemalloc.reset_peak()
        current.append(tracemalloc.get_traced_memory()[0])
        return returned[-1]

    monkeypatch.setattr(rdfqa.contaminate, "contaminate", contaminate_then_reset_peak)
    out = tmp_path / "dirty.nt"
    tracemalloc.start()
    try:
        assert run_cli(["contaminate", str(doc), "--plan", str(plan), "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - current[0] < WRITE_RISE_BUDGET
    assert out.read_bytes() == serialize_dataset(returned[0][0])


@pytest.mark.parametrize("command", ["assess", "contaminate"])
def test_schema_syntax_error_names_the_schema_file(tmp_path, command):
    schema = tmp_path / "schema.nt"
    schema.write_text("<http://a/s> <http://a/p> .\n")
    plan = ["--plan", PLAN] if command == "contaminate" else []
    proc = _rdfqa(command, ZOO, "--schema", schema, *plan, "-o", tmp_path / "out.nt")
    _assert_input_error(proc, f"{schema}: line 1, column ")
    assert ZOO not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["schema.nt"]


def test_assess_with_split_schema(tmp_path, family, capsys):
    schema = [t for t in family.triples if is_declaration_triple(t)]
    instances = [t for t in family.triples if not is_declaration_triple(t)]
    schema_path = tmp_path / "schema.nt"
    inst_path = tmp_path / "instances.nt"
    schema_path.write_bytes(serialize_dataset(make_dataset("s", schema)))
    inst_path.write_bytes(serialize_dataset(make_dataset("i", instances)))
    assert run_cli(["assess", str(inst_path), "--schema", str(schema_path),
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["classes"] == 18
    assert abs(data["metrics"]["M1"]["value"] - (1 - 37 / 306)) < 1e-12


def test_dictionary_env_var(tmp_path, capsys, monkeypatch):
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("math\npeter\n")
    monkeypatch.setenv("RDFQA_DICTIONARY", str(tiny))
    assert run_cli(["assess", FAMILY, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dictionary"] == "tiny"
    assert data["metrics"]["M3"]["numerator"] > 0


def test_dictionary_flag_beats_env(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.txt"
    a.write_text("x\n")
    monkeypatch.setenv("RDFQA_DICTIONARY", str(a))
    b = tmp_path / "b.txt"
    b.write_text("y\n")
    assert run_cli(["assess", FAMILY, "--dictionary", str(b), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dictionary"] == "b"


def test_contaminate_writes_outputs_and_manifest(tmp_path, capsys):
    out = tmp_path / "dirty.nt"
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "-o", str(out)]) == 0
    # the bundled fixture's bytes, manifest and all
    assert out.read_bytes() == fixture_path("zoo_dirty.nt").read_bytes()
    path = tmp_path / "dirty.manifest.json"
    assert path.read_bytes() == fixture_path("zoo_dirty.manifest.json").read_bytes()
    manifest = json.loads(path.read_text())
    assert manifest["seed"] == 20240808
    assert manifest["achieved"]


def test_contaminate_rerun_is_hash_equal(tmp_path):
    a = tmp_path / "a.nt"
    b = tmp_path / "b.nt"
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "-o", str(a)]) == 0
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_contaminate_seed_override_changes_output(tmp_path):
    a = tmp_path / "a.nt"
    b = tmp_path / "b.nt"
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "-o", str(a)]) == 0
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "--seed", "9", "-o", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("heuristic", ["H1", "H9"])
def test_unbounded_heuristics_are_capped_at_the_input_size(tmp_path, capsys, heuristic):
    # one edit per unit of intensity, at most ten per input triple
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 1, "intensities": {heuristic: 10**12}}))
    out = tmp_path / "o.nt"
    start = time.perf_counter()
    assert run_cli(["contaminate", ZOO, "--plan", str(plan), "-o", str(out)]) == 0
    assert time.perf_counter() - start < 10
    warning = (f"rdfqa: warning: {heuristic}: requested {10**12}, achieved 1120 "
               "(at most 10 per input triple)")
    assert warning in capsys.readouterr().err.splitlines()
    manifest = json.loads((tmp_path / "o.manifest.json").read_text())
    assert manifest["achieved"] == {heuristic: 1120}


def test_contaminate_shortfall_warns_but_exits_zero(tmp_path, capsys):
    bare = tmp_path / "bare.nt"
    bare.write_text("<http://ex/a> <http://ex/p> <http://ex/b> .\n")
    plan = tmp_path / "plan.json"
    plan.write_text('{"seed": 3, "intensities": {"H11": 2}}')
    out = tmp_path / "o.nt"
    assert run_cli(["contaminate", str(bare), "--plan", str(plan), "-o", str(out)]) == 0
    assert "H11" in capsys.readouterr().err


def test_cross_process_determinism(tmp_path):
    # fresh interpreters get fresh hash randomization; byte-equal outputs
    # prove nothing depends on set iteration order
    outs = []
    for name in ("p1.nt", "p2.nt"):
        out = tmp_path / name
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        subprocess.run(
            [sys.executable, "-m", "rdfqa.cli", "contaminate", ZOO,
             "--plan", PLAN, "-o", str(out)],
            check=True, env=env, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _collector_states_after(argv):
    """``gc.isenabled()`` after ``main(argv)``, with the collector on and then off before."""
    states = []
    was_enabled = gc.isenabled()
    try:
        for enable_first in (gc.enable, gc.disable):
            enable_first()
            try:
                main(argv)
            except SystemExit:
                pass
            states.append(gc.isenabled())
    finally:
        if was_enabled:
            gc.enable()
    return states


@pytest.mark.parametrize("argv", [
    ["assess", FAMILY, "--format", "csv"],                    # exit 0
    ["assess", "no-such-file.nt"],                            # exit 1
    ["assess", FAMILY, "--metrics", "M99"],                   # exit 2
    ["assess", FAMILY, "--format", "yaml"],                   # argparse: SystemExit(2)
])
def test_main_restores_the_collector_state(argv, capsys):
    assert _collector_states_after(argv) == [True, False]


def test_cyclic_garbage_does_not_grow_with_the_document(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 1, "intensities": {h: 2 for h in ("H3", "H10", "H14")}}))
    garbage = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for n in (30_000, 60_000):
            doc = tmp_path / f"c7_{n}.nt"
            doc.write_bytes(build_scale_document(n))
            gc.collect()
            assert main(["assess", str(doc), "--format", "json", "-o", str(tmp_path / "r")]) == 0
            assert main(["contaminate", str(doc), "--plan", str(plan),
                         "-o", str(tmp_path / "d.nt")]) == 0
            garbage.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert garbage[0] == garbage[1]


def _write_report(tmp_path, name, source=FAMILY, metrics=None):
    path = tmp_path / name
    args = ["assess", source, "--format", "json", "-o", str(path)]
    if metrics:
        args += ["--metrics", metrics]
    assert run_cli(args) == 0
    return path


def test_compare_identical_reports_all_zero(tmp_path, capsys):
    r = _write_report(tmp_path, "r.json")
    assert run_cli(["compare", str(r), str(r)]) == 0
    out = capsys.readouterr().out
    assert "M1      0.88    0.88    +0.00" in out


def test_compare_reversed_negates(tmp_path, capsys):
    clean = _write_report(tmp_path, "clean.json", ZOO)
    dirty_nt = tmp_path / "dirty.nt"
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "-o", str(dirty_nt)]) == 0
    dirty = _write_report(tmp_path, "dirty.json", str(dirty_nt))
    assert run_cli(["compare", str(clean), str(dirty), "--format", "json"]) == 0
    forward = json.loads(capsys.readouterr().out)["delta"]
    assert run_cli(["compare", str(dirty), str(clean), "--format", "json"]) == 0
    backward = json.loads(capsys.readouterr().out)["delta"]
    assert forward and any(v != 0 for v in forward.values())
    for mid, v in forward.items():
        assert backward[mid] == -v


def test_compare_selection_mismatch_exits_2(tmp_path, capsys):
    full = _write_report(tmp_path, "full.json")
    sub = _write_report(tmp_path, "sub.json", metrics="M1,M2")
    assert run_cli(["compare", str(full), str(sub)]) == 2


def test_compare_with_manifest_renders_trend(tmp_path, capsys):
    clean = _write_report(tmp_path, "clean.json", ZOO)
    dirty_nt = tmp_path / "dirty.nt"
    assert run_cli(["contaminate", ZOO, "--plan", PLAN, "-o", str(dirty_nt)]) == 0
    dirty = _write_report(tmp_path, "dirty.json", str(dirty_nt))
    manifest = tmp_path / "dirty.manifest.json"
    assert run_cli(["compare", str(clean), str(dirty), "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "heuristics" in out
    assert "H1+H2" in out
    assert "H14" in out


@pytest.mark.parametrize("metrics, manifest", [
    (None, None),
    ("M1,M3", None),
    (None, {"seed": 1, "requested": {"H2": 1, "H13": 0}, "achieved": {"H2": 1}}),
])
def test_compare_trend_has_the_same_rows_in_every_format(tmp_path, capsys, metrics, manifest):
    # the trend of the bundled zoo_dirty.manifest.json, or of a plan that
    # names two heuristics, one at intensity 0; M1,M3 leaves the other
    # metrics' deltas n/a
    clean = _write_report(tmp_path, "clean.json", ZOO, metrics)
    dirty = _write_report(tmp_path, "dirty.json", str(fixture_path("zoo_dirty.nt")), metrics)
    path = str(fixture_path("zoo_dirty.manifest.json"))
    if manifest is not None:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
    out = {}
    for fmt in ("json", "csv", "table"):
        assert run_cli(["compare", str(clean), str(dirty), "--manifest", str(path),
                        "--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    trend = json.loads(out["json"])["trend"]
    requested = (manifest or json.loads(Path(path).read_text()))["requested"]
    assert [row["heuristic"] for row in trend] == sorted(requested, key=lambda h: int(h[1:]))
    # CSV: the delta table, an empty line, then one line per trend row
    _, csv_trend = out["csv"].split("\n\n")
    assert csv_trend.splitlines() == ["heuristic,requested,achieved,metric,delta"] + [
        f"{r['heuristic']},{r['requested']},{r['achieved']},{r['metric']},"
        + ("" if r["delta"] is None else repr(r["delta"])) for r in trend]
    # table: one line per metric a requested heuristic targets, naming every
    # heuristic that targets it
    groups = {"M1": "H1+H2", "M2": "H3", "M3": "H4+H5", "M4": "H6+H7", "M5": "H8+H9",
              "M6": "H10", "M7": "H11", "M8": "H12", "M9": "H13", "M10": "H14"}
    achieved = {r["heuristic"]: r["achieved"] for r in trend}
    delta = {r["metric"]: r["delta"] for r in trend}
    expected = ["heuristics  applied   metric  delta"]
    for metric, label in groups.items():
        if metric in delta:
            applied = "+".join(str(achieved.get(h, 0)) for h in label.split("+"))
            d = "n/a" if delta[metric] is None else f"{delta[metric]:+.2f}"
            expected.append(f"{label:<10}  {applied:<8}  {metric:<6}  {d}")
    assert out["table"].split("\n\n")[-1].splitlines() == expected


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.1", "0", "1"])
@pytest.mark.parametrize("command", ["correlate", "run_experiment"])
def test_an_alpha_outside_0_1_exits_2_before_reading_input(tmp_path, command, alpha):
    # none of the inputs exist: a read of any would exit 1
    root = Path(__file__).resolve().parent.parent
    script = root / "scripts" / "run_experiment.py"
    args = {
        "correlate": ["-m", "rdfqa", "correlate", *(tmp_path / f"r{k}.json" for k in range(3)),
                      "--format", "json", "-o", tmp_path / "out.json"],
        "run_experiment": [script, tmp_path / "data", tmp_path / "plans", tmp_path / "out"],
    }[command]
    proc = subprocess.run([sys.executable, *map(str, args), "--alpha", alpha],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"alpha must lie strictly between 0 and 1, not {alpha}" in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_correlate_requires_three_reports(tmp_path, capsys):
    r = _write_report(tmp_path, "r.json")
    assert run_cli(["correlate", str(r), str(r)]) == 2
    assert "3" in capsys.readouterr().err


def test_correlate_renders_star_notation(tmp_path, capsys):
    reports = []
    for i, (source, seed) in enumerate([(ZOO, None), (ZOO, 5), (ZOO, 6), (FAMILY, None)]):
        if seed is None:
            reports.append(_write_report(tmp_path, f"r{i}.json", source))
        else:
            dirty = tmp_path / f"d{i}.nt"
            assert run_cli(["contaminate", source, "--plan", PLAN,
                            "--seed", str(seed), "-o", str(dirty)]) == 0
            reports.append(_write_report(tmp_path, f"r{i}.json", str(dirty)))
    assert run_cli(["correlate", *map(str, reports)]) == 0
    out = capsys.readouterr().out
    assert "p value" in out
    assert "M10" in out
    assert run_cli(["correlate", *map(str, reports), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4
    assert len(data["pairs"]) == 45


def test_correlate_constant_column_undefined(tmp_path, capsys):
    reports = [_write_report(tmp_path, f"r{i}.json") for i in range(3)]
    assert run_cli(["correlate", *map(str, reports)]) == 0
    assert "n/a" in capsys.readouterr().out


def test_console_entry_point_runs():
    # the installed `rdfqa` script is generated from [project.scripts], so
    # check that mapping, run its uninstalled equivalent `python -m rdfqa`,
    # and run the script itself wherever one is on PATH
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"rdfqa": "rdfqa.cli:main"}
    args = ["assess", FAMILY, "--metrics", "M1", "--format", "csv"]
    commands = [[sys.executable, "-m", "rdfqa"]]
    script = shutil.which("rdfqa")
    if script is not None:
        commands.append([script])
    for command in commands:
        proc = subprocess.run(command + args, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("dataset,M1"), proc.stderr


@pytest.mark.parametrize("command", ["compare", "correlate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1.5"])
def test_a_metric_value_outside_0_1_is_a_malformed_report(tmp_path, command, value):
    # Python's json reads NaN and Infinity; no assessment gives them or a
    # value outside [0, 1], and rho over them would read as significant
    good = tmp_path / "good.json"
    assert run_cli(["assess", ZOO, "--format", "json", "-o", str(good)]) == 0
    data = json.loads(good.read_text())
    data["metrics"]["M1"]["value"] = float(value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # writes NaN and Infinity as such
    reports = [good, bad] if command == "compare" else [good, good, bad]
    proc = _rdfqa(command, *reports, "-o", tmp_path / "out")
    _assert_input_error(proc, f"{bad}: malformed report")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]


def test_assess_turtle_input(capsys):
    assert run_cli(["assess", str(fixture_path("family.ttl")), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["classes"] == 18


def test_contaminate_bad_plan_exits_1(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"seed": 1, "intensities": {"H99": 1}}')
    out = tmp_path / "o.nt"
    assert run_cli(["contaminate", ZOO, "--plan", str(plan), "-o", str(out)]) == 1
    assert not out.exists()


_S_P_O = "<http://ex/s> <http://ex/p> <http://ex/o> ."
_CLASS_DECLARATION = ("<http://ex/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                      "<http://www.w3.org/2002/07/owl#Class> .")


def _one_edit_manifest(action, before=None, after=None):
    return json.dumps({"seed": 1, "edits": [{"heuristic": "H1", "action": action,
                                             "before": before, "after": after}]})


@pytest.mark.parametrize("command, bad", [
    ("contaminate", '{"seed": null, "intensities": {}}'),
    ("contaminate", "[1]"),
    ("contaminate", '{"intensities": [1]}'),
    ("compare", '{"metrics": []}'),
    ("compare", "[]"),
    ("compare", '{"metrics": {"M1": 5}}'),
    ("compare --manifest", "[1]"),
    ("correlate", '{"metrics": []}'),
    # counts and seeds are JSON integers, not floats or booleans; ids are strings
    ("contaminate", '{"seed": 1, "intensities": {"H1": 2.9}}'),
    ("contaminate", '{"seed": 1.5, "intensities": {"H1": 2}}'),
    ("contaminate", '{"seed": 1, "intensities": {"H1": true}}'),
    ("contaminate", '{"seed": true, "intensities": {"H1": 2}}'),
    ("contaminate", '{"seed": 1, "dataset": [1]}'),
    ("compare --manifest", '{"seed": 1, "dataset": [1]}'),
    ("compare --manifest", '{"seed": 1, "requested": {"H1": 2}, "achieved": {"H1": true}}'),
    ("compare", '{"dataset": 1, "metrics": {}}'),
    ("compare", '{"counts": {"triples": 1.5}, "metrics": {}}'),
    ("compare", '{"metrics": {"M1": {"value": 0.5, "numerator": true, "denominator": 2}}}'),
    ("correlate", '{"dataset": 1, "metrics": {}}'),
    # a metric value is a JSON number, clamped a boolean, and offenders, flags
    # and warnings are lists: no string or boolean is coerced into one
    ("correlate", '{"metrics": {"M1": {"value": "0.5", "numerator": 1, "denominator": 2}}}'),
    ("correlate", '{"metrics": {"M1": {"value": true, "numerator": 1, "denominator": 2}}}'),
    ("correlate", '{"metrics": {"M1": {"value": 0.5, "numerator": 1, "denominator": 2, '
                  '"clamped": "no"}}}'),
    ("correlate", '{"metrics": {"M1": {"value": 0.5, "numerator": 1, "denominator": 2, '
                  '"clamped": 0}}}'),
    ("correlate", '{"metrics": {"M1": {"value": 0.5, "numerator": 1, "denominator": 2, '
                  '"offenders": "abc"}}}'),
    ("correlate", '{"metrics": {"M1": {"value": 0.5, "numerator": 1, "denominator": 2, '
                  '"offenders": [1.5]}}}'),
    ("correlate", '{"flags": "abc", "metrics": {}}'),
    ("correlate", '{"flags": [1], "metrics": {}}'),
    # the dictionary id is a string or null, the version a string
    ("compare", '{"dictionary": 5, "metrics": {}}'),
    ("compare", '{"version": ["x"], "metrics": {}}'),
    # every count rdfqa writes is at least 0
    ("compare to itself",
     '{"metrics": {"M1": {"value": 0.5, "numerator": -3, "denominator": -1}}}'),
    ("correlate", '{"metrics": {"M1": {"value": 0.5, "numerator": 1, "denominator": -2}}}'),
    ("compare to itself", '{"counts": {"triples": -5}, "metrics": {}}'),
    ("correlate", '{"counts": {"classes": -1}, "metrics": {}}'),
    ("compare --manifest", '{"seed": 1, "requested": {"H1": 2}, "achieved": {"H1": -1}}'),
    ("compare --manifest", '{"seed": 1, "warnings": "abc"}'),
    ("compare --manifest", '{"seed": 1, "warnings": [null]}'),
    ("compare --manifest", '{"seed": 1, "edits": [{"heuristic": "H1", '
                           '"action": "add_axiom", "after": "garbage"}]}'),
    # an edit's action is the one its triples give, and it names a triple
    ("compare --manifest", _one_edit_manifest("add_triple", _S_P_O, _S_P_O)),
    ("compare --manifest", _one_edit_manifest("remove_triple", _S_P_O, _S_P_O)),
    ("compare --manifest", _one_edit_manifest("rewrite_triple", before=_S_P_O)),
    ("compare --manifest", _one_edit_manifest("add_triple")),
    ("compare --manifest", _one_edit_manifest("add_triple", after=_CLASS_DECLARATION)),
    # nesting too deep for the JSON decoder
    *(pytest.param(command, "[" * 100_000, id=f"{command}-nested")
      for command in ("contaminate", "compare --manifest", "compare", "correlate")),
])
def test_malformed_plan_manifest_or_report_exits_1_without_traceback(tmp_path, command, bad):
    good = tmp_path / "good.json"
    assert run_cli(["assess", ZOO, "--format", "json", "-o", str(good)]) == 0
    path = tmp_path / "bad.json"
    path.write_text(bad)
    args = {
        "contaminate": ["contaminate", ZOO, "--plan", str(path)],
        "compare": ["compare", str(good), str(path)],
        "compare to itself": ["compare", str(path), str(path)],
        "compare --manifest": ["compare", str(good), str(good), "--manifest", str(path)],
        "correlate": ["correlate", str(path), str(path), str(path)],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "rdfqa", *args, "-o", str(tmp_path / "out")],
        capture_output=True, text=True)
    _assert_input_error(proc, f"{path}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]


@pytest.mark.parametrize("what, opener", [
    ("plan", "["), ("plan", '{"a":'),
    ("manifest", "["), ("manifest", '{"a":'),
    ("report", "["), ("report", '{"a":'),
])
def test_json_nested_too_deeply_says_so(tmp_path, what, opener):
    good = tmp_path / "good.json"
    assert run_cli(["assess", ZOO, "--format", "json", "-o", str(good)]) == 0
    path = tmp_path / "deep.json"
    path.write_text(opener * 100_000)
    args = {
        "plan": ["contaminate", ZOO, "--plan", str(path)],
        "manifest": ["compare", str(good), str(good), "--manifest", str(path)],
        "report": ["compare", str(good), str(path)],
    }[what]
    proc = subprocess.run(
        [sys.executable, "-m", "rdfqa", *args, "-o", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"rdfqa: error: {path}: malformed {what}: nested too deeply\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json", "good.json"]


@pytest.mark.parametrize("command",
                         ["run_experiment", "assess", "contaminate", "compare", "correlate"])
def test_no_command_reads_or_writes_in_the_locale_encoding(tmp_path, command):
    # -X warn_default_encoding warns at each text open with no encoding, and
    # -W turns that warning into an error, so such an open exits non-zero
    root = Path(__file__).resolve().parent.parent
    data = root / "src" / "rdfqa" / "data"
    reports = [tmp_path / f"{stem}.json" for stem in ("family", "zoo_clean", "zoo_dirty")]
    for report in reports:
        assert run_cli(["assess", str(data / f"{report.stem}.nt"), "--format", "json",
                        "-o", str(report)]) == 0
    out = tmp_path / "out"
    args = {
        "run_experiment": [root / "scripts" / "run_experiment.py", data, data / "plans", out],
        "assess": ["-m", "rdfqa", "assess", ZOO, "--dictionary", data / "words.txt",
                   "--format", "json", "-o", out],
        "contaminate": ["-m", "rdfqa", "contaminate", ZOO, "--plan", PLAN, "-o", out],
        "compare": ["-m", "rdfqa", "compare", *reports[1:],
                    "--manifest", data / "zoo_dirty.manifest.json", "-o", out],
        "correlate": ["-m", "rdfqa", "correlate", *reports, "-o", out],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert "EncodingWarning" not in proc.stderr


def test_run_experiment_script_on_bundled_fixtures(tmp_path):
    root = Path(__file__).resolve().parent.parent
    data = root / "src" / "rdfqa" / "data"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_experiment.py"),
         str(data), str(data / "plans"), str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    for stem in ("family", "zoo_clean"):
        for suffix in (".clean.json", ".dirty.nt", ".dirty.manifest.json", ".dirty.json"):
            assert (tmp_path / (stem + suffix)).stat().st_size > 0
        # the manifest names its dataset, as `rdfqa contaminate` writes it
        manifest = json.loads((tmp_path / f"{stem}.dirty.manifest.json").read_text())
        assert manifest["dataset"] == stem
    assert "== pooled correlation over" in proc.stdout
