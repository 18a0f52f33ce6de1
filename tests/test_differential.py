import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "differential.py"


def _differential(tree):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tree), "--random", "3", "--seeds", "1"],
        capture_output=True, text=True)


def test_a_tree_against_itself_differs_in_no_case():
    proc = _differential(ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n299 cases, 0 differ\n")


def _changed_tree(tmp_path, module, old, new):
    """A copy of this tree whose ``module`` has ``new`` for ``old``."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "__init__.py").touch()
    shutil.copy(ROOT / "tests" / "datagen.py", tmp_path / "tests")
    path = tmp_path / "src" / "rdfqa" / module
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def test_a_changed_contaminator_differs_in_contaminations_only(tmp_path):
    proc = _differential(_changed_tree(tmp_path, "contaminate.py", 'FRESH_IRI_PREFIX = "contam:"',
                                       'FRESH_IRI_PREFIX = "other:"'))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "assess: 0 of 22 differ" in lines
    # H1 mints a fresh IRI for every edit it makes
    assert "H1@1: 8 of 8 differ" in lines
    assert lines[-1].startswith("299 cases, ") and not lines[-1].endswith(" 0 differ")


def test_a_changed_table_layout_differs_in_table_outputs_only(tmp_path):
    # three spaces between table columns: every report, delta and trend table
    # changes, and no JSON, CSV, matrix or contamination
    proc = _differential(_changed_tree(tmp_path, "reporting.py", '"  ".join', '"   ".join'))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    for line in ("assess: 7 of 22 differ", "compare: 7 of 21 differ",
                 "compare-manifest: 7 of 21 differ", "correlate: 0 of 3 differ",
                 "all@3: 0 of 8 differ", "H1@1: 0 of 8 differ"):
        assert line in lines
    assert lines[-1] == "299 cases, 21 differ"


def test_a_tree_whose_run_fails_exits_1(tmp_path):
    # an empty directory holds no package to import
    proc = _differential(tmp_path)
    assert proc.returncode == 1
    assert f"{tmp_path}: the run failed" in proc.stderr
    assert proc.stdout == ""
