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
    assert proc.stdout.endswith("\n210 cases, 0 differ\n")


def test_a_changed_contaminator_differs_in_contaminations_only(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "__init__.py").touch()
    shutil.copy(ROOT / "tests" / "datagen.py", tmp_path / "tests")
    module = tmp_path / "src" / "rdfqa" / "contaminate.py"
    text = module.read_text(encoding="utf-8")
    assert 'FRESH_IRI_PREFIX = "contam:"' in text
    module.write_text(text.replace('FRESH_IRI_PREFIX = "contam:"', 'FRESH_IRI_PREFIX = "other:"'),
                      encoding="utf-8")
    proc = _differential(tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "assess: 0 of 7 differ" in lines
    # H1 mints a fresh IRI for every edit it makes
    assert "H1@1: 7 of 7 differ" in lines
    assert lines[-1].startswith("210 cases, ") and not lines[-1].endswith(" 0 differ")


def test_a_tree_whose_run_fails_exits_1(tmp_path):
    # an empty directory holds no package to import
    proc = _differential(tmp_path)
    assert proc.returncode == 1
    assert f"{tmp_path}: the run failed" in proc.stderr
    assert proc.stdout == ""
