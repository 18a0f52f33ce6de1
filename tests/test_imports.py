"""The import contract: each rdfqa process imports only what its command runs.

Every case runs in a fresh interpreter, since this test process has long
imported every module. The launcher runs the CLI as the ``rdfqa`` script
does and, at exit, writes the sorted ``rdfqa`` entries of ``sys.modules``
to the file named by its first argument.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rdfqa.fixtures import fixture_path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = """import atexit, json, sys
out = sys.argv.pop(1)
atexit.register(lambda: open(out, "w").write(json.dumps(sorted(
    m for m in sys.modules if m == "rdfqa" or m.startswith("rdfqa.")))))
from rdfqa.cli import main
sys.exit(main())
"""
FAMILY = fixture_path("family.nt")
PLAN = fixture_path("plans/zoo_demo.json")


def _python(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env, **kwargs)


def _loaded(tmp_path, *argv, code=0):
    """The rdfqa modules a CLI process with ``argv`` imported."""
    modules = tmp_path / "modules.json"
    proc = _python("-c", LAUNCHER, modules, *argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    return set(json.loads(modules.read_text()))


def _reports(tmp_path, n=3):
    """``n`` assess reports of the bundled fixtures, made in this process."""
    from rdfqa.cli import main

    paths = []
    for i, name in enumerate(["family.nt", "zoo_clean.nt", "zoo_dirty.nt"][:n]):
        paths.append(tmp_path / f"r{i}.json")
        assert main(["assess", str(fixture_path(name)), "--format", "json",
                     "-o", str(paths[-1])]) == 0
    return paths


def test_importing_the_cli_imports_no_other_rdfqa_module():
    proc = _python("-c", "import json, sys, rdfqa.cli; print(json.dumps(sorted("
                   "m for m in sys.modules if m.split('.')[0] == 'rdfqa')))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["rdfqa", "rdfqa.cli"]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["assess", "--help"], 0),
    ([], 2),
    (["assess"], 2),
    (["frobnicate", "x"], 2),
    (["correlate", "a.json", "b.json"], 2),
])
def test_help_and_usage_errors_load_only_the_cli(tmp_path, argv, code):
    assert _loaded(tmp_path, *argv, code=code) == {"rdfqa", "rdfqa.cli"}


def test_assess_loads_neither_the_contaminator_nor_stats(tmp_path):
    loaded = _loaded(tmp_path, "assess", FAMILY, "-o", "r.json")
    assert {"rdfqa.core.parsing", "rdfqa.metrics", "rdfqa.reporting"} <= loaded
    assert not loaded & {"rdfqa.contaminate", "rdfqa.stats"}


def test_contaminate_does_not_load_stats(tmp_path):
    loaded = _loaded(tmp_path, "contaminate", FAMILY, "--plan", PLAN, "-o", "d.nt")
    assert "rdfqa.contaminate" in loaded
    assert "rdfqa.stats" not in loaded


def test_correlate_loads_neither_the_contaminator_nor_the_parser(tmp_path):
    loaded = _loaded(tmp_path, "correlate", *_reports(tmp_path), "-o", "m.txt")
    assert "rdfqa.stats" in loaded
    assert not loaded & {"rdfqa.contaminate", "rdfqa.core.parsing"}


def test_compare_loads_the_contaminator_only_for_a_manifest(tmp_path):
    from rdfqa.cli import main

    before, after = _reports(tmp_path, 2)
    loaded = _loaded(tmp_path, "compare", before, after, "-o", "d.txt")
    assert "rdfqa.stats" in loaded
    assert not loaded & {"rdfqa.contaminate", "rdfqa.core.parsing"}
    assert main(["contaminate", str(FAMILY), "--plan", str(PLAN),
                 "-o", str(tmp_path / "d.nt")]) == 0
    manifest = tmp_path / "d.manifest.json"
    assert "rdfqa.contaminate" in _loaded(tmp_path, "compare", before, after,
                                          "--manifest", manifest, "-o", "d.txt")


@pytest.mark.parametrize("statements", [
    ["assert all(getattr(rdfqa, name) is not None for name in rdfqa.__all__)"],
    ["exec('from rdfqa import *', ns)",
     "assert sorted(k for k in ns if k != '__builtins__') == rdfqa.__all__"],
    ["exec('from rdfqa import ' + ', '.join(rdfqa.__all__), ns)"],
    ["assert rdfqa.contaminate is sys.modules['rdfqa.contaminate']",
     "assert rdfqa.ParseError.__bases__ == (Exception,)"],
])
def test_every_export_resolves_in_a_fresh_process(statements):
    # a process that has imported the package alone binds each name on
    # first access, whichever way it is reached
    proc = _python("-c", "\n".join(["import sys, rdfqa", "ns = {}", *statements]))
    assert proc.returncode == 0, proc.stderr


def test_an_unknown_name_is_an_attribute_error():
    import rdfqa

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        rdfqa.nope
    assert not hasattr(rdfqa, "__wrapped__")
