"""Launching the rdfqa CLI and its helper processes, one at a time.

Every child runs with ``PYTHONPATH=src`` so the benchmark works in a plain
checkout, where ``rdfqa`` is not installed. The CLI launcher below is fixed:
numbers taken with different launchers are not comparable.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = "import sys; from rdfqa.cli import main; sys.exit(main())"
TRACEBACK = b"Traceback (most recent call last)"


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", LAUNCHER, *args]


@dataclass
class Child:
    wall_s: float
    maxrss_kb: int
    exit_code: int | None  # None: killed at the deadline
    stdout: bytes
    stderr: bytes

    def error(self) -> str | None:
        """Why the process counts as failed, or None."""
        if self.exit_code is None:
            return "killed at the run's deadline"
        if self.exit_code != 0:
            return f"exit code {self.exit_code}: {self.stderr[-400:].decode(errors='replace')}"
        if TRACEBACK in self.stderr:
            return "traceback on stderr"
        return None


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline


def run_child(argv: list[str], log_dir: Path, deadline: float) -> Child:
    """Run one process to completion and time it from fork to exit.

    Output goes to files in ``log_dir`` rather than pipes, so the parent does
    no work while the child runs. A child still running at ``deadline``
    (a ``time.monotonic`` value) is killed.
    """
    if time.monotonic() >= deadline:
        return Child(0.0, 0, None, b"", b"")
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        # at least 1 s, so the alarm cannot interrupt the spawn itself
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 1.0))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            exit_code = proc.returncode
        except _Deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall, exit_code = time.perf_counter() - start, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return Child(wall, usage.ru_maxrss, exit_code, out_path.read_bytes(), err_path.read_bytes())

