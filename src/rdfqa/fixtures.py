"""Access to the bundled fixture files (datasets, word list, sample plans)."""

from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled data file, e.g. ``fixture_path("family.nt")``."""
    return Path(__file__).with_name("data") / name
