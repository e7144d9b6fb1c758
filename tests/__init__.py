"""Helpers shared by the tests: a fresh interpreter's environment, and an oracle's full sums."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict[str, str]:
    """This process's environment with the package's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def covered_sums(oracle) -> dict:
    """The sums of an ``OracleSums``, after asserting that every row it evaluated was covered."""
    assert oracle.coverage == []
    return oracle.sums
