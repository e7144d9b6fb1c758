"""Helpers shared by tests that start a fresh interpreter."""

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
