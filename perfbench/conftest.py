"""Test set-up for the benchmark's own tests.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    """Each test gets the pinned environment the benchmark runs under."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))
