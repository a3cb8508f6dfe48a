import importlib
import sys
from pathlib import Path

import pytest

from crashcheck import synth_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = REPO_ROOT / "workloads"
CHECKERS = WORKLOADS / "checkers"


def bench_module(name: str):
    """A module of ``bench/`` (``gen``, ``workloads``), imported without
    leaving ``bench/`` on the path."""
    bench = str(REPO_ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(bench)


def load_workload(name: str, mode: str):
    return synth_workload((WORKLOADS / name).read_text(), mode)


def checker_cmd(name: str) -> list[str]:
    return [sys.executable, str(CHECKERS / name)]


@pytest.fixture
def fig3_trace():
    return load_workload("fig3.dsl", "POSIX")


@pytest.fixture
def two_writes_trace():
    return load_workload("two_writes.dsl", "POSIX")


@pytest.fixture
def epochs_trace():
    return load_workload("epochs.dsl", "MMIO")


@pytest.fixture
def current_checker():
    return checker_cmd("current_pointer.py")


@pytest.fixture
def entry_checker():
    return checker_cmd("entry_valid.py")
