"""The benchmark's hand-written answers (``bench/workloads.py``), held in
the tier-1 suite: one pass of each workload, run in this process, gives
each command's expected exit code and an output its ``check`` accepts, so a
changed count or message fails here and not only in a benchmark run.  This
imports the benchmark's modules and changes nothing under ``bench/``."""

import pytest

from crashcheck.cli import main
from conftest import bench_module


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", ["scale", "corpus", "explore"])
def test_one_pass_of_each_bench_workload_gives_its_answers(tmp_path, name, seed):
    workload = bench_module("workloads").WORKLOADS[name]
    workload.write_inputs(tmp_path, seed)
    commands = 0
    for command in workload.commands(tmp_path):
        assert main(command.argv) == command.exit_code, command.argv
        assert command.check is None or command.check(command.out) == [], command.argv
        commands += 1
    assert commands > 0
