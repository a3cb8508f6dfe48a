"""The benchmark's traced mode (``bench/spans.py``) wraps crashcheck's
functions at the names its callers look up, so renaming or removing one of
them breaks span metrics without failing the benchmark's run.  This installs
the tracer and takes it down again; it changes nothing under ``bench/``."""

import json
import shlex
import sys

import crashcheck.cli
import crashcheck.simulate
from conftest import REPO_ROOT, WORKLOADS, checker_cmd


def import_spans():
    bench = str(REPO_ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        import spans
    finally:
        sys.path.remove(bench)
    return spans


def test_the_benchmark_tracer_installs_over_every_name_it_wraps():
    spans = import_spans()
    replay = crashcheck.simulate.replay
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert crashcheck.simulate.replay is not replay
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_the_tracer_sees_the_enumerator_of_test_and_exhaustive(tmp_path):
    """``test`` looks its enumerator up in ``simulate`` and ``exhaustive``
    in ``cli``, where the tracer wraps them: an enumerator bound at import
    time would run untraced and count no schedules."""
    spans = import_spans()
    program = [
        "--dsl", str(WORKLOADS / "two_writes.dsl"), "--mode", "POSIX",
        "--checker", shlex.join(checker_cmd("always_ok.py")),
    ]
    tracer = spans.Tracer()
    passes = {}
    try:
        tracer.install()
        for command, kind in enumerate(("test", "exhaustive")):
            argv = [kind, *program, "--out", str(tmp_path / kind)]
            assert tracer.run_command(command, kind, crashcheck.cli.main, argv) == 0
            passes[kind] = tracer.take_pass()["metrics"]
    finally:
        tracer.uninstall()
    for command in (0, 1):
        assert "simulate.enumerate" in {name for _, _, name, of, _, _ in tracer.spans if of == command}
    stats = json.loads((tmp_path / "test" / "stats.json").read_text())
    # One item per subset when every order is not counted.
    assert passes["test"]["simulate.schedules"] == stats["schedules_tested"] == 4
    assert passes["test"]["simulate.oracle_calls"] == stats["distinct_states"] == 4
