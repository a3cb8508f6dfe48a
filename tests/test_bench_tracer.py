"""The benchmark's traced mode (``bench/spans.py``) wraps crashcheck's
functions at the names its callers look up, so renaming or removing one of
them breaks span metrics without failing the benchmark's run.  This installs
the tracer and takes it down again; it changes nothing under ``bench/``."""

import sys

import crashcheck.simulate
from conftest import REPO_ROOT


def test_the_benchmark_tracer_installs_over_every_name_it_wraps():
    bench = str(REPO_ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        import spans
    finally:
        sys.path.remove(bench)
    replay = crashcheck.simulate.replay
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert crashcheck.simulate.replay is not replay
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
