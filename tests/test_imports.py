"""What ``import crashcheck`` loads.  A checker forked from crashcheck
starts with the modules crashcheck imported, and every fresh run pays for
them, so the modules that only ``cli`` or a test needs stay out."""

import json
import subprocess
import sys
from functools import lru_cache

from conftest import REPO_ROOT


@lru_cache(maxsize=None)
def loaded_by_import_crashcheck() -> frozenset[str]:
    """``sys.modules`` after ``import crashcheck`` in a fresh interpreter
    that skips ``site`` and writes no bytecode."""
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "import crashcheck\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe], check=True,
                                       capture_output=True, text=True).stdout)
    assert "crashcheck.simulate" in loaded
    return frozenset(loaded)


def test_import_crashcheck_loads_no_tempfile_argparse_or_random():
    loaded = loaded_by_import_crashcheck()
    assert [name for name in ("tempfile", "argparse", "random") if name in loaded] == []


def test_import_crashcheck_loads_no_dataclasses_or_inspect():
    # Records are named tuples and plain classes: ``dataclasses`` costs about
    # 20 ms of start-up with its decorations, and brings ``inspect``, ``ast``,
    # ``dis`` and ``tokenize`` along.
    loaded = loaded_by_import_crashcheck()
    assert [name for name in ("dataclasses", "inspect") if name in loaded] == []
