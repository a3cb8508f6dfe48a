"""What ``import crashcheck`` loads.  A checker forked from crashcheck
starts with the modules crashcheck imported, and every fresh run pays for
them, so the modules that only ``cli`` or a test needs stay out."""

import json
import subprocess
import sys

from conftest import REPO_ROOT


def test_import_crashcheck_loads_no_tempfile_argparse_or_random():
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "import crashcheck\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe], check=True,
                                       capture_output=True, text=True).stdout)
    assert "crashcheck.simulate" in loaded
    assert [name for name in ("tempfile", "argparse", "random") if name in loaded] == []
