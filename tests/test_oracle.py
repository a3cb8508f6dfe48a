"""The checker contract, run on both oracle paths: a checker of the form
``<this interpreter> <script>`` runs in a fork of the test process, any
other command as a new process, and both must give the same verdict and
output for every way a checker can end.  A checker is prepared once per
run and checks many states."""

import os
import random
import sys
import threading
import time
from functools import lru_cache, partial

import pytest

from crashcheck import simulate
from crashcheck.behavior import make_behavior
from crashcheck.cli import RunConfig, derive_behaviors, main
from crashcheck.graph import build_graph
from crashcheck.grouping import group_behaviors
from crashcheck.models import model_edges
from crashcheck.simulate import CheckResult, FsImage, PreparedChecker, Verdict, run_oracle
from crashcheck.trace import MMIO_MODE, POSIX_MODE

from conftest import CHECKERS, REPO_ROOT, WORKLOADS, checker_cmd, load_workload
from helpers import random_mmio_trace, random_posix_trace
from test_acceptance import CORPUS

CONSISTENT, INCONSISTENT = Verdict.CONSISTENT, Verdict.INCONSISTENT

# name, script source, expected verdict
CASES = [
    ("exit-0", "import sys\nsys.exit(0)\n", CONSISTENT),
    ("exit-1-with-stdout", "import sys\nprint('bad state')\nsys.exit(1)\n", INCONSISTENT),
    ("stderr-only", "import sys\nsys.stderr.write('warning\\n')\n", CONSISTENT),
    (
        "stdout-and-stderr",
        "import sys\nprint('to stderr', file=sys.stderr)\nprint('to stdout')\nsys.exit(2)\n",
        INCONSISTENT,
    ),
    ("sys-exit-message", "import sys\nprint('partial')\nsys.exit('msg')\n", INCONSISTENT),
    ("sys-exit-256", "import sys\nsys.exit(256)\n", CONSISTENT),
    ("sys-exit-minus-1", "raise SystemExit(-1)\n", INCONSISTENT),
    (
        "uncaught-exception",
        "def check(root):\n    raise ValueError(f'bad root {len(root) > 0}')\n\n"
        "import sys\ncheck(sys.argv[1])\n",
        INCONSISTENT,
    ),
    ("syntax-error", "print('never')\ndef (:\n", INCONSISTENT),
    ("parser-stack-overflow", "print('never')\n" + "-" * 100_000 + "1\n", INCONSISTENT),
    ("compile-recursion", "print('never')\nx = 1" + "+1" * 100_000 + "\n", INCONSISTENT),
    ("abort", "import os\nprint('before abort')\nos.abort()\n", INCONSISTENT),
    ("os-exit-3", "import os, sys\nsys.stdout.write('x')\nsys.stdout.flush()\nos._exit(3)\n", INCONSISTENT),
    ("large-output", "import sys\nsys.stdout.write('x' * (3 << 19))\nsys.exit(1)\n", INCONSISTENT),
    (
        "non-utf8-bytes",
        "import sys\nsys.stdout.buffer.write(b'ok \\xff\\xfe\\r\\nnext\\r')\nsys.stderr.buffer.write(b'\\x80')\n",
        CONSISTENT,
    ),
    (
        "sibling-import",
        "import oracle_contract_sibling\nprint(oracle_contract_sibling.VALUE)\n",
        CONSISTENT,
    ),
    ("annotations", "def f(x: int) -> None:\n    pass\n\nprint(f.__annotations__)\n", CONSISTENT),
    ("import-main", "import __main__\nprint(vars(__main__) is globals())\n", CONSISTENT),
    ("main-guard", "import sys\nif __name__ == '__main__':\n    print('as main')\n    sys.exit(4)\n", INCONSISTENT),
    (
        "argv-and-file",
        "import os, sys\nprint(os.path.basename(sys.argv[0]), len(sys.argv), os.path.isdir(sys.argv[1]),\n"
        "      __file__ == os.path.abspath(sys.argv[0]))\n",
        CONSISTENT,
    ),
]


def script_checker(tmp_path, source: str, timeout: float = 30.0) -> PreparedChecker:
    (tmp_path / "oracle_contract_sibling.py").write_text("VALUE = 42\n")
    script = tmp_path / "checker.py"
    script.write_text(source)
    return PreparedChecker([sys.executable, str(script)], tmp_path / "scratch", timeout)


def fork_check(checker: PreparedChecker) -> CheckResult:
    return simulate._fork_check(checker.argv, checker.script()[1], checker.timeout)[0]


def fs_image(files: dict[str, bytes]) -> FsImage:
    image = FsImage(dict(files))
    for path in files:
        parent, _, name = path.rpartition("/")
        image.dirents[parent or "."] = image.dirents.get(parent or ".", frozenset()) | {name}
    return image


# Three states in a row for one prepared checker: an empty one, one with a
# file and a subdirectory, and the empty one again.
STATES = [FsImage(), fs_image({"a": b"1", "d/b": b"22"}), FsImage()]


@pytest.mark.parametrize("source, verdict", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_fork_and_subprocess_paths_agree(tmp_path, source, verdict):
    checker = script_checker(tmp_path, source)
    assert checker.forkable()
    for image in STATES:
        forked = run_oracle(image, checker)
        spawned = simulate._subprocess_check(checker.argv, checker.timeout)
        assert (forked.verdict, forked.oracle_output) == (spawned.verdict, spawned.oracle_output)
        assert forked.verdict is verdict


def test_contract_outputs_are_the_interpreters(tmp_path):
    """Spot checks of what both paths agree on."""
    outputs = {}
    for name, source, _ in CASES:
        case_dir = tmp_path / name
        case_dir.mkdir()
        outputs[name] = run_oracle(FsImage(), script_checker(case_dir, source)).oracle_output
    assert outputs["stdout-and-stderr"] == "to stdout\nto stderr\n"
    assert outputs["sys-exit-message"] == "partial\nmsg\n"
    assert outputs["uncaught-exception"].startswith("Traceback (most recent call last):\n  File ")
    assert outputs["uncaught-exception"].endswith("ValueError: bad root True\n")
    assert "SyntaxError" in outputs["syntax-error"] and "never" not in outputs["syntax-error"]
    assert outputs["parser-stack-overflow"] == "MemoryError\n"
    assert outputs["compile-recursion"] == "RecursionError: maximum recursion depth exceeded during compilation\n"
    assert outputs["large-output"] == "x" * (3 << 19)
    assert outputs["non-utf8-bytes"] == "ok \\xff\\xfe\nnext\n\\x80"
    assert outputs["sibling-import"] == "42\n"
    assert outputs["argv-and-file"] == "checker.py 2 True True\n"
    assert outputs["import-main"] == "True\n"
    assert outputs["annotations"] == "{'x': <class 'int'>, 'return': None}\n"


@pytest.mark.parametrize(
    "check",
    [
        fork_check,
        lambda checker: simulate._subprocess_check(checker.argv, checker.timeout),
    ],
    ids=["fork", "subprocess"],
)
def test_hanging_checker_is_an_oracle_error_after_the_timeout(tmp_path, check):
    checker = script_checker(tmp_path, "import time\nprint('started')\ntime.sleep(60)\n", timeout=0.5)
    start = time.monotonic()
    result = check(checker)
    assert time.monotonic() - start < 10
    assert (result.verdict, result.oracle_output) == (Verdict.ORACLE_ERROR, "timeout after 0.5s")


AFFINITY = "import os\nprint(sorted(os.sched_getaffinity(0)))\n"


@pytest.mark.parametrize("narrow", [False, True], ids=["own-mask", "two-cpus"])
def test_a_forked_checker_runs_with_crashcheck_s_affinity_mask(tmp_path, narrow):
    """The fork is made pinned to one CPU; the child restores the mask."""
    mask = os.sched_getaffinity(0)
    if narrow and len(mask) < 2:
        pytest.skip("needs two CPUs")
    try:
        if narrow:
            os.sched_setaffinity(0, sorted(mask)[-2:])
        own = os.sched_getaffinity(0)
        assert fork_check(script_checker(tmp_path, AFFINITY)) == (CONSISTENT, f"{sorted(own)}\n")
        assert os.sched_getaffinity(0) == own
    finally:
        os.sched_setaffinity(0, mask)


def raise_from_select(*_args):
    raise RuntimeError("select failed")


STAT = "/proc/thread-self/stat"


def raise_oserror():
    raise PermissionError("not permitted")


@pytest.mark.parametrize(
    "source, timeout, select_raises, verdict",
    [
        ("print('ok')\n", 30.0, False, CONSISTENT),
        ("import sys\nsys.exit('bad')\n", 30.0, False, INCONSISTENT),
        ("import time\ntime.sleep(60)\n", 0.5, False, Verdict.ORACLE_ERROR),
        ("print('ok')\n", 30.0, True, None),
    ],
    ids=["consistent", "inconsistent", "timeout", "select-raises"],
)
def test_fork_check_leaves_the_affinity_mask_as_it_found_it(
    tmp_path, monkeypatch, source, timeout, select_raises, verdict
):
    before = os.sched_getaffinity(0)
    checker = script_checker(tmp_path, source, timeout)
    if select_raises:
        monkeypatch.setattr(simulate.select, "select", raise_from_select)
        with pytest.raises(RuntimeError, match="select failed"):
            fork_check(checker)
    else:
        assert fork_check(checker).verdict is verdict
    assert os.sched_getaffinity(0) == before


def test_the_fork_is_made_on_one_cpu(tmp_path, monkeypatch):
    before = os.sched_getaffinity(0)
    if len(before) < 2:
        pytest.skip("needs two CPUs")
    masks, fork = [], os.fork
    monkeypatch.setattr(simulate.os, "fork", lambda: masks.append(os.sched_getaffinity(0)) or fork())
    assert fork_check(script_checker(tmp_path, AFFINITY)).oracle_output == f"{sorted(before)}\n"
    assert len(masks) == 1 and len(masks[0]) == 1 and masks[0] <= before
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("failure", ["stat-unreadable", "setaffinity-fails"])
def test_a_pin_that_cannot_be_made_is_skipped(tmp_path, monkeypatch, failure):
    """The check runs unpinned, with the mask it had, and gives its result."""
    before = os.sched_getaffinity(0)
    masks, fork = [], os.fork
    monkeypatch.setattr(simulate.os, "fork", lambda: masks.append(os.sched_getaffinity(0)) or fork())
    if failure == "stat-unreadable":
        file_io = simulate.io.FileIO
        opened = lambda path, *args, **kw: raise_oserror() if path == STAT else file_io(path, *args, **kw)
        monkeypatch.setattr(simulate.io, "FileIO", opened)
    else:
        monkeypatch.setattr(simulate.os, "sched_setaffinity", lambda *_args: raise_oserror())
    assert fork_check(script_checker(tmp_path, AFFINITY)) == (CONSISTENT, f"{sorted(before)}\n")
    assert masks == [before] and os.sched_getaffinity(0) == before


def test_non_utf8_output_through_run_oracle(tmp_path):
    """Undecodable checker output used to escape as UnicodeDecodeError."""
    script = tmp_path / "badout.py"
    script.write_text("import sys\nsys.stdout.buffer.write(b'\\xff')\nsys.exit(1)\n")
    for checker in ([sys.executable, str(script)], ["env", sys.executable, str(script)]):
        result = run_oracle(FsImage(), PreparedChecker(checker, tmp_path / "s"))
        assert (result.verdict, result.oracle_output) == (Verdict.INCONSISTENT, "\\xff")


@pytest.fixture
def paths_taken(monkeypatch):
    """Record which oracle path ``run_oracle`` selects, without running it."""
    taken = []

    def fake(name, returned):
        def check(*_args):
            taken.append(name)
            return returned

        return check

    consistent = CheckResult(Verdict.CONSISTENT, "")
    monkeypatch.setattr(simulate, "_fork_check", fake("fork", (consistent, None)))
    monkeypatch.setattr(simulate, "_subprocess_check", fake("subprocess", consistent))
    return taken


def test_only_this_interpreter_with_a_script_file_is_forked(tmp_path, paths_taken):
    script = checker_cmd("always_ok.py")[1]
    link = tmp_path / "python-link"
    link.symlink_to(sys.executable)
    checkers = [
        ([sys.executable, script], "fork"),
        ([str(link), script], "subprocess"),
        ([sys.executable, "-I", script], "subprocess"),
        (["env", sys.executable, script], "subprocess"),
        ([sys.executable, str(tmp_path / "missing.py")], "subprocess"),
        (["true"], "subprocess"),
    ]
    for checker, _ in checkers:
        run_oracle(FsImage(), PreparedChecker(checker, tmp_path / "s"))
    assert paths_taken == [path for _, path in checkers]


def test_a_checker_command_of_this_interpreter_and_a_script_is_forked(tmp_path, paths_taken):
    """The CLI splits ``--checker`` into argv once; the command
    ``<python> <script>`` takes the fork path for every state."""
    code = main([
        "test", "--mode", "POSIX", "--dsl", str(WORKLOADS / "two_writes.dsl"),
        "--checker", f"{sys.executable} {checker_cmd('always_ok.py')[1]}", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert paths_taken == ["fork"] * 4


def test_a_live_thread_selects_the_subprocess_path(tmp_path, paths_taken):
    """The thread count is looked at for every state of a prepared checker."""
    checker = PreparedChecker(checker_cmd("always_ok.py"), tmp_path / "s")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        run_oracle(FsImage(), checker)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    run_oracle(FsImage(), checker)
    assert paths_taken == ["subprocess", "fork"]


def test_a_script_made_after_preparing_is_forked_once_it_exists(tmp_path, paths_taken):
    """Whether the script is a file is looked at for every state."""
    script = tmp_path / "later.py"
    checker = PreparedChecker([sys.executable, str(script)], tmp_path / "s")
    run_oracle(FsImage(), checker)
    script.write_text("pass\n")
    run_oracle(FsImage(), checker)
    assert paths_taken == ["subprocess", "fork"]


def test_forked_checker_leaves_this_process_alone(tmp_path):
    script = tmp_path / "meddle.py"
    script.write_text(
        "import sys\nsys.path.insert(0, 'meddled')\nsys.modules['json'] = None\n"
        "print('meddled', file=sys.__stderr__)\nsys.exit(3)\n"
    )
    path_before, main_before = list(sys.path), sys.modules["__main__"]
    result = run_oracle(FsImage(), PreparedChecker([sys.executable, str(script)], tmp_path / "s"))
    assert (result.verdict, result.oracle_output) == (Verdict.INCONSISTENT, "meddled\n")
    assert sys.path == path_before and sys.modules["__main__"] is main_before
    assert sys.modules["json"] is not None


@pytest.mark.parametrize("launcher", [[sys.executable], ["env", sys.executable]], ids=["fork", "subprocess"])
def test_editing_the_script_between_states_changes_the_verdict(tmp_path, launcher):
    script = tmp_path / "edited.py"
    script.write_text("print('first')\n")
    checker = PreparedChecker([*launcher, str(script)], tmp_path / "s")
    first = run_oracle(FsImage(), checker)
    script.write_text("import sys\nprint('second')\nsys.exit(1)\n")
    second = run_oracle(FsImage(), checker)
    script.write_text("def (:\n")
    third = run_oracle(FsImage(), checker)
    assert (first.verdict, first.oracle_output) == (Verdict.CONSISTENT, "first\n")
    assert (second.verdict, second.oracle_output) == (Verdict.INCONSISTENT, "second\n")
    assert third.verdict is Verdict.INCONSISTENT and "SyntaxError" in third.oracle_output


def test_the_script_is_compiled_once_per_distinct_content(tmp_path):
    script = tmp_path / "same.py"
    script.write_text("pass\n")
    checker = PreparedChecker([sys.executable, str(script)], tmp_path / "s")
    source, code = checker.script()
    assert (source, code is not None) == (b"pass\n", True) and checker.script()[1] is code
    script.write_text("pass  # edited\n")
    edited = checker.script()[1]
    assert edited is not None and edited is not code
    script.write_text("def (:\n")
    assert checker.script() == (b"def (:\n", None)
    script.write_text("pass\n")
    assert checker.script()[1] is code
    script.unlink()
    assert checker.script() == (None, None)


# Lists what the checker sees under its scratch directory, then leaves a
# file, a nested subdirectory and a symlink to a directory outside it; it
# gets that far whatever bytes the files hold.
MESSY = """\
import os, sys
root = sys.argv[1]
for top, dirs, files in sorted(os.walk(root)):
    for name in sorted(dirs + files):
        path = os.path.join(top, name)
        print(os.path.relpath(path, root), open(path, errors="replace").read() if os.path.isfile(path) else "/")
open(os.path.join(root, "junk"), "w").write("left behind")
os.makedirs(os.path.join(root, "d", "deep", "er"), exist_ok=True)
open(os.path.join(root, "d", "deep", "er", "f"), "w").write("left behind")
os.symlink({outside!r}, os.path.join(root, "link"))
"""


@pytest.mark.parametrize("launcher", [[sys.executable], ["env", sys.executable]], ids=["fork", "subprocess"])
def test_what_a_checker_leaves_in_its_scratch_is_gone_at_the_next_state(tmp_path, launcher):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "keep").write_text("kept")
    script = tmp_path / "messy.py"
    script.write_text(MESSY.format(outside=str(outside)))
    checker = PreparedChecker([*launcher, str(script)], tmp_path / "s")
    outputs = [run_oracle(image, checker).oracle_output for image in STATES]
    assert outputs == ["", "a 1\nd /\nd/b 22\n", ""]
    assert os.listdir(outside) == ["keep"] and (outside / "keep").read_text() == "kept"


# --- reused verdicts ---


def reached_images(trace) -> list:
    """Every crash image that ``test`` and then ``exhaustive`` reach on
    ``trace``, in the order they reach them."""
    _, behaviors = derive_behaviors(trace, RunConfig())
    by_id = {b.id: b for b in behaviors}
    reps = [by_id[rep_id] for rep_id in dict.fromkeys(g.representative for g in group_behaviors(behaviors))]
    graph = build_graph(trace, model_edges(trace))
    whole = make_behavior("whole", "*", 0, graph.node_seqs, graph)
    images = []
    for behaviors, enumerator in (reps, simulate.enumerate_schedules), ([whole], simulate.exhaustive_schedules):
        _, _, states = simulate.test_groups(behaviors, partial(enumerator, trace=trace), trace)
        images += [simulate.replay(schedule) for schedule, _ in states.values()]
    return images


@lru_cache(maxsize=None)
def crash_images() -> dict:
    """The distinct images, by mode, that ``test`` and ``exhaustive`` reach
    on the 8 shipped programs and on random 2- and 3-thread traces."""
    rng = random.Random(5)
    traces = [load_workload(program, mode) for program, mode, _ in CORPUS]
    for _ in range(6):
        traces.append(random_posix_trace(rng, 6, threads=rng.choice([2, 3])))
        traces.append(random_mmio_trace(rng, 6, threads=rng.choice([2, 3])))
    images = {POSIX_MODE: {}, MMIO_MODE: {}}
    for trace in traces:
        for image in reached_images(trace):
            images[trace.meta.mode].setdefault(image.digest(), image)
    return {mode: list(by_digest.values()) for mode, by_digest in images.items()}


# name, script source (None: the shipped checker of that name), the mode of
# the states it checks, and whether any verdict of it is reused.
REUSE_CASES = [
    ("always_ok.py", None, POSIX_MODE, True),
    ("always_ok.py", None, MMIO_MODE, True),
    ("current_pointer.py", None, POSIX_MODE, True),
    # It reads the whole memory image, which no other state matches.
    ("entry_valid.py", None, MMIO_MODE, False),
    ("listdir", "import os, sys\nnames = sorted(os.listdir(sys.argv[1]))\nprint(names)\nsys.exit(len(names) % 2)\n",
     POSIX_MODE, True),
    (
        "walk",
        "import os, sys\nroot = sys.argv[1]\nfor top, dirs, files in os.walk(root):\n"
        "    print(os.path.relpath(top, root), sorted(dirs), sorted(files))\n",
        POSIX_MODE, True,
    ),
    (
        "exists",
        "import os, sys\nfrom pathlib import Path\n"
        "print(os.path.exists(os.path.join(sys.argv[1], 'f1')), Path(sys.argv[1], 'CURRENT').is_file())\n",
        POSIX_MODE, True,
    ),
    (
        "subprocess",
        "import os, subprocess, sys\nsubprocess.run(['true'], check=True)\nprint(sorted(os.listdir(sys.argv[1])))\n",
        POSIX_MODE, False,
    ),
    ("messy", MESSY, POSIX_MODE, False),
    (
        "writes",
        "import os, sys\nwith open(os.path.join(sys.argv[1], 'junk'), 'a') as junk:\n    junk.write('x')\n"
        "print(sorted(os.listdir(sys.argv[1])))\n",
        POSIX_MODE, False,
    ),
    (
        "os-exit",
        "import os, sys\nprint(sorted(os.listdir(sys.argv[1])))\nsys.stdout.flush()\nos._exit(0)\n",
        POSIX_MODE, False,
    ),
]


@pytest.mark.parametrize(
    "name, source, mode, reuses", REUSE_CASES, ids=[f"{case[0]}-{case[2]}" for case in REUSE_CASES]
)
def test_a_reused_verdict_is_that_of_a_fresh_fork(tmp_path, monkeypatch, name, source, mode, reuses):
    """One prepared checker over every state, reusing verdicts, gives each
    state the verdict and output of a fresh ``_fork_check`` on it; a
    checker that writes, starts a process, leaves through ``os._exit`` or
    reads the whole image forks at every state."""
    outside = tmp_path / "outside"
    outside.mkdir()
    script = CHECKERS / name if source is None else tmp_path / "checker.py"
    if source is not None:
        script.write_text(source.format(outside=str(outside)) if source is MESSY else source)
    images = crash_images()[mode]
    assert len(images) > 40
    assert_reuse_is_sound(tmp_path, monkeypatch, script, images, reuses)


def assert_reuse_is_sound(tmp_path, monkeypatch, script, images, reuses: bool):
    """Check ``images`` in order with one prepared checker, which may reuse
    verdicts, and each with a fresh ``_fork_check``: every state gets the
    same verdict and output, and some state is not forked exactly when the
    checker ``reuses``."""
    fork_check = simulate._fork_check
    forks = []
    monkeypatch.setattr(simulate, "_fork_check", lambda *args: forks.append(args) or fork_check(*args))
    checker = PreparedChecker([sys.executable, str(script)], tmp_path / "reused" / "s")
    reused = [run_oracle(image, checker) for image in images]
    fresh = []
    for image in images:
        checker = PreparedChecker([sys.executable, str(script)], tmp_path / "fresh" / "s")
        simulate.materialize(image, checker.scratch)
        fresh.append(fork_check(checker.argv, checker.script()[1], checker.timeout)[0])
    assert [(r.verdict, r.oracle_output) for r in reused] == [(r.verdict, r.oracle_output) for r in fresh]
    assert (len(forks) < len(images)) is reuses, (len(forks), len(images))


# Small states that tell apart what a read may see: a missing file and a
# path under a file, equal sizes with other bytes and another size, a file
# in a directory that no mkdir made, and one state twice.
SMALL_STATES = [
    {}, {"f1": b"a"}, {"f1": b"b"}, {"f1": b"abc"}, {"f1": b"a", "d/x": b"1"}, {"d/x": b"22"}, {"f1": b"a"},
]

# name, script source, whether any verdict is reused
READ_CASES = [
    (
        "under-a-file",
        "import os, sys\ntry:\n    os.stat(os.path.join(sys.argv[1], 'f1', 'x'))\n"
        "except OSError as exc:\n    print(type(exc).__name__)\n",
        True,
    ),
    ("dotdot", "import os, sys\nprint(os.path.exists(os.path.join(sys.argv[1], 'd', '..', 'f1')))\n", False),
    (
        "os-open",
        "import os, sys\ntry:\n    os.close(os.open(os.path.join(sys.argv[1], 'f1'), os.O_RDONLY))\n"
        "except OSError:\n    sys.exit(1)\n",
        False,
    ),
    ("reads-only-itself", "print(len(open(__file__).read()))\n", True),
    ("access", "import os, sys\nprint(os.access(os.path.join(sys.argv[1], 'f1'), os.R_OK))\n", True),
    (
        "scandir-sizes",
        "import os, sys\nfor entry in sorted(os.scandir(sys.argv[1]), key=lambda e: e.name):\n"
        "    print(entry.name, entry.is_dir() or entry.stat().st_size)\n",
        True,
    ),
]


@pytest.mark.parametrize("source, reuses", [case[1:] for case in READ_CASES], ids=[case[0] for case in READ_CASES])
def test_what_a_checker_reads_decides_whether_its_verdict_is_reused(tmp_path, monkeypatch, source, reuses):
    script = tmp_path / "checker.py"
    script.write_text(source)
    assert_reuse_is_sound(tmp_path, monkeypatch, script, [fs_image(files) for files in SMALL_STATES], reuses)


def test_a_corpus_pass_forks_at_most_60_checkers(tmp_path, monkeypatch):
    """The benchmark's ``corpus`` pass, run in this process, checked 116
    states with a fork each before verdicts were reused."""
    bench = str(REPO_ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    fork_check = simulate._fork_check
    forks = []
    monkeypatch.setattr(simulate, "_fork_check", lambda *args: forks.append(args) or fork_check(*args))
    for command in workloads.Corpus().commands(tmp_path):
        assert main(command.argv) == command.exit_code, command.argv
    assert len(forks) <= 60


def test_each_state_is_laid_out_once(tmp_path, monkeypatch):
    """``run_oracle`` builds one ``_View`` of a state, which checks its paths
    and its file/directory collisions, and hands it to ``materialize`` when
    it forks: one view per state, whether the verdict is reused or not."""
    views, forks = [], []
    view, fork_check = simulate._View, simulate._fork_check
    monkeypatch.setattr(simulate, "_View", lambda image: views.append(image) or view(image))
    monkeypatch.setattr(simulate, "_fork_check", lambda *args: forks.append(args) or fork_check(*args))
    script = tmp_path / "checker.py"
    script.write_text(READ_CASES[4][1])
    checker = PreparedChecker([sys.executable, str(script)], tmp_path / "s")
    images = [fs_image(files) for files in SMALL_STATES]
    for image in images:
        run_oracle(image, checker)
    assert len(views) == len(images)
    assert 0 < len(forks) < len(images)


def test_each_checked_state_reads_the_script_once(tmp_path, monkeypatch):
    """``run_oracle`` reads the checker script once per state: its bytes
    key the reuse lookup, and a state the lookup misses forks with their
    code, so the child reads no script either."""
    reads, forks = [], []
    fork_check = simulate._fork_check
    monkeypatch.setattr(simulate, "open", lambda path, *args: reads.append(path) or open(path, *args), raising=False)
    monkeypatch.setattr(simulate, "_fork_check", lambda *args: forks.append(args) or fork_check(*args))
    script = tmp_path / "checker.py"
    script.write_text(READ_CASES[4][1])
    checker = PreparedChecker([sys.executable, str(script)], tmp_path / "s")
    images = [fs_image(files) for files in SMALL_STATES]
    for image in images:
        run_oracle(image, checker)
    assert reads.count(str(script)) == len(images) and 0 < len(forks) < len(images)
    assert all(code is not None for _, code, _ in forks)
