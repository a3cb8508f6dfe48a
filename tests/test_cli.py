import json
import math
import os
import random
import shlex
import sys
import tempfile
import weakref
from collections import Counter

import pytest

from crashcheck import cli, simulate
from crashcheck.cli import _SETTINGS, _safe_name, build_run_config, main, make_parser, report_json
from crashcheck.simulate import MAX_ORACLE_TIMEOUT, FsImage, replay, schedule_from_json
from crashcheck.trace import parse_trace, serialize_trace

from conftest import CHECKERS, WORKLOADS, bench_module, load_workload
from helpers import (
    op,
    posix_trace,
    random_annotated_mmio_trace,
    random_mmio_trace,
    random_nested_posix_trace,
    random_posix_trace,
    write_args,
)


def checker_arg(name):
    return f"{sys.executable} {CHECKERS / name}"


def run(*argv):
    return main([str(a) for a in argv])


def test_synth_writes_a_parseable_trace(tmp_path):
    out = tmp_path / "t.jsonl"
    code = run("synth", "--mode", "POSIX", "--dsl", WORKLOADS / "fig3.dsl", "-o", out)
    assert code == 0
    trace = parse_trace(out.read_bytes())
    assert len(trace.ops) == 7
    assert trace.meta.mode == "POSIX"


def test_analyze_fig3_lists_expected_behaviors(tmp_path):
    out = tmp_path / "out"
    code = run("analyze", "--mode", "POSIX", "--dsl", WORKLOADS / "fig3.dsl", "--out", out)
    assert code == 0
    report = json.loads((out / "groups.json").read_text())
    shapes = {(b["owner"], tuple(b["nodes"])) for b in report["behaviors"]}
    assert ("Fn2", (1, 2)) in shapes
    assert ("Fn3", (3, 4, 5, 6, 7)) in shapes
    assert ("Fn1", (1, 2, 3, 4, 5, 6, 7)) in shapes
    assert (out / "dot" / "full.dot").exists()
    # One section per behavior in behaviors.dot, each after a header naming
    # it, in groups.json order.
    text = (out / "dot" / "behaviors.dot").read_text()
    headers = [line for line in text.splitlines() if line.startswith("// ")]
    assert headers == [f"// b{i:03d}_{_safe_name(b['id'])}" for i, b in enumerate(report["behaviors"])]
    assert text.count("digraph pg {") == len(headers) == report["counts"]["behaviors"]
    for group in report["groups"]:
        assert group["representative"] in group["members"]


def test_analyze_accepts_trace_file_input(tmp_path):
    trace_file = tmp_path / "t.jsonl"
    run("synth", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl", "-o", trace_file)
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_file, "--out", out) == 0
    report = json.loads((out / "groups.json").read_text())
    assert report["counts"]["ops"] == 2


def test_analyze_empty_trace_is_ok(tmp_path):
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text('{"app": "x", "mode": "POSIX", "version": 1}\n')
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_file, "--out", out) == 0
    report = json.loads((out / "groups.json").read_text())
    assert report["counts"] == {
        "ops": 0, "graph_nodes": 0, "graph_edges": 0, "behaviors": 0, "groups": 0,
    }


def test_analyze_draws_fewer_than_2_edges_per_node_on_a_long_trace(tmp_path):
    """``dot/full.dot`` draws the transitive reduction, so it stays linear in
    the trace: on the benchmark generator's 2,884-op pointer-update trace,
    whose graph stores over two million pairs, it draws fewer than 2 edges per
    node."""
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(bench_module("gen").pointer_update_trace(7, rounds=480))
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_file, "--out", out) == 0
    counts = json.loads((out / "groups.json").read_text())["counts"]
    dot = (out / "dot" / "full.dot").read_text()
    assert counts["ops"] >= 2_500
    assert dot.count(" [label=") - dot.count(" -> ") == counts["graph_nodes"]
    assert dot.count(" -> ") < 2 * counts["graph_nodes"]


def test_analyze_escapes_file_names_in_dot_labels(tmp_path):
    """A frame file holding a quote, a backslash and a newline reaches
    ``dot/full.dot`` and ``dot/behaviors.dot`` escaped, so each node's
    label is one quoted DOT string on one line."""
    trace_file = tmp_path / "t.jsonl"
    ops = [op(seq, "write", write_args("f", b"a"), (("main", seq),), file='we"ird\\x\n') for seq in (1, 2)]
    trace_file.write_bytes(serialize_trace(posix_trace(ops)))
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_file, "--out", out) == 0
    labels = ['  n1 [label="write@we\\"ird\\\\x\\n:1"];', '  n2 [label="write@we\\"ird\\\\x\\n:2"];']
    assert (out / "dot" / "full.dot").read_text().splitlines()[1:3] == labels
    for line in (out / "dot" / "behaviors.dot").read_text().splitlines():
        assert not line.startswith("  n") or line in labels or " -> " in line


def test_non_string_kind_exits_2(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    record = {"seq": 1, "tid": 0, "kind": [], "args": {"path": "f"},
              "backtrace": [{"function": "main", "file": "a.c", "line": 1}]}
    trace_file.write_text(
        '{"app": "x", "mode": "POSIX", "version": 1}\n' + json.dumps(record) + "\n"
    )
    assert run("analyze", "--trace", trace_file, "--out", tmp_path / "o") == 2
    assert "kind must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("app", [None, 5, ["x"], {}])
def test_non_string_app_exits_2_and_a_missing_one_is_empty(tmp_path, capsys, app):
    header = {"mode": "POSIX", "version": 1}
    assert parse_trace(json.dumps(header)).meta.app_name == ""
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(json.dumps({"app": app, **header}) + "\n")
    assert run("analyze", "--trace", trace_file, "--out", tmp_path / "o") == 2
    assert "error (analyze): line 1: header app must be a string" in capsys.readouterr().err


def test_non_string_digest_exits_2(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    record = {"seq": 1, "tid": 0, "kind": "write",
              "args": {"path": "f", "offset": 0, "length": 2, "digest": 5},
              "backtrace": [{"function": "main", "file": "a.c", "line": 1}]}
    trace_file.write_text(
        '{"app": "x", "mode": "POSIX", "version": 1}\n' + json.dumps(record) + "\n"
    )
    assert run("exhaustive", "--trace", trace_file, "--out", tmp_path / "o") == 2
    assert "'digest' must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("line", [math.inf, -math.inf, math.nan, "x", None])
def test_frame_line_that_is_no_integer_exits_2(tmp_path, capsys, line):
    # json.loads accepts Infinity and NaN, which are floats, not integers.
    trace_file = tmp_path / "t.jsonl"
    record = {"seq": 1, "tid": 0, "kind": "create", "args": {"path": "f"},
              "backtrace": [{"function": "main", "file": "a.c", "line": line}]}
    trace_file.write_text(
        '{"app": "x", "mode": "POSIX", "version": 1}\n' + json.dumps(record) + "\n"
    )
    assert run("analyze", "--trace", trace_file, "--out", tmp_path / "o") == 2
    assert "line 2: malformed frame" in capsys.readouterr().err


_HEADER = '{"app": "x", "mode": "POSIX", "version": 1}'


@pytest.mark.parametrize("command", ["analyze", "test", "exhaustive"])
def test_renaming_a_directory_exits_2_at_parse(tmp_path, capsys, command):
    """``test`` and ``exhaustive`` used to fail at replay with "rename of
    nonexistent source 'd' (op 3)", and ``analyze`` exited 0."""
    frames = [{"function": "main", "file": "a.c", "line": 1}]
    records = [
        {"seq": 1, "tid": 0, "kind": "mkdir", "args": {"path": "d"}, "backtrace": frames},
        {"seq": 2, "tid": 0, "kind": "write", "backtrace": frames,
         "args": {"path": "d/x", "offset": 0, "length": 1, "digest": "0" * 64}},
        {"seq": 3, "tid": 0, "kind": "rename", "args": {"path": "d", "dst": "e"}, "backtrace": frames},
    ]
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text("\n".join([_HEADER, *map(json.dumps, records)]) + "\n")
    checker = ["--checker", checker_arg("always_ok.py")] if command == "test" else []
    assert run(command, "--trace", trace_file, *checker, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err == f"error ({command}): line 4: rename of directory 'd' is not modeled, only files\n"
    assert not (tmp_path / "o").exists()


def _posix_trace_file(tmp_path, records):
    frames = [{"function": "main", "file": "a.c", "line": 1}]
    trace_file = tmp_path / "t.jsonl"
    lines = [json.dumps({"seq": seq, "tid": 0, "kind": kind, "args": args, "backtrace": frames})
             for seq, (kind, args) in enumerate(records, start=1)]
    trace_file.write_text("\n".join([_HEADER, *lines]) + "\n")
    return trace_file


@pytest.mark.parametrize("command", ["analyze", "test", "exhaustive"])
def test_an_inline_payload_of_another_length_exits_2_at_parse(tmp_path, capsys, command):
    """``analyze`` found no edge among these writes (w2 claims byte 4095
    only) and ``exhaustive`` reported 16 schedules and 8 states, though the
    two orders of w2 and w3 left byte 4096 as ``dd`` or ``bb``."""
    def write(offset, data):
        return "write", {"path": "a", "offset": offset, "length": 1, "digest": "0" * 64, "data": data}

    trace_file = _posix_trace_file(tmp_path, [write(8192, "01"), write(4095, "aabbcc"), write(4096, "dd")])
    checker = ["--checker", checker_arg("always_ok.py")] if command == "test" else []
    assert run(command, "--trace", trace_file, *checker, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error ({command}): line 3: write payload is 3 bytes, declared 1\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["analyze", "test", "exhaustive"])
@pytest.mark.parametrize("kind, args", [("unlink", {"path": "a"}), ("rename", {"path": "a", "dst": "c"})])
def test_unlinking_or_renaming_no_live_file_exits_2_at_parse(tmp_path, capsys, command, kind, args):
    """``analyze`` exited 0 on these and ``test`` and ``exhaustive`` exited 2
    only at replay, with "unlink of nonexistent file 'a' (op 2)"."""
    trace_file = _posix_trace_file(tmp_path, [("create", {"path": "b"}), (kind, args)])
    checker = ["--checker", checker_arg("always_ok.py")] if command == "test" else []
    assert run(command, "--trace", trace_file, *checker, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error ({command}): line 3: {kind} arg 'path' names no file, got 'a'\n"
    assert not (tmp_path / "o").exists()


def test_replaying_an_unlink_without_its_creator_exits_2(tmp_path, capsys):
    """A hand-made schedule can still leave out the op that made a file."""
    trace_file = _posix_trace_file(tmp_path, [("create", {"path": "a"}), ("unlink", {"path": "a"})])
    schedule_file = tmp_path / "schedule.json"
    schedule_file.write_text(
        json.dumps({"behavior_id": "b", "mode": "POSIX", "context_seqs": [], "applied_seqs": [2]})
    )
    code = run("replay", "--trace", trace_file, "--schedule", schedule_file, "--out", tmp_path / "ro")
    assert code == 2
    assert capsys.readouterr().err == "error (replay): unlink of nonexistent file 'a' (op 2)\n"
    assert not (tmp_path / "ro" / "replayed").exists()


_RECORD = (
    '{"seq": 1, "tid": 0, "kind": "create", "args": {"path": "f"}, '
    '"backtrace": [{"function": "main", "file": "a.c", "line": 1}]}'
)
_TOO_LONG = "9" * 5_000  # past the 4,300-digit int-string limit
_TOO_DEEP = "[" * 200_000


@pytest.mark.parametrize(
    "command, trace, schedule, message",
    [
        ("analyze", _HEADER + "\n" + _RECORD.replace('"seq": 1', '"seq": ' + _TOO_LONG), None, "line 2: record"),
        ("analyze", _HEADER + "\n" + _RECORD.replace('"line": 1', '"line": ' + _TOO_LONG), None, "line 2: record"),
        ("analyze", _HEADER.replace('"version": 1', '"version": ' + _TOO_LONG), None, "line 1: header"),
        ("analyze", _HEADER + "\n" + _TOO_DEEP, None, "line 2: record"),
        ("replay", _HEADER + "\n" + _RECORD, _TOO_DEEP, "is not JSON"),
    ],
    ids=["long-seq", "long-frame-line", "long-version", "deep-record", "deep-schedule"],
)
def test_json_past_the_int_or_recursion_limit_exits_2(tmp_path, capsys, command, trace, schedule, message):
    """An int of more than 4,300 digits (``ValueError``) and 200,000 nested
    arrays (``RecursionError``) escaped as tracebacks, exit 1."""
    trace_file, schedule_file = tmp_path / "t.jsonl", tmp_path / "schedule.json"
    trace_file.write_text(trace + "\n")
    extra = []
    if schedule is not None:
        schedule_file.write_text(schedule)
        extra = ["--schedule", schedule_file]
    assert run(command, "--trace", trace_file, *extra, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ({command}): ") and message in err and "Traceback" not in err


_NUL_RECORD = _RECORD.replace('"path": "f"', '"path": "a\\u0000b"')


@pytest.mark.parametrize(
    "command, trace, program, config, message",
    [
        ("analyze", _NUL_RECORD, None, "", "line 2: create arg 'path' must not hold a NUL byte, got 'a\\x00b'"),
        ("test", _NUL_RECORD, None, "", "line 2: create arg 'path' must not hold a NUL byte, got 'a\\x00b'"),
        ("exhaustive", _NUL_RECORD, None, "", "line 2: create arg 'path' must not hold a NUL byte, got 'a\\x00b'"),
        ("test", None, 'fn main {\n  write a\0b "x" @0\n}\n', "", "line 2: write arg 'path' must not hold a NUL"),
        ("analyze", None, "fn main {\n}\n", "out = o\0x\n", "out must not hold a NUL byte, got 'o\\x00x'"),
        ("test", None, "fn main {\n}\n", "checker = /bin/true a\0b\n",
         "checker must not hold a NUL byte, got '/bin/true a\\x00b'"),
    ],
    ids=["trace-analyze", "trace-test", "trace-exhaustive", "dsl-test", "config-out", "config-checker"],
)
def test_a_nul_byte_in_a_path_or_command_exits_2(tmp_path, capsys, command, trace, program, config, message):
    """Each ended in ``ValueError: embedded null byte`` and exit 1: the
    trace and DSL paths in ``materialize``, ``out`` when the output
    directory was made, and the checker when it was spawned."""
    trace_file, program_file, config_file = tmp_path / "t.jsonl", tmp_path / "p.dsl", tmp_path / "cfg"
    config_file.write_text(config)
    argv = [command, "--config", config_file]
    if trace is not None:
        trace_file.write_text(_HEADER + "\n" + trace + "\n")
        argv += ["--trace", trace_file]
    else:
        program_file.write_text(program)
        argv += ["--mode", "POSIX", "--dsl", program_file]
    if command != "analyze" and "checker" not in config:
        argv += ["--checker", checker_arg("always_ok.py")]
    if "out" not in config:
        argv += ["--out", tmp_path / "o"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ({command}): ") and message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# Values a mutated trace field takes: wrong types, out-of-range numbers,
# the non-finite numbers json.loads accepts, and paths that leave the image.
_JUNK = [None, True, -1, 0, 2**64, 1.5, 1e308, math.inf, -math.inf, math.nan,
         "", "x", "../x", "/", [], {}, [1], {"a": 1}]


def _mutate(rng, record):
    """``record`` with one field, at any depth, replaced by junk or
    removed."""
    record = json.loads(json.dumps(record))
    holder = record
    while True:
        keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
        key = rng.choice(keys)
        inner = holder[key]
        if isinstance(inner, (dict, list)) and inner and rng.random() < 0.7:
            holder = inner
            continue
        if isinstance(holder, dict) and rng.random() < 0.2:
            del holder[key]
        else:
            holder[key] = rng.choice(_JUNK)
        return record


@pytest.mark.parametrize("seed", range(3))
def test_mutated_traces_exit_0_1_or_2(tmp_path, capsys, seed):
    """A seeded fuzz: one field of one record of a random trace is
    mutated; ``analyze`` and ``exhaustive`` must end with an exit status,
    never an exception."""
    rng = random.Random(seed)
    makers = [random_posix_trace, random_nested_posix_trace, random_mmio_trace, random_annotated_mmio_trace]
    trace_file = tmp_path / "t.jsonl"
    codes = Counter()
    for _ in range(150):
        trace = rng.choice(makers)(rng, 6, threads=rng.randint(1, 3))
        lines = serialize_trace(trace).decode().splitlines()
        index = rng.randrange(len(lines))
        lines[index] = json.dumps(_mutate(rng, json.loads(lines[index])))
        trace_file.write_text("\n".join(lines) + "\n")
        for command in ("analyze", "exhaustive"):
            code = run(command, "--trace", trace_file, "--budget", 200, "--out", tmp_path / "o")
            assert code in (0, 1, 2), (command, lines[index])
            codes[code] += 1
    capsys.readouterr()
    assert codes[0] and codes[2]


# Words a mutated program line takes: keywords, braces, addresses, sizes
# and numbers out of range, broken and unterminated strings and escapes.
_DSL_JUNK = ["", "fn", "{", "}", "fn f {", "write", "store", "flush", "fence", "rename", "fsync", "sync",
             "@", "@-1", "@0", "@99999999999999999999", "0", "-1", "64", "1e9", "nan", '"', '""', '"\\x"',
             '"\\xZZ"', '"\\', "a.b", "x.y.z", "é", "\t", "#"]
# Values a random config key takes, valid for some keys and junk for others.
_CONFIG_JUNK = ["", "0", "-3", "1", "7", "64", "4096", "1e3", "inf", "nan", "x", "true", "off",
                "POSIX", "mmio", "full", "innermost"]


def _mutate_program(rng, text):
    """``text`` with one line removed or repeated, or one word of a line
    replaced by junk, cut short or removed."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    roll = rng.random()
    if roll < 0.2:
        del lines[i]
    elif roll < 0.35:
        lines.insert(i, lines[rng.randrange(len(lines))])
    else:
        words = lines[i].split(" ")
        j = rng.randrange(len(words))
        if roll < 0.8:
            words[j] = rng.choice(_DSL_JUNK)
        elif roll < 0.9:
            words[j] = words[j][: rng.randrange(len(words[j]) + 1)]
        else:
            del words[j]
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def _random_config(rng):
    """A config file of random known and unknown keys, junk values, lines
    without ``=`` and comments."""
    keys = sorted(key for key, *_ in _SETTINGS) + ["nonsense", ""]
    lines = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.8:
            lines.append(f"{rng.choice(keys)} = {rng.choice(_CONFIG_JUNK)}")
        elif roll < 0.9:
            lines.append(rng.choice(_CONFIG_JUNK))
        else:
            lines.append("# " + rng.choice(_CONFIG_JUNK))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(2))
def test_mutated_programs_and_configs_exit_0_1_or_2(tmp_path, capsys, seed):
    """A seeded fuzz: a shipped program with one to three mutated lines,
    run with a random config file, with or without ``--mode``, through
    ``synth`` and ``analyze``; both must end with an exit status, never
    an exception."""
    rng = random.Random(seed)
    programs = [path.read_text() for path in sorted(WORKLOADS.glob("*.dsl"))]
    program, config, out = tmp_path / "p.dsl", tmp_path / "cfg", tmp_path / "o"
    codes = Counter()
    for _ in range(120):
        text = rng.choice(programs)
        for _ in range(rng.randint(1, 3)):
            text = _mutate_program(rng, text)
        program.write_text(text, encoding="utf-8")
        config.write_text(_random_config(rng), encoding="utf-8")
        mode = rng.choice([[], ["--mode", "POSIX"], ["--mode", "MMIO"]])
        for command in (["synth", "-o", tmp_path / "t.jsonl"], ["analyze", "--out", out]):
            code = run(*command, *mode, "--config", config, "--dsl", program)
            assert code in (0, 1, 2), (command[0], text, config.read_text())
            codes[code] += 1
    capsys.readouterr()
    assert codes[0] and codes[2]


_TEXT = ["", "a", "key", " ", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "漢", "\u2028", "\U0001f600", "\ud800"]


def _random_value(rng, depth=0):
    """A random JSON report value: nested dicts with string keys, lists and
    tuples (homogeneous or mixed), strings, ints, bools and None."""
    roll = rng.random()
    if depth < 4 and roll < 0.3:
        items = [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    if depth < 4 and roll < 0.5:
        return {_random_text(rng): _random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if roll < 0.6:
        return [rng.randint(-(2**70), 2**70) for _ in range(rng.randint(1, 6))]
    if roll < 0.7:
        return [_random_text(rng) for _ in range(rng.randint(1, 4))]
    return rng.choice([
        _random_text(rng), rng.randint(-3, 3), rng.randint(-(2**70), 2**70), True, False, None,
        [True, 1], [1, "1"], [[]], [{}], {"": []},
    ])


def _random_text(rng):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 5)))


def rendered(value) -> str:
    """The report text of ``value``: the chunks ``report_json`` writes, joined."""
    chunks: list[str] = []
    report_json(value, write=chunks.append)
    return "".join(chunks)


def test_report_writer_matches_json_dumps_indent_2():
    rng = random.Random(11)
    for _ in range(2000):
        value = _random_value(rng)
        assert rendered(value) == json.dumps(value, indent=2)


def test_report_writer_renders_each_int_of_its_long_lists_once_per_call(monkeypatch):
    """Each call keeps its own memo of int texts, read for lists of more
    than 8 exact ints.  A bool hashes equal to 1 and 0, so ``True`` next to
    a memoized ``1`` must still read ``true``."""
    seqs = [-(2**70), -1, 0, 1, 7, 2**64 - 1, 2**64, 2**64 + 1, 10**30]
    first = {
        "states": {str(i): {"applied_seqs": seqs[i % 3:] + [7] * 4, "seq": 7, "flag": True} for i in range(20)},
        "bools": [[True, 1], [True, True], [1, True], True, 1, False, 0, [True] * 12, [False] * 12, [True, 0] * 6],
        "mixed": [7, "7", [1] * 9, [0] * 9, 7, [True, 1] * 9],
        "span": [3, 4],
    }
    second = {"seqs": [[0] * 9, [True] * 9, [1, 0] * 6], "one": 1, "true": True}
    misses, memos = [], []

    class Counting(cli._IntTexts):
        def __init__(self):
            memos.append(weakref.ref(self))

        def __missing__(self, value):
            misses.append(value)
            return super().__missing__(value)

    monkeypatch.setattr(cli, "_IntTexts", Counting)
    assert rendered(first) == json.dumps(first, indent=2)
    assert sorted(misses) == sorted({*seqs, 0, 1})
    misses.clear()
    assert rendered(second) == json.dumps(second, indent=2)
    assert sorted(misses) == [0, 1]
    assert len(memos) == 2 and all(memo() is None for memo in memos)


def test_mode_mismatch_exits_2(tmp_path):
    trace_file = tmp_path / "t.jsonl"
    run("synth", "--mode", "MMIO", "--dsl", WORKLOADS / "entry_insert.dsl", "-o", trace_file)
    assert run("analyze", "--mode", "POSIX", "--trace", trace_file, "--out", tmp_path / "o") == 2


def test_test_buggy_exits_1_and_reports(tmp_path):
    out = tmp_path / "out"
    code = run(
        "test",
        "--mode", "POSIX",
        "--dsl", WORKLOADS / "current_update_buggy.dsl",
        "--checker", checker_arg("current_pointer.py"),
        "--out", out,
    )
    assert code == 1
    bugs = json.loads((out / "bugs.json").read_text())["bugs"]
    assert len(bugs) == 1
    assert any(o["kind"] == "rename" for o in bugs[0]["omitted"])
    stats = json.loads((out / "stats.json").read_text())
    assert stats["schedules_tested"] > 0
    assert stats["correlated_states"][bugs[0]["id"]] >= 1


def test_test_fixed_exits_0(tmp_path):
    code = run(
        "test",
        "--mode", "POSIX",
        "--dsl", WORKLOADS / "current_update_fixed.dsl",
        "--checker", checker_arg("current_pointer.py"),
        "--out", tmp_path / "out",
    )
    assert code == 0
    bugs = json.loads((tmp_path / "out" / "bugs.json").read_text())["bugs"]
    assert bugs == []


@pytest.mark.parametrize(
    "t1_file, t2_file, last",
    [
        ("f2", "f1", op(3, "rename", {"path": "f1", "dst": "f2"}, tid=1)),
        ("g", "f3", op(3, "unlink", {"path": "f3"}, tid=1)),
    ],
)
def test_test_replays_no_state_without_another_threads_op_it_needs(tmp_path, t1_file, t2_file, last):
    """T1 writes a file, T2 writes the file T1 then renames or unlinks: no
    tested state of T1's behavior holds the rename or unlink without T2's
    write, which the model orders before it."""
    trace = posix_trace(
        [op(1, "write", write_args(t1_file, b"\x01"), tid=1), op(2, "write", write_args(t2_file, b"\x02"), tid=2), last]
    )
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_bytes(serialize_trace(trace))
    assert run("test", "--trace", trace_file, "--checker", "true", "--out", tmp_path / "out") == 0


def test_test_empty_trace_reports_no_bugs(tmp_path):
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text('{"app": "x", "mode": "POSIX", "version": 1}\n')
    out = tmp_path / "out"
    code = run(
        "test", "--trace", trace_file,
        "--checker", checker_arg("always_ok.py"), "--out", out,
    )
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["representatives_tested"] == 0


def test_test_without_checker_exits_2(tmp_path):
    code = run(
        "test", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl",
        "--out", tmp_path / "out",
    )
    assert code == 2


def test_test_with_missing_checker_exits_2(tmp_path):
    code = run(
        "test", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl",
        "--checker", "/no/such/checker",
        "--out", tmp_path / "out",
    )
    assert code == 2


def test_blank_or_unquoted_checker_exits_2(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"app": "x", "mode": "POSIX", "version": 1}\n')
    schedule = tmp_path / "schedule.json"
    schedule.write_text(
        '{"behavior_id": "b", "mode": "POSIX", "context_seqs": [], "applied_seqs": []}'
    )
    for source in (["--dsl", WORKLOADS / "two_writes.dsl"], ["--trace", empty]):
        for command, extra in (("test", []), ("exhaustive", []), ("replay", ["--schedule", schedule])):
            for checker in (" ", "'unclosed", "/no/such/checker"):
                code = run(
                    command, "--mode", "POSIX", *source, *extra,
                    "--checker", checker, "--out", tmp_path / "out",
                )
                assert code == 2, (command, source, checker)


def test_exhaustive_two_writes_four_states(tmp_path):
    out = tmp_path / "out"
    code = run("exhaustive", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl", "--out", out)
    assert code == 0
    report = json.loads((out / "states.json").read_text())
    assert report["distinct_states"] == 4
    assert not report["partial_coverage"]


def test_exhaustive_makes_a_scratch_directory_only_for_a_checker(tmp_path, monkeypatch):
    made = []
    real = tempfile.TemporaryDirectory

    def counted(*args, **kwargs):
        made.append(args or kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryDirectory", counted)
    program = ["--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl"]
    assert run("exhaustive", *program, "--out", tmp_path / "a") == 0
    assert made == []
    assert run("exhaustive", *program, "--checker", checker_arg("always_ok.py"), "--out", tmp_path / "b") == 0
    assert len(made) == 1


def test_exhaustive_chain_of_three(tmp_path):
    dsl = tmp_path / "chain.dsl"
    dsl.write_text(
        'fn main {\n  write f "a" @0\n  write f "b" @0\n  write f "c" @0\n}\n'
    )
    out = tmp_path / "out"
    assert run("exhaustive", "--mode", "POSIX", "--dsl", dsl, "--out", out) == 0
    report = json.loads((out / "states.json").read_text())
    assert report["distinct_states"] == 4


def test_two_spellings_of_a_rename_source_are_one_file(tmp_path):
    dsl = tmp_path / "rename.dsl"
    dsl.write_text("fn main {\n  create a\n  rename ./a b\n}\n")
    for command in ("test", "exhaustive"):
        out = tmp_path / command
        assert run(command, "--mode", "POSIX", "--dsl", dsl, "--checker", checker_arg("always_ok.py"), "--out", out) == 0


def test_two_spellings_of_a_written_file_share_its_blocks(tmp_path):
    dsl = tmp_path / "rewrite.dsl"
    dsl.write_text('fn main {\n  write a "1" @0\n  write ./a "2" @0\n}\n')
    out = tmp_path / "out"
    assert run("exhaustive", "--mode", "POSIX", "--dsl", dsl, "--out", out) == 0
    report = json.loads((out / "states.json").read_text())
    # The second write overwrites the first: nothing, "1", "2".
    assert (report["schedules_tested"], report["distinct_states"]) == (3, 3)


def _one_op_trace(tmp_path, mode, kind, args):
    trace_file = tmp_path / "t.jsonl"
    record = {"seq": 1, "tid": 0, "kind": kind, "args": args,
              "backtrace": [{"function": "main", "file": "a.c", "line": 1}]}
    trace_file.write_text(json.dumps({"app": "x", "mode": mode, "version": 1}) + "\n" + json.dumps(record) + "\n")
    return trace_file


_WIDE_OPS = {
    "write": ("POSIX", "write", {"path": "f", "offset": 0, "length": 32768, "digest": "0" * 64}, "--block-size"),
    "store": ("MMIO", "store", {"addr": 0, "length": 32768, "digest": "0" * 64}, "--cache-line-size"),
}


@pytest.mark.parametrize("name", sorted(_WIDE_OPS))
def test_op_covering_too_many_units_exits_2(tmp_path, capsys, name):
    mode, kind, args, flag = _WIDE_OPS[name]
    trace_file = _one_op_trace(tmp_path, mode, kind, args)
    assert run("analyze", "--trace", trace_file, "--out", tmp_path / "ok") == 0
    assert run("analyze", "--trace", trace_file, flag, 1, "--out", tmp_path / "wide") == 2
    assert "op 1 covers 32768" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, kind, args",
    [
        ("POSIX", "write", {"path": "f", "offset": 1, "length": (1 << 26) - 1, "digest": "0" * 64}),
        ("MMIO", "store", {"addr": 63, "length": 1 << 20, "digest": "0" * 64}),
        ("MMIO", "flush", {"addr": 63, "length": 1 << 20}),
    ],
    ids=["write", "store", "flush"],
)
def test_widest_op_at_the_default_sizes_stays_valid(tmp_path, mode, kind, args):
    assert run("analyze", "--trace", _one_op_trace(tmp_path, mode, kind, args), "--out", tmp_path / "out") == 0


def test_exhaustive_empty_trace_single_state(tmp_path):
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text('{"app": "x", "mode": "POSIX", "version": 1}\n')
    out = tmp_path / "out"
    assert run("exhaustive", "--trace", trace_file, "--out", out) == 0
    report = json.loads((out / "states.json").read_text())
    assert report["distinct_states"] == 1


@pytest.mark.parametrize("exit_status, verdict", [(0, "Consistent"), (1, "Inconsistent")])
def test_exhaustive_checks_the_one_state_of_a_trace_without_nodes(tmp_path, exit_status, verdict):
    """A trace whose only op is an ``open`` has no graph node and one crash
    state, the empty image.  It is named by its digest and checked like any
    other state, so a checker that rejects it makes a bug."""
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_bytes(serialize_trace(posix_trace([op(1, "open", {"path": "f"})])))
    script = tmp_path / "checker.py"
    script.write_text(f"print('checked')\nraise SystemExit({exit_status})\n")
    out = tmp_path / "out"
    assert run("exhaustive", "--trace", trace_file, "--checker", f"{sys.executable} {script}", "--out", out) == exit_status
    report = json.loads((out / "states.json").read_text())
    assert (report["schedules_tested"], report["distinct_states"]) == (1, 1)
    assert list(report["states"]) == [FsImage().digest()]
    assert report["states"][FsImage().digest()]["verdict"] == verdict
    assert [bug["oracle_output"] for bug in report["bugs"]] == ["checked\n"] * exit_status


def test_exhaustive_with_checker_finds_same_bug(tmp_path):
    out = tmp_path / "out"
    code = run(
        "exhaustive",
        "--mode", "POSIX",
        "--dsl", WORKLOADS / "current_update_buggy.dsl",
        "--checker", checker_arg("current_pointer.py"),
        "--out", out,
    )
    assert code == 1
    report = json.loads((out / "states.json").read_text())
    assert len(report["bugs"]) >= 1


def test_exhaustive_states_and_bugs_are_replayable(tmp_path, capsys):
    program = ["--mode", "POSIX", "--dsl", WORKLOADS / "current_update_buggy.dsl"]
    checker = ["--checker", checker_arg("current_pointer.py")]
    out = tmp_path / "out"
    assert run("exhaustive", *program, *checker, "--out", out) == 1
    report = json.loads((out / "states.json").read_text())
    trace = load_workload("current_update_buggy.dsl", "POSIX")
    for digest, entry in report["states"].items():
        assert replay(schedule_from_json(entry, trace)).digest() == digest
    assert report["bugs"]
    capsys.readouterr()
    for i, bug in enumerate(report["bugs"]):
        assert [o["seq"] for o in bug["applied"]] == sorted(bug["schedule"]["applied_seqs"])
        schedule_file = tmp_path / f"bug{i}.json"
        schedule_file.write_text(json.dumps(bug))
        code = run("replay", *program, *checker, "--schedule", schedule_file, "--out", tmp_path / "ro")
        assert code == 1
        assert capsys.readouterr().out == f"replay: Inconsistent\n{bug['oracle_output'].strip()}\n"


@pytest.mark.parametrize("prefix", [[], ["env"]], ids=["fork", "subprocess"])
def test_non_utf8_checker_output_is_reported(tmp_path, prefix):
    badout = tmp_path / "badout.py"
    badout.write_text("import sys\nsys.stdout.buffer.write(b'\\xff')\nsys.exit(1)\n")
    checker = shlex.join([*prefix, sys.executable, str(badout)])
    out = tmp_path / "out"
    code = run("test", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl", "--checker", checker, "--out", out)
    assert code == 1
    bugs = json.loads((out / "bugs.json").read_text())["bugs"]
    assert bugs and {bug["oracle_output"] for bug in bugs} == {"\\xff"}


def test_exhaustive_budget_reports_partial(tmp_path):
    out = tmp_path / "out"
    code = run(
        "exhaustive", "--mode", "POSIX", "--dsl", WORKLOADS / "current_update_buggy.dsl",
        "--budget", 5, "--out", out,
    )
    assert code == 0
    report = json.loads((out / "states.json").read_text())
    assert report["partial_coverage"] is True


def test_replay_reproduces_bug_verdict(tmp_path):
    out = tmp_path / "out"
    run(
        "test",
        "--mode", "POSIX",
        "--dsl", WORKLOADS / "current_update_buggy.dsl",
        "--checker", checker_arg("current_pointer.py"),
        "--out", out,
    )
    bugs = json.loads((out / "bugs.json").read_text())["bugs"]
    schedule_file = tmp_path / "schedule.json"
    schedule_file.write_text(json.dumps(bugs[0]["schedule"]))
    code = run(
        "replay",
        "--mode", "POSIX",
        "--dsl", WORKLOADS / "current_update_buggy.dsl",
        "--schedule", schedule_file,
        "--checker", checker_arg("current_pointer.py"),
        "--out", tmp_path / "replay-out",
    )
    assert code == 1


def test_replay_without_checker_materializes(tmp_path):
    out = tmp_path / "out"
    run(
        "test", "--mode", "POSIX", "--dsl", WORKLOADS / "current_update_buggy.dsl",
        "--checker", checker_arg("current_pointer.py"), "--out", out,
    )
    bugs = json.loads((out / "bugs.json").read_text())["bugs"]
    schedule_file = tmp_path / "schedule.json"
    schedule_file.write_text(json.dumps(bugs[0]))  # bug object also accepted
    code = run(
        "replay", "--mode", "POSIX", "--dsl", WORKLOADS / "current_update_buggy.dsl",
        "--schedule", schedule_file, "--out", tmp_path / "ro",
    )
    assert code == 0
    assert (tmp_path / "ro" / "replayed" / "CURRENT").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"behavior_id": "b", "mode": "POSIX", "context_seqs": [], "applied_seqs": [99]}',
        '{"behavior_id": "b", "mode": "POSIX", "context_seqs": [[1]], "applied_seqs": []}',
        '{"behavior_id": "b", "mode": "POSIX", "context_seqs": [], "applied_seqs": 7}',
        '{"behavior_id": "b", "mode": "POSIX", "context_seqs": []}',
        '{"behavior_id": "b", "mode": "MMIO", "context_seqs": [], "applied_seqs": [1, 2]}',
        '{"behavior_id": ',
        "5",
        '{"schedule": []}',
        b"\xff\xfe",
        None,
    ],
    ids=[
        "unknown-seq", "unhashable-seq", "seqs-not-a-list", "missing-key",
        "wrong-mode", "invalid-json", "not-an-object", "bug-without-schedule",
        "not-utf8", "missing-file",
    ],
)
def test_malformed_replay_schedule_exits_2(tmp_path, capsys, text):
    schedule_file = tmp_path / "schedule.json"
    if text is not None:
        schedule_file.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = run(
        "replay", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl",
        "--schedule", schedule_file, "--out", tmp_path / "ro",
    )
    assert code == 2
    assert "error (replay)" in capsys.readouterr().err
    assert not (tmp_path / "ro" / "replayed").exists()


@pytest.mark.parametrize(
    "context, applied",
    [([], [True]), ([], [1.0]), ([], [2, 2]), ([1], [1, 2])],
    ids=["true", "float", "applied-twice", "context-and-applied"],
)
def test_replay_takes_each_seq_once_and_as_an_exact_int(tmp_path, capsys, context, applied):
    """JSON ``true`` and ``1.0`` used to replay as seq 1, writing out
    ``f1``, and ``[2, 2]`` applied the second write twice."""
    schedule_file = tmp_path / "schedule.json"
    schedule_file.write_text(
        json.dumps({"behavior_id": "b", "mode": "POSIX", "context_seqs": context, "applied_seqs": applied})
    )
    code = run(
        "replay", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl",
        "--schedule", schedule_file, "--out", tmp_path / "ro",
    )
    assert code == 2
    assert "distinct seqs" in capsys.readouterr().err
    assert not (tmp_path / "ro" / "replayed").exists()


@pytest.mark.parametrize("launcher", [sys.executable, f"env {sys.executable}"], ids=["fork", "subprocess"])
@pytest.mark.parametrize("command", ["test", "exhaustive"])
def test_a_checker_that_puts_a_symlink_at_its_scratch_does_not_stop_the_run(tmp_path, command, launcher):
    """The scratch directory used to be reset with ``shutil.rmtree``, so
    the next state died with ``OSError: Cannot call rmtree on a symbolic
    link``; the symlink is now replaced, not followed."""
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "keep").write_text("kept")
    script = tmp_path / "relink.py"
    script.write_text(
        "import os, shutil, sys\n"
        "assert os.path.isdir(sys.argv[1]) and not os.path.islink(sys.argv[1])\n"
        f"shutil.rmtree(sys.argv[1])\nos.symlink({str(elsewhere)!r}, sys.argv[1])\n"
    )
    out = tmp_path / "out"
    code = run(command, "--mode", "POSIX", "--dsl", WORKLOADS / "fig3.dsl",
               "--checker", f"{launcher} {script}", "--out", out)
    assert code == 0
    if command == "test":
        assert json.loads((out / "stats.json").read_text())["distinct_states"] > 1
    else:
        assert json.loads((out / "states.json").read_text())["distinct_states"] > 1
    assert os.listdir(elsewhere) == ["keep"] and (elsewhere / "keep").read_text() == "kept"


@pytest.mark.parametrize("checker", [[], ["--checker", checker_arg("always_ok.py")]], ids=["materialize", "checker"])
def test_replay_refuses_a_symlinked_output_directory(tmp_path, capsys, checker):
    """``replay`` used to die with ``OSError: Cannot call rmtree on a
    symbolic link`` when ``<out>/replayed`` was a symlink to a directory."""
    target = tmp_path / "target"
    target.mkdir()
    (target / "keep").write_text("kept")
    out = tmp_path / "ro"
    out.mkdir()
    (out / "replayed").symlink_to(target)
    schedule_file = tmp_path / "schedule.json"
    schedule_file.write_text('{"behavior_id": "b", "mode": "POSIX", "context_seqs": [], "applied_seqs": [1]}')
    code = run("replay", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl",
               "--schedule", schedule_file, *checker, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error (replay): cannot create output {out / 'replayed'}: it is a symbolic link\n"
    assert os.listdir(target) == ["keep"]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg"
    config.write_text(
        "mode = POSIX\nbudget = 7\ndbscan_eps = 3\n"
        "block_size = 512\ncache_line_size = 128\n"
        "split_writes_at_block_boundary = off\n"
        "static_key = innermost\n# comment\n"
    )
    out = tmp_path / "out"
    code = run(
        "analyze", "--config", config, "--dsl", WORKLOADS / "two_writes.dsl",
        "--out", out, "--eps", 20,
    )
    assert code == 0


def test_config_whole_file_conflicts_change_the_graph(tmp_path):
    # same file, different blocks: per-block leaves the writes unordered,
    # whole-file ordering adds the edge
    dsl = tmp_path / "w.dsl"
    dsl.write_text('fn main {\n  write f "a" @8192\n  write f "b" @0\n}\n')
    out_a = tmp_path / "a"
    run("analyze", "--mode", "POSIX", "--dsl", dsl, "--out", out_a)
    out_b = tmp_path / "b"
    run("analyze", "--mode", "POSIX", "--dsl", dsl, "--no-block-split", "--out", out_b)
    edges_a = json.loads((out_a / "groups.json").read_text())["counts"]["graph_edges"]
    edges_b = json.loads((out_b / "groups.json").read_text())["counts"]["graph_edges"]
    assert edges_a == 0
    assert edges_b == 1


def test_bad_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("nonsense = 1\n")
    assert run("analyze", "--config", config, "--dsl", WORKLOADS / "two_writes.dsl") == 2
    for text in ("budget = abc", "dbscan_eps = x", "dbscan_min_pts = 1.5", "timeout = abc",
                 "timeout = 0", "timeout = nan", "budget = 0"):
        config.write_text(f"mode = POSIX\n{text}\n")
        code = run("analyze", "--config", config, "--dsl", WORKLOADS / "two_writes.dsl",
                   "--out", tmp_path / "out")
        assert code == 2, text
        assert "must be a positive" in capsys.readouterr().err, text
    missing = tmp_path / "no-such.cfg"
    assert run("analyze", "--config", missing, "--dsl", WORKLOADS / "two_writes.dsl") == 2
    assert "cannot read config file" in capsys.readouterr().err


# A well-formed value of each setting, as its config file spells it.
_VALID = {
    "mode": "mmio", "out": "o", "block_size": "512", "cache_line_size": "128",
    "split_writes_at_block_boundary": "off", "dbscan_eps": "3", "dbscan_min_pts": "2", "budget": "7",
    "timeout": "2.5", "checker": f"{sys.executable} 'a b.py' -q", "static_key": "innermost",
}
# Malformed values of each setting; a flag's argparse type or choices
# reject some of them before they reach the setting's parser.
_MALFORMED = {
    "mode": ["x"], "out": [""], "block_size": ["abc", "0", "3"], "cache_line_size": ["x", "96"],
    "split_writes_at_block_boundary": ["maybe"], "dbscan_eps": ["1.5", "0"], "dbscan_min_pts": ["-1"],
    "budget": ["abc", "0"], "timeout": ["nan", "0", "1e12"], "checker": ["", " ", "'unclosed"],
    "static_key": ["outer"],
}


def _parsed(argv, config=None):
    args = make_parser().parse_args(["analyze", *map(str, argv)] + (["--config", str(config)] if config else []))
    return build_run_config(args)


@pytest.mark.parametrize("key", [key for key, *_ in _SETTINGS])
def test_a_flag_and_its_config_key_give_the_same_run_config(tmp_path, key):
    assert list(_VALID) == [row[0] for row in _SETTINGS]
    _, flag, options, _ = next(row for row in _SETTINGS if row[0] == key)
    value = options.get("const", _VALID[key])
    config = tmp_path / "cfg"
    config.write_text(f"{key} = {value}\n")
    by_flag = _parsed([flag] if "const" in options else [flag, value])
    assert by_flag == _parsed([], config)
    assert by_flag != _parsed([])


@pytest.mark.parametrize("key", [key for key, *_ in _SETTINGS])
def test_a_malformed_setting_exits_2_naming_its_key(tmp_path, capsys, monkeypatch, key):
    """From the config file, and from the flag when argparse passes the
    value on, the message starts with the key; a value argparse refuses
    exits 2 with argparse's message naming the flag.  Nothing is written:
    ``--out ""`` and ``out =`` used to put groups.json and dot/ in the
    working directory."""
    monkeypatch.chdir(tmp_path)
    _, flag, options, _ = next(row for row in _SETTINGS if row[0] == key)
    config = tmp_path / "cfg"
    program = ["--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl"]
    for raw in _MALFORMED[key]:
        config.write_text(f"{key} = {raw}\n")
        argvs = [["--config", config]] if "const" in options else [["--config", config], [flag, raw]]
        for argv in argvs:
            out = ["--out", tmp_path / "o"] if key != "out" else []
            try:
                code = run("analyze", *([] if key == "mode" else program), *out, *argv)
            except SystemExit as exc:
                assert argv[0] == flag and exc.code == 2, (argv, raw)
                assert f"argument {flag}: invalid" in capsys.readouterr().err
                continue
            assert code == 2, (argv, raw)
            err = capsys.readouterr().err
            assert err.startswith(f"error (analyze): {key} "), err
    assert [path.name for path in tmp_path.iterdir()] == ["cfg"]


@pytest.mark.parametrize("command", ["test", "exhaustive", "replay"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_timeout_beyond_what_the_oracle_can_wait_exits_2(tmp_path, capsys, command, source):
    """``--timeout 1e7`` used to pass validation and then die in
    ``subprocess``'s poll with ``OverflowError: timeout is too large``."""
    schedule = tmp_path / "schedule.json"
    schedule.write_text("{}")
    for raw in (str(MAX_ORACLE_TIMEOUT + 1), "1e7", "1e12"):
        argv = [command, "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl", "--checker", "true",
                "--out", tmp_path / "out"]
        if source == "flag":
            argv += ["--timeout", raw]
        else:
            config = tmp_path / "cfg"
            config.write_text(f"timeout = {raw}\n")
            argv += ["--config", config]
        if command == "replay":
            argv += ["--schedule", schedule]
        assert run(*argv) == 2, raw
        err = capsys.readouterr().err
        assert f"timeout must be a positive float of at most {MAX_ORACLE_TIMEOUT}," in err, err


@pytest.mark.parametrize(
    "checker, path",
    [(checker_arg("always_ok.py"), "fork"), ("true", "subprocess")],
    ids=["fork", "subprocess"],
)
def test_largest_timeout_still_runs_a_checker(tmp_path, checker, path):
    assert simulate.PreparedChecker(shlex.split(checker), tmp_path).forkable() == (path == "fork")
    out = tmp_path / "out"
    code = run("test", "--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl", "--checker", checker,
               "--timeout", MAX_ORACLE_TIMEOUT, "--out", out)
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["distinct_states"] == 4 and stats["oracle_errors"] == 0


@pytest.mark.parametrize(
    "source, content",
    [
        ("--trace", None),
        ("--trace", b"\xff\xfe{}"),
        ("--dsl", None),
        ("--dsl", b"fn main { sync }\n\xff\xfe"),
    ],
    ids=["missing-trace", "non-utf8-trace", "missing-dsl", "non-utf8-dsl"],
)
def test_unreadable_input_exits_2(tmp_path, capsys, source, content):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    for argv in (("analyze",), ("exhaustive",), ("synth",)):
        if argv[0] == "synth" and source == "--trace":
            continue
        code = run(*argv, "--mode", "POSIX", source, path, "--out", tmp_path / "out")
        assert code == 2, argv
        err = capsys.readouterr().err
        assert ("cannot read" if content is None else "is not UTF-8") in err, err


def test_path_outside_the_image_exits_2(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    record = {"seq": 1, "tid": 0, "kind": "write",
              "args": {"path": "../x", "offset": 0, "length": 1, "digest": "0" * 64},
              "backtrace": [{"function": "main", "file": "a.c", "line": 1}]}
    trace_file.write_text(
        '{"app": "x", "mode": "POSIX", "version": 1}\n' + json.dumps(record) + "\n"
    )
    for checker in ([], ["--checker", checker_arg("always_ok.py")]):
        assert run("exhaustive", "--trace", trace_file, *checker, "--out", tmp_path / "o") == 2
        assert "must stay inside the image" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_a_name_at_the_image_root_may_start_with_two_dots(tmp_path, capsys):
    """``..cfg`` is a file in the image root, not above it: the checker
    finds it there, alone, in every state it is written in, and replay
    writes it there."""
    program = ["--mode", "POSIX", "--dsl", tmp_path / "w.dsl"]
    (tmp_path / "w.dsl").write_text('fn main {\n  write ..cfg "ab" @0\n  fsync ..cfg\n}\n')
    checker = tmp_path / "only_cfg.py"
    checker.write_text(
        "import os, sys\n"
        "names = os.listdir(sys.argv[1])\n"
        "sys.exit(names != ['..cfg'] or open(os.path.join(sys.argv[1], '..cfg'), 'rb').read() != b'ab')\n"
    )
    checked = ["--checker", f"{sys.executable} {checker}"]
    assert run("analyze", *program, "--out", tmp_path / "a") == 0
    # The one bug is the state before the write.
    assert run("test", *program, *checked, "--out", tmp_path / "t") == 1
    assert [b["schedule"]["applied_seqs"] for b in json.loads((tmp_path / "t" / "bugs.json").read_text())["bugs"]] == [[]]
    assert run("exhaustive", *program, *checked, "--out", tmp_path / "e") == 1
    states = json.loads((tmp_path / "e" / "states.json").read_text())["states"]
    assert sorted((s["applied_seqs"], s["verdict"]) for s in states.values()) == [([], "Inconsistent"), ([1], "Consistent")]
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"behavior_id": "b", "mode": "POSIX", "context_seqs": [], "applied_seqs": [1]}))
    capsys.readouterr()
    assert run("replay", *program, "--schedule", schedule, *checked, "--out", tmp_path / "r") == 0
    assert capsys.readouterr().out == "replay: Consistent\n"
    assert run("replay", *program, "--schedule", schedule, "--out", tmp_path / "m") == 0
    assert os.listdir(tmp_path / "m" / "replayed") == ["..cfg"]
    assert (tmp_path / "m" / "replayed" / "..cfg").read_bytes() == b"ab"


@pytest.mark.parametrize(
    "paths, message",
    [(["."], "line 2: create arg 'path' names the image root"), (["d", "d/f"], "line 3: create arg 'path' lies under the file 'd'")],
    ids=["image-root", "file-and-parent"],
)
def test_file_that_is_also_a_directory_exits_2(tmp_path, capsys, paths, message):
    trace_file = tmp_path / "t.jsonl"
    records = [
        {"seq": seq, "tid": 0, "kind": "create", "args": {"path": path},
         "backtrace": [{"function": "main", "file": "a.c", "line": seq}]}
        for seq, path in enumerate(paths, 1)
    ]
    trace_file.write_text(
        '{"app": "x", "mode": "POSIX", "version": 1}\n'
        + "".join(json.dumps(r) + "\n" for r in records)
    )
    schedule_file = tmp_path / "schedule.json"
    schedule_file.write_text(json.dumps({
        "behavior_id": "b", "mode": "POSIX",
        "context_seqs": [], "applied_seqs": list(range(1, len(paths) + 1)),
    }))
    checker = ["--checker", checker_arg("always_ok.py")]
    for command in (["test"], ["exhaustive"], ["replay", "--schedule", schedule_file]):
        out = tmp_path / command[0]
        assert run(*command, "--trace", trace_file, *checker, "--out", out) == 2
        assert message in capsys.readouterr().err


def test_a_file_path_reused_as_a_directory_is_tested(tmp_path, capsys):
    """``create d``, ``unlink d``, ``mkdir d``, ``write d/x``: a legal trace.
    ``write d/x`` used to be ordered after nothing, so a state with ``d``
    still a file and ``d/x`` written stopped both checked commands with
    "cannot materialize file 'd'"; it now follows every earlier op naming
    ``d``, and the five states are checked."""
    trace_file = tmp_path / "t.jsonl"
    records = [
        {"seq": seq, "tid": 0, "kind": kind, "args": args, "backtrace": [{"function": "main", "file": "a.c", "line": seq}]}
        for seq, (kind, args) in enumerate(
            [
                ("create", {"path": "d"}),
                ("unlink", {"path": "d"}),
                ("mkdir", {"path": "d"}),
                ("write", {"path": "d/x", "offset": 0, "length": 1, "digest": "0" * 64}),
            ],
            1,
        )
    ]
    trace_file.write_text(
        '{"app": "x", "mode": "POSIX", "version": 1}\n' + "".join(json.dumps(r) + "\n" for r in records)
    )
    checker = ["--checker", checker_arg("always_ok.py")]
    for command, report in (("test", "stats.json"), ("exhaustive", "states.json")):
        out = tmp_path / command
        assert run(command, "--trace", trace_file, *checker, "--out", out) == 0, capsys.readouterr().err
        assert json.loads((out / report).read_text())["distinct_states"] == 5


def test_mmio_pipeline_via_cli(tmp_path):
    out = tmp_path / "out"
    code = run(
        "test",
        "--mode", "MMIO",
        "--dsl", WORKLOADS / "entry_insert.dsl",
        "--checker", checker_arg("entry_valid.py"),
        "--out", out,
    )
    assert code == 1
    bugs = json.loads((out / "bugs.json").read_text())["bugs"]
    assert len(bugs) == 3


@pytest.mark.parametrize("command", ["synth", "analyze", "test", "exhaustive", "replay"])
def test_output_path_that_cannot_be_created_exits_2(tmp_path, capsys, command):
    """An --out (or synth's -o) naming a regular file, a path under one or,
    for synth, a file in a missing directory is a configuration error.  So
    is an --out holding a directory where a report goes or, for replay, a
    regular file where the image goes; that file is left as it was."""
    program = ["--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl"]
    extra = {
        "test": ["--checker", checker_arg("always_ok.py")],
        "replay": ["--schedule", tmp_path / "schedule.json"],
    }.get(command, [])
    (tmp_path / "schedule.json").write_text(json.dumps({
        "behavior_id": "b", "mode": "POSIX", "context_seqs": [], "applied_seqs": [1],
    }))
    regular = tmp_path / "regular"
    regular.write_text("")
    if command == "synth":
        bad = [["-o", tmp_path / "missing" / "t.jsonl"], ["-o", regular / "t.jsonl"]]
    else:
        bad = [["--out", regular], ["--out", regular / "out"]]
    cases = [(output, output[1]) for output in bad]
    blocked = {
        "analyze": ["groups.json"], "test": ["bugs.json", "stats.json"], "exhaustive": ["states.json"],
    }.get(command, [])
    for name in blocked:
        (tmp_path / name / name).mkdir(parents=True)
        cases.append((["--out", tmp_path / name], tmp_path / name / name))
    if command == "replay":
        (tmp_path / "replay").mkdir()
        (tmp_path / "replay" / "replayed").write_text("kept")
        cases.append((["--out", tmp_path / "replay"], tmp_path / "replay" / "replayed"))
    capsys.readouterr()
    for output, path in cases:
        assert run(command, *program, *extra, *output) == 2, output
        err = capsys.readouterr().err
        assert err.startswith(f"error ({command}): cannot create output {path}: "), err
    assert regular.read_text() == ""
    if command == "replay":
        assert (tmp_path / "replay" / "replayed").read_text() == "kept"


_OPTIONS = [
    (("-h", "--help"), "help", False, None, None),
    (("--config",), "config", False, None, None),
    (("--mode",), "mode", False, ["POSIX", "MMIO", "posix", "mmio"], None),
    (("--out",), "out", False, None, None),
    (("--block-size",), "block_size", False, None, int),
    (("--cache-line-size",), "cache_line_size", False, None, int),
    (("--no-block-split",), "no_block_split", False, None, None),
    (("--eps",), "eps", False, None, int),
    (("--min-pts",), "min_pts", False, None, int),
    (("--budget",), "budget", False, None, int),
    (("--timeout",), "timeout", False, None, float),
    (("--checker",), "checker", False, None, None),
    (("--static-key",), "static_key", False, ["full", "innermost"], None),
]
_INPUT_OPTIONS = [*_OPTIONS, (("--trace",), "trace", False, None, None), (("--dsl",), "dsl", False, None, None)]


def test_each_subcommand_keeps_its_options():
    """Every subcommand's options, in order, with their dest, whether they
    are required, their choices and their type."""
    subcommands = make_parser()._subparsers._group_actions[0].choices
    got = {
        name: [(tuple(a.option_strings), a.dest, a.required, a.choices, a.type) for a in sub._actions]
        for name, sub in subcommands.items()
    }
    assert got == {
        "synth": [
            *_OPTIONS,
            (("--dsl",), "dsl", True, None, None),
            (("-o", "--output"), "output", False, None, None),
        ],
        "analyze": _INPUT_OPTIONS,
        "test": _INPUT_OPTIONS,
        "exhaustive": _INPUT_OPTIONS,
        "replay": [*_INPUT_OPTIONS, (("--schedule",), "schedule", True, None, None)],
    }
    assert list(got) == ["synth", "analyze", "test", "exhaustive", "replay"]


_COMMAND_NAMES = ["synth", "analyze", "test", "exhaustive", "replay"]
# What each subcommand needs before an unrecognized argument is reported.
_REQUIRED = {"synth": ["--dsl", "p.dsl"], "replay": ["--schedule", "s.json"]}


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["--help"], ["-h", "test"], ["bogus"], ["--mode", "x"],
        *([name, "-h"] for name in _COMMAND_NAMES),
        *([name, *_REQUIRED.get(name, []), "--bogus", "extra"] for name in _COMMAND_NAMES),
        ["test", "--mode", "x"], ["replay", "--trace", "t.jsonl"], ["synth", "--mode", "POSIX"],
    ],
    ids=" ".join,
)
def test_the_command_line_text_is_the_full_parser_s(capsys, argv):
    """Help, usage and argument errors read as the parser with every
    subcommand gives them, byte for byte, though ``main`` builds only the
    subcommand its argv names."""
    with pytest.raises(SystemExit) as full:
        make_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as dispatched:
        main(argv)
    assert (capsys.readouterr(), dispatched.value.code) == (expected, full.value.code)
    assert full.value.code in (0, 2)


@pytest.mark.parametrize(
    "argv, message",
    [([], "the following arguments are required: command"), (["bogus"], "argument command: invalid choice: 'bogus'")],
)
def test_the_full_parser_names_its_command_argument(capsys, argv, message):
    with pytest.raises(SystemExit):
        main(argv)
    assert f"crashcheck: error: {message}" in capsys.readouterr().err


def _subcommands(parser):
    return parser._subparsers._group_actions[0].choices


def _options(subparser):
    return [(a.option_strings, a.dest, a.required, a.choices, a.type, a.help) for a in subparser._actions]


def test_dispatching_a_subcommand_builds_its_parser_alone(tmp_path, monkeypatch):
    built = []

    def recording(command=None):
        built.append(make_parser(command))
        return built[-1]

    monkeypatch.setattr(cli, "make_parser", recording)
    program = ["--mode", "POSIX", "--dsl", WORKLOADS / "two_writes.dsl", "--out", tmp_path / "o"]
    assert run("test", *program, "--checker", checker_arg("always_ok.py")) == 0
    assert [list(_subcommands(parser)) for parser in built] == [["test"]]
    full = _subcommands(make_parser())
    for name, subparser in full.items():
        assert _options(_subcommands(make_parser(name))[name]) == _options(subparser), name
