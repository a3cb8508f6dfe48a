import json
import math
import random

import pytest

from crashcheck import (
    ParseError,
    SequenceOrderError,
    UnknownOperationKind,
    build_graph,
    parse_trace,
    serialize_trace,
    split_by_thread,
)
from crashcheck.models import ModelConfig, model_edges
from crashcheck.trace import MAX_RANGE_LENGTH, MAX_WRITE_END, POSIX_MODE

from conftest import bench_module
from helpers import op, posix_trace, random_posix_trace, write_args

HEADER = '{"app": "t", "mode": "POSIX", "version": 1}'
MMIO_HEADER = '{"app": "t", "mode": "MMIO", "version": 1}'


def record(seq, kind, args, tid=0, line=1, annotation=None):
    return json.dumps(
        {
            "seq": seq,
            "tid": tid,
            "kind": kind,
            "args": args,
            "backtrace": [{"function": "main", "file": "a.c", "line": line}],
            "annotation": annotation,
        }
    )


def test_empty_stream_is_a_valid_trace():
    trace = parse_trace(b"")
    assert len(trace.ops) == 0
    assert trace.meta.mode == POSIX_MODE


def test_parse_fig3_style_golden_records():
    digest = "0" * 64
    lines = [
        HEADER,
        record(1, "write", {"path": "f1", "offset": 0, "length": 2, "digest": digest}, line=3),
        record(2, "write", {"path": "f1", "offset": 0, "length": 2, "digest": digest}, line=4),
        record(3, "write", {"path": "f1", "offset": 0, "length": 2, "digest": digest}, line=8),
        record(4, "write", {"path": "f2", "offset": 0, "length": 2, "digest": digest}, line=9),
        record(5, "fdatasync", {"path": "f2"}, line=12),
        record(6, "rename", {"path": "f2", "dst": "CURRENT"}, line=13),
        record(7, "sync", {}, line=14),
    ]
    trace = parse_trace("\n".join(lines).encode())
    assert [o.seq for o in trace.ops] == [1, 2, 3, 4, 5, 6, 7]
    assert [o.kind for o in trace.ops] == [
        "write", "write", "write", "write", "fdatasync", "rename", "sync",
    ]


def test_unknown_kind_is_rejected():
    stream = "\n".join([HEADER, record(1, "writev2", {"path": "f"})])
    with pytest.raises(UnknownOperationKind):
        parse_trace(stream)


def test_unknown_kind_error_names_its_line():
    stream = "\n".join([HEADER, record(1, "write", write_args("f", b"x")), record(2, "truncate", {"path": "f"})])
    with pytest.raises(UnknownOperationKind, match=r"^line 3: unknown operation kind 'truncate'$"):
        parse_trace(stream)


@pytest.mark.parametrize("kind", [[], {}, 7, None])
def test_non_string_kind_is_a_parse_error(kind):
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([HEADER, record(1, kind, {"path": "f"})]))
    assert err.value.line_no == 2


@pytest.mark.parametrize("path", [[], {}, -1, None])
def test_non_string_path_is_a_parse_error(path):
    for kind in ("create", "unlink", "fsync"):
        with pytest.raises(ParseError):
            parse_trace("\n".join([HEADER, record(1, kind, {"path": path})]))


@pytest.mark.parametrize("dst", [[], {}, -1])
def test_non_string_rename_destination_is_a_parse_error(dst):
    stream = "\n".join([HEADER, record(1, "rename", {"path": "f", "dst": dst})])
    with pytest.raises(ParseError):
        parse_trace(stream)


@pytest.mark.parametrize("digest", [[], {}, 5, None, pytest.param("é" * 64, id="non-ascii")])
def test_non_string_digest_is_a_parse_error(digest):
    args = {"path": "f", "offset": 0, "length": 2, "digest": digest}
    with pytest.raises(ParseError):
        parse_trace("\n".join([HEADER, record(1, "write", args)]))


@pytest.mark.parametrize("value", [[], {}, 5, None])
@pytest.mark.parametrize("key", ["type_name", "instance_id", "field_name"])
def test_non_string_annotation_field_is_a_parse_error(key, value):
    ann = {"type_name": "entry", "instance_id": "0", "field_name": "key"}
    ann[key] = value
    args = {"addr": 0, "length": 8, "digest": "0" * 64}
    mmio_header = '{"app": "t", "mode": "MMIO", "version": 1}'
    with pytest.raises(ParseError):
        parse_trace("\n".join([mmio_header, record(1, "store", args, annotation=ann)]))


@pytest.mark.parametrize("value", [[], {}, 5, None])
@pytest.mark.parametrize("key", ["function", "file"])
def test_non_string_frame_field_is_a_parse_error(key, value):
    rec = json.loads(record(1, "create", {"path": "f"}))
    rec["backtrace"][0][key] = value
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([HEADER, json.dumps(rec)]))
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "kind, args, key",
    [
        ("write", {"path": "f", "offset": MAX_WRITE_END, "length": 1, "digest": "0" * 64}, "offset"),
        ("pwrite", {"path": "f", "offset": 1, "length": MAX_WRITE_END, "digest": "0" * 64}, "length"),
        ("store", {"addr": 0, "length": MAX_RANGE_LENGTH + 1, "digest": "0" * 64}, "length"),
        ("flush", {"addr": 64, "length": MAX_RANGE_LENGTH + 1}, "length"),
        ("msync", {"addr": 0, "length": MAX_RANGE_LENGTH + 1}, "length"),
    ],
)
def test_extent_past_its_bound_is_a_parse_error(kind, args, key):
    header = HEADER if kind in ("write", "pwrite") else MMIO_HEADER
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([header, record(1, kind, args)]))
    assert err.value.line_no == 2
    at_bound = dict(args, **{key: args[key] - 1})
    assert parse_trace("\n".join([header, record(1, kind, at_bound)])).ops[0].args == at_bound


@pytest.mark.parametrize("field", ["seq", "tid"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_seq_or_tid_is_a_parse_error(field, value):
    rec = json.loads(record(1, "create", {"path": "f"}))
    rec[field] = value
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([HEADER, json.dumps(rec)]))
    assert err.value.line_no == 2


@pytest.mark.parametrize("line", ["7", True, 1.9, -4, None])
def test_frame_line_that_is_no_non_negative_integer_is_a_parse_error(line):
    # 1.9 used to become line 1, and so share a static key with it.
    with pytest.raises(ParseError, match=r"^line 2: malformed frame "):
        parse_trace("\n".join([HEADER, record(1, "create", {"path": "f"}, line=line)]))
    assert parse_trace("\n".join([HEADER, record(1, "create", {"path": "f"}, line=0)])).ops[0].backtrace.innermost.line == 0


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_header_version_other_than_the_integer_1_is_a_parse_error(version):
    header = json.dumps({"app": "t", "mode": "POSIX", "version": version})
    with pytest.raises(ParseError, match=r"^line 1: header must declare version 1$"):
        parse_trace("\n".join([header, record(1, "create", {"path": "f"})]))


@pytest.mark.parametrize(
    "kind, args, key",
    [
        ("write", {"path": "f", "offset": True, "length": 1, "digest": "0" * 64}, "offset"),
        ("pwrite", {"path": "f", "offset": 0, "length": True, "digest": "0" * 64}, "length"),
        ("store", {"addr": False, "length": 8, "digest": "0" * 64}, "addr"),
        ("store", {"addr": 0, "length": 8, "digest": "0" * 64, "line": False}, "line"),
        ("flush", {"addr": 0, "length": True}, "length"),
        # Nor is JSON null an integer.
        ("write", {"path": "f", "offset": None, "length": 1, "digest": "0" * 64}, "offset"),
        ("store", {"addr": 0, "length": None, "digest": "0" * 64}, "length"),
        ("store", {"addr": 0, "length": 8, "digest": "0" * 64, "line": None}, "line"),
    ],
)
def test_boolean_extent_is_a_parse_error(kind, args, key):
    header = HEADER if kind in ("write", "pwrite") else MMIO_HEADER
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([header, record(1, kind, args)]))
    assert err.value.line_no == 2
    assert f"{kind} arg {key!r} must be a non-negative integer" in str(err.value)


@pytest.mark.parametrize("value", [1, 0, "true", None, []])
def test_fsync_dir_that_is_no_boolean_is_a_parse_error(value):
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([HEADER, record(1, "fsync", {"path": ".", "dir": value})]))
    assert err.value.line_no == 2
    assert "fsync arg 'dir' must be true or false" in str(err.value)


@pytest.mark.parametrize("path", ["/etc/passwd", "../x", "a/../../x", "..", "./../x"])
def test_path_outside_the_image_is_a_parse_error(path):
    write = {"path": path, "offset": 0, "length": 1, "digest": "0" * 64}
    for kind, args in (
        ("write", write),
        ("create", {"path": path}),
        ("mkdir", {"path": path}),
        ("fsync", {"path": path, "dir": True}),
        ("rename", {"path": "f", "dst": path}),
        ("rename", {"path": path, "dst": "f"}),
    ):
        with pytest.raises(ParseError) as err:
            parse_trace("\n".join([HEADER, record(1, kind, args)]))
        assert err.value.line_no == 2, (kind, args)


def test_paths_inside_the_image_parse():
    # Each path is stored in its one canonical spelling.
    for path, stored in (
        ("f", "f"), ("dir/f", "dir/f"), ("a/../f", "f"), ("./f", "f"), ("a/", "a"), ("a//b", "a/b"),
        # A name at the root may start with "..": only ".." itself climbs out.
        ("..cfg", "..cfg"), ("./..cfg", "..cfg"), ("...", "..."), ("..d/f", "..d/f"), ("d/../..cfg", "..cfg"),
    ):
        trace = parse_trace("\n".join([HEADER, record(1, "create", {"path": path})]))
        assert trace.ops[0].args["path"] == stored
    # A sync may name the image root.
    trace = parse_trace("\n".join([HEADER, record(1, "fsync", {"path": ".", "dir": True})]))
    assert trace.ops[0].args["path"] == "."


@pytest.mark.parametrize("path", [".", "./", "d/..", ""])
def test_an_op_that_would_replace_the_image_root_is_a_parse_error(path):
    write = {"path": path, "offset": 0, "length": 1, "digest": "0" * 64}
    for kind, args in (
        ("write", write),
        ("pwrite", write),
        ("create", {"path": path}),
        ("mkdir", {"path": path}),
        ("unlink", {"path": path}),
        ("rename", {"path": "f", "dst": path}),
        ("rename", {"path": path, "dst": "f"}),
    ):
        with pytest.raises(ParseError) as err:
            parse_trace("\n".join([HEADER, record(1, kind, args)]))
        assert err.value.line_no == 2, (kind, args)
        assert "names the image root" in str(err.value)


@pytest.mark.parametrize(
    "key, value, message",
    [("line", True, "malformed frame"), ("line", 1.0, "malformed frame"),
     ("function", ["main"], "frame function and file must be strings")],
    ids=["line-true", "line-float", "function-list"],
)
def test_a_bad_frame_after_an_equal_valid_one_fails_as_it_does_first(key, value, message):
    """``True`` and ``1.0`` equal ``1`` and hash alike, so a chain looked up
    before its frames are checked would let them through."""
    good = json.loads(record(1, "create", {"path": "f"}))
    bad = json.loads(record(2, "create", {"path": "g"}))
    bad["backtrace"][0][key] = value
    alone = dict(bad, seq=1)
    in_chain = dict(bad, seq=1, backtrace=good["backtrace"] + bad["backtrace"])
    failures = []
    for lines in ([alone], [good, bad], [in_chain]):
        with pytest.raises(ParseError) as err:
            parse_trace("\n".join([HEADER, *map(json.dumps, lines)]))
        assert err.value.line_no == len(lines) + 1
        failures.append(str(err.value).split(": ", 1)[1])
    assert failures[0].startswith(message)
    assert failures == [failures[0]] * 3


def test_ops_of_one_call_chain_share_one_backtrace_and_static_key():
    """The benchmark's 364-op pointer-update trace repeats 10 call chains."""
    trace = parse_trace(bench_module("gen").pointer_update_trace(7))
    backtraces = {id(o.backtrace): o.backtrace for o in trace.ops}
    assert len(trace.ops) == 364 and len(backtraces) == len(set(backtraces.values())) == 10
    graph = build_graph(trace, model_edges(trace, ModelConfig()))
    key_of = {}
    for o in trace.ops:
        assert key_of.setdefault((o.kind, o.backtrace), graph.static_keys[o.seq]) is graph.static_keys[o.seq]
    assert len(key_of) == 10
    # One chain, two kinds: one backtrace, two keys.
    two = parse_trace("\n".join([HEADER, record(1, "create", {"path": "f"}), record(2, "fsync", {"path": "f"})]))
    assert two.ops[0].backtrace is two.ops[1].backtrace
    keys = build_graph(two, model_edges(two, ModelConfig())).static_keys
    assert keys[1] != keys[2]


@pytest.mark.parametrize(
    "ops, line",
    [
        ([("mkdir", {"path": "d"}), ("write", {"path": "d/x"}), ("rename", {"path": "d", "dst": "e"})], 4),
        ([("mkdir", {"path": "d"}), ("rename", {"path": "d", "dst": "e"})], 3),
        ([("create", {"path": "a/b/c"}), ("rename", {"path": "a", "dst": "e"})], 3),
        ([("create", {"path": "x"}), ("rename", {"path": "x", "dst": "a/b/c"}),
          ("rename", {"path": "a/b", "dst": "e"})], 4),
        ([("open", {"path": "d/f"}), ("rename", {"path": "d", "dst": "e"})], 3),
    ],
    ids=["mkdir-then-write", "mkdir", "grandparent", "rename-destination", "open"],
)
def test_renaming_a_directory_is_a_parse_error_on_its_line(ops, line):
    """Replay moves files only; it used to fail with "rename of nonexistent
    source" and only once the rename was replayed."""
    records = []
    for seq, (kind, args) in enumerate(ops, start=1):
        if kind == "write":
            args = dict(args, offset=0, length=1, digest="0" * 64)
        records.append(record(seq, kind, args))
    with pytest.raises(ParseError, match=r"rename of directory '[ad]\S*' is not modeled") as err:
        parse_trace("\n".join([HEADER, *records]))
    assert err.value.line_no == line


@pytest.mark.parametrize(
    "ops, message",
    [
        ([("create", {"path": "d"}), ("create", {"path": "d/f"})], "create arg 'path' lies under the file 'd', got 'd/f'"),
        ([("write", {"path": "a"}), ("fsync", {"path": "a/b/c"})], "fsync arg 'path' lies under the file 'a', got 'a/b/c'"),
        ([("create", {"path": "x"}), ("create", {"path": "d"}), ("rename", {"path": "x", "dst": "d/y"})],
         "rename arg 'dst' lies under the file 'd', got 'd/y'"),
        ([("create", {"path": "d/x"}), ("write", {"path": "d"})], "write arg 'path' names a directory, got 'd'"),
        ([("mkdir", {"path": "d"}), ("create", {"path": "d"})], "create arg 'path' names a directory, got 'd'"),
        ([("create", {"path": "x"}), ("mkdir", {"path": "d"}), ("rename", {"path": "x", "dst": "d"})],
         "rename arg 'dst' names a directory, got 'd'"),
        ([("create", {"path": "d"}), ("mkdir", {"path": "d"})], "mkdir arg 'path' names a file, got 'd'"),
        ([("create", {"path": "x"}), ("rename", {"path": "x", "dst": "d"}), ("mkdir", {"path": "d/e"})],
         "mkdir arg 'path' lies under the file 'd', got 'd/e'"),
    ],
    ids=["create-under-file", "under-a-grandparent", "rename-under-file", "write-at-directory",
         "create-at-mkdir", "rename-onto-directory", "mkdir-at-file", "mkdir-under-renamed-file"],
)
def test_a_path_both_file_and_directory_is_a_parse_error_on_its_line(ops, message):
    """``create d``, ``create d/f`` used to pass ``analyze`` and stop
    ``test`` and ``replay`` at materialize: "cannot materialize file 'd'"."""
    records = []
    for seq, (kind, args) in enumerate(ops, start=1):
        if kind == "write":
            args = dict(args, offset=0, length=1, digest="0" * 64)
        records.append(record(seq, kind, args))
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([HEADER, *records]))
    assert str(err.value) == f"line {len(ops) + 1}: {message}"


def test_a_path_that_stops_being_a_file_may_become_a_directory():
    stream = "\n".join(
        [HEADER, record(1, "create", {"path": "d"}), record(2, "unlink", {"path": "d"}),
         record(3, "mkdir", {"path": "d"}), record(4, "create", {"path": "d/x"}),
         record(5, "create", {"path": "e"}), record(6, "rename", {"path": "e", "dst": "f"}),
         record(7, "create", {"path": "e/y"}), record(8, "mkdir", {"path": "d"})]
    )
    assert len(parse_trace(stream).ops) == 8


@pytest.mark.parametrize(
    "ops, message",
    [
        ([("create", {"path": "b"}), ("unlink", {"path": "a"})], "unlink arg 'path' names no file, got 'a'"),
        ([("create", {"path": "b"}), ("rename", {"path": "a", "dst": "c"})], "rename arg 'path' names no file, got 'a'"),
        ([("create", {"path": "a"}), ("unlink", {"path": "a"}), ("unlink", {"path": "a"})],
         "unlink arg 'path' names no file, got 'a'"),
        ([("create", {"path": "a"}), ("rename", {"path": "a", "dst": "b"}), ("rename", {"path": "a", "dst": "c"})],
         "rename arg 'path' names no file, got 'a'"),
        ([("mkdir", {"path": "d"}), ("unlink", {"path": "d"})], "unlink arg 'path' names no file, got 'd'"),
        ([("open", {"path": "a"}), ("unlink", {"path": "./a"})], "unlink arg 'path' names no file, got 'a'"),
    ],
    ids=["unlink-never-made", "rename-never-made", "unlink-twice", "rename-away-twice", "unlink-directory", "opened-only"],
)
def test_unlinking_or_renaming_no_live_file_is_a_parse_error_on_its_line(ops, message):
    """``create b``, ``unlink a`` used to pass ``analyze`` and stop ``test``
    and ``exhaustive`` at replay: "unlink of nonexistent file 'a' (op 2)"."""
    records = [record(seq, kind, args) for seq, (kind, args) in enumerate(ops, start=1)]
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join([HEADER, *records]))
    assert str(err.value) == f"line {len(ops) + 1}: {message}"


def _payload_args(kind, length, data):
    extent = {"addr": 0} if kind == "store" else {"path": "a", "offset": 0}
    return {**extent, "length": length, "digest": "0" * 64, "data": data}


@pytest.mark.parametrize("kind", ["write", "pwrite", "store"])
@pytest.mark.parametrize("length, data", [(1, "aabbcc"), (3, "aa"), (0, "aa"), (2, "")])
def test_inline_payload_of_another_length_is_a_parse_error_on_its_line(kind, length, data):
    """The models read ``length`` and replay writes the inline bytes, so a
    one-byte write of ``aabbcc`` at 4095 and one of ``dd`` at 4096 shared
    no block, and their two orders replayed to different images."""
    header = MMIO_HEADER if kind == "store" else HEADER
    stream = "\n".join([header, record(1, kind, _payload_args(kind, length, data))])
    with pytest.raises(ParseError) as err:
        parse_trace(stream)
    assert str(err.value) == f"line 2: {kind} payload is {len(data) // 2} bytes, declared {length}"
    exact = "\n".join([header, record(1, kind, _payload_args(kind, len(data) // 2, data))])
    assert parse_trace(exact).ops[0].payload() == bytes.fromhex(data)


def test_args_keys_and_kinds_are_one_string_each():
    """``json.loads`` makes new key strings for every record; a parsed
    trace holds one string per key and per kind."""
    trace = parse_trace(bench_module("gen").pointer_update_trace(7))
    keys = {id(key) for o in trace.ops for key in o.args}
    assert len(keys) == len({key for o in trace.ops for key in o.args})
    assert len({id(o.kind) for o in trace.ops}) == len({o.kind for o in trace.ops})


def test_each_distinct_path_is_one_string():
    """``posixpath.normpath`` makes a new string at every call; a parsed
    trace holds one string per distinct path, however it is spelled."""
    trace = parse_trace(bench_module("gen").pointer_update_trace(7))
    paths = [o.args[key] for o in trace.ops for key in ("path", "dst") if key in o.args]
    assert len({id(path) for path in paths}) == len(set(paths)) < len(paths)
    # Not one-letter names: CPython keeps one string per Latin-1 character.
    spellings = parse_trace("\n".join(
        [HEADER, record(1, "create", {"path": "cfg"}), record(2, "unlink", {"path": "./cfg"}),
         record(3, "create", {"path": "d/../cfg/"})]
    ))
    assert len({id(o.args["path"]) for o in spellings.ops}) == 1


_PLAIN = record(1, "write", {"path": "f", "offset": 0, "length": 1, "digest": "0" * 64})
_BAD_FIELDS = (
    ('"seq": 1,', "seq", "line 2: seq must be a positive integer"),
    ('"offset": 0,', "offset", "line 2: write arg 'offset' must be a non-negative integer"),
    ('"line": 1}', "frame-line", "line 2: malformed frame {'function': 'main', 'file': 'a.c', 'line': %s}"),
)


@pytest.mark.parametrize(
    "lines, message",
    [
        pytest.param([HEADER, "   " + _PLAIN], None, id="leading-spaces"),
        pytest.param([HEADER, "\t" + _PLAIN], None, id="leading-tab"),
        pytest.param([HEADER, _PLAIN + "   "], None, id="trailing-spaces"),
        pytest.param([HEADER, _PLAIN, " \t ", record(2, "create", {"path": "g"})], None, id="whitespace-line"),
        pytest.param([HEADER, _PLAIN + " 1"], "line 2: record is not valid JSON", id="number-after"),
        pytest.param([HEADER, _PLAIN + "{}"], "line 2: record is not valid JSON", id="object-after"),
        *(
            pytest.param(
                [HEADER, _PLAIN.replace(old, old.replace(old.split()[1].strip(",}"), text))],
                message.replace("%s", repr(float(text))), id=f"{text}-{name}",
            )
            for old, name, message in _BAD_FIELDS
            for text in ("NaN", "Infinity", "-Infinity")
        ),
        pytest.param(
            [HEADER, _PLAIN.replace('"seq": 1,', f'"seq": {"9" * 5000},')],
            "line 2: record holds an integer too long or nesting too deep to read", id="5000-digit-int",
        ),
        pytest.param(
            [HEADER, '{"seq": ' + "[" * 100_000 + "]" * 100_000 + "}"],
            "line 2: record holds an integer too long or nesting too deep to read", id="deep-nesting",
        ),
        pytest.param(["\ufeff" + HEADER, _PLAIN], "line 1: header is not valid JSON", id="bom-header"),
        pytest.param([HEADER, "\ufeff" + _PLAIN], "line 2: record is not valid JSON", id="bom-record"),
        # ``splitlines`` splits a record at a raw line separator.
        pytest.param(
            [HEADER, record(1, "create", {"path": "a\u2028b"}).replace("\\u2028", "\u2028")],
            "line 2: record is not valid JSON", id="raw-u2028",
        ),
    ],
)
def test_a_record_line_decodes_as_json_loads_reads_it(lines, message):
    """Whitespace around a record, text after it, constants JSON does not
    define, values past the int-digit or recursion limit, a BOM and a raw
    line separator: each line parses to the trace of its stripped records
    or fails with the error it gave when every line went through
    ``json.loads``."""
    text = "\n".join(lines)
    if message is None:
        stripped = [line.strip() for line in lines if line.strip()]
        assert parse_trace(text).ops == parse_trace("\n".join(stripped)).ops
        assert len(parse_trace(text).ops) == len(stripped) - 1
    else:
        with pytest.raises(ParseError) as err:
            parse_trace(text)
        assert str(err.value) == message


def test_renaming_a_file_whose_name_is_later_a_directory_parses():
    stream = "\n".join(
        [HEADER, record(1, "create", {"path": "d"}), record(2, "rename", {"path": "d", "dst": "e"}),
         record(3, "create", {"path": "d/x"}), record(4, "rename", {"path": "e", "dst": "d/y"})]
    )
    assert [o.kind for o in parse_trace(stream).ops] == ["create", "rename", "create", "rename"]


def test_non_monotone_seq_is_rejected():
    stream = "\n".join(
        [
            HEADER,
            record(2, "create", {"path": "f"}),
            record(1, "create", {"path": "g"}),
        ]
    )
    with pytest.raises(SequenceOrderError):
        parse_trace(stream)


def test_malformed_record_reports_line_number():
    stream = "\n".join([HEADER, "{not json"])
    with pytest.raises(ParseError) as err:
        parse_trace(stream)
    assert err.value.line_no == 2


def test_mode_mismatched_kind_is_a_parse_error():
    stream = "\n".join(
        [HEADER, record(1, "store", {"addr": 0, "length": 1, "digest": "0" * 64})]
    )
    with pytest.raises(ParseError):
        parse_trace(stream)


def test_posix_op_must_not_carry_annotation():
    ann = {"type_name": "t", "instance_id": "i", "field_name": "f"}
    stream = "\n".join([HEADER, record(1, "create", {"path": "f"}, annotation=ann)])
    with pytest.raises(ParseError):
        parse_trace(stream)


def test_empty_backtrace_is_rejected():
    rec = json.dumps(
        {"seq": 1, "tid": 0, "kind": "sync", "args": {}, "backtrace": [], "annotation": None}
    )
    with pytest.raises(ParseError):
        parse_trace("\n".join([HEADER, rec]))


def test_roundtrip_identity_on_handmade_trace():
    trace = posix_trace(
        [
            op(1, "write", write_args("f1", b"ab"), (("main", 1), ("helper", 2))),
            op(2, "fsync", {"path": "f1", "dir": False}, (("main", 3),)),
            op(3, "rename", {"path": "f1", "dst": "f2"}, (("main", 4),), tid=1),
        ]
    )
    again = parse_trace(serialize_trace(trace))
    assert again.meta == trace.meta
    assert again.ops == trace.ops


def test_roundtrip_identity_on_random_traces():
    rng = random.Random(7)
    for _ in range(25):
        trace = random_posix_trace(rng)
        assert parse_trace(serialize_trace(trace)).ops == trace.ops


def test_split_by_thread_single_thread():
    trace = posix_trace([op(s, "create", {"path": f"f{s}"}) for s in range(1, 6)])
    split = split_by_thread(trace)
    assert list(split) == [0]
    assert split[0] == trace.ops


def test_split_by_thread_interleaved_preserves_order():
    trace = posix_trace(
        [
            op(1, "create", {"path": "a"}, tid=1),
            op(2, "create", {"path": "b"}, tid=2),
            op(3, "create", {"path": "c"}, tid=1),
            op(4, "create", {"path": "d"}, tid=2),
        ]
    )
    split = split_by_thread(trace)
    assert [o.seq for o in split[1]] == [1, 3]
    assert [o.seq for o in split[2]] == [2, 4]


def test_split_by_thread_merge_reproduces_input():
    rng = random.Random(13)
    ops = []
    for s in range(1, 20):
        ops.append(op(s, "create", {"path": f"f{s}"}, tid=rng.choice([0, 1, 2])))
    trace = posix_trace(ops)
    merged = sorted(
        (o for tops in split_by_thread(trace).values() for o in tops), key=lambda o: o.seq
    )
    assert merged == trace.ops


def test_fig3_workload_splits_to_single_thread(fig3_trace):
    split = split_by_thread(fig3_trace)
    assert list(split) == [0]
    assert split[0] == fig3_trace.ops
