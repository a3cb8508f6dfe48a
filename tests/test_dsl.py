import pytest

from crashcheck import DslError, parse_trace, serialize_trace, synth_workload
from crashcheck.trace import MAX_RANGE_LENGTH, MAX_WRITE_END


def test_single_line_program():
    trace = synth_workload('fn main { write f1 "a" @0 ; sync }', "POSIX")
    assert [o.kind for o in trace.ops] == ["write", "sync"]
    assert trace.ops[0].args["path"] == "f1"
    assert trace.ops[0].args["length"] == 1
    assert [o.seq for o in trace.ops] == [1, 2]


def test_minimal_pointer_switch_nests_under_its_function():
    program = 'fn SetCurrentFile {\n  write tmp "m2" @0\n  rename tmp CURRENT\n}\n'
    trace = synth_workload(program, "POSIX")
    assert len(trace.ops) == 2
    for o in trace.ops:
        assert o.backtrace.innermost.function == "SetCurrentFile"
    assert trace.ops[1].kind == "rename"
    assert trace.ops[1].args == {"path": "tmp", "dst": "CURRENT"}


def test_entry_insert_is_annotated_mmio():
    program = (
        "fn insert {\n"
        '  store entry_t.e0.key @0 8 "kkkkkkkk"\n'
        '  store entry_t.e0.value @64 8 "vvvvvvvv"\n'
        '  store entry_t.e0.valid @128 1 "\\x01"\n'
        "  flush 0 192\n"
        "  fence\n"
        "}\n"
    )
    trace = synth_workload(program, "MMIO")
    assert len(trace.ops) == 5
    stores = [o for o in trace.ops if o.kind == "store"]
    assert [o.annotation.field_name for o in stores] == ["key", "value", "valid"]
    assert all(o.annotation.type_name == "entry_t" for o in stores)
    assert all(o.annotation.instance_id == "e0" for o in stores)
    assert stores[2].payload() == b"\x01"


def test_nested_backtraces_use_call_site_lines():
    program = "fn outer {\n  fn inner {\n    sync\n  }\n}\n"
    trace = synth_workload(program, "POSIX")
    frames = trace.ops[0].backtrace.frames
    assert [(f.function, f.line) for f in frames] == [("outer", 2), ("inner", 3)]
    assert all(f.file == "<dsl>" for f in frames)


def test_statements_of_one_call_chain_share_one_backtrace():
    program = 'fn main {\n  write a "x" @0 ; write b "y" @0\n  sync\n}\n'
    ops = synth_workload(program, "POSIX").ops
    assert ops[0].backtrace is ops[1].backtrace
    assert ops[2].backtrace != ops[0].backtrace


def test_renaming_a_directory_is_rejected():
    with pytest.raises(DslError, match="rename of directory 'd' is not modeled") as err:
        synth_workload('fn main {\n  write d/x "a" @0\n  rename d e\n}', "POSIX")
    assert err.value.line_no == 3
    synth_workload('fn main {\n  write d "a" @0\n  rename d e\n}', "POSIX")


def test_a_path_both_file_and_directory_is_rejected():
    with pytest.raises(DslError, match="write arg 'path' lies under the file 'd', got 'd/x'") as err:
        synth_workload('fn main {\n  write d "a" @0\n  write d/x "b" @0\n}', "POSIX")
    assert err.value.line_no == 3


def test_determinism_byte_for_byte():
    program = 'fn main {\n  write f "ab" @4\n  fsyncdir .\n}\n'
    one = serialize_trace(synth_workload(program, "POSIX"))
    two = serialize_trace(synth_workload(program, "POSIX"))
    assert one == two
    assert parse_trace(one).ops == parse_trace(two).ops


def test_fsyncdir_sets_dir_flag():
    trace = synth_workload("fn main {\n  fsyncdir .\n  fsync f1\n}", "POSIX")
    assert trace.ops[0].kind == "fsync"
    assert trace.ops[0].args == {"path": ".", "dir": True}
    assert trace.ops[1].args == {"path": "f1", "dir": False}


def test_statement_outside_fn_is_rejected():
    with pytest.raises(DslError):
        synth_workload("sync\n", "POSIX")


def test_mode_mismatch_statement_is_rejected():
    with pytest.raises(DslError) as err:
        synth_workload("fn main { fence }", "POSIX")
    assert err.value.line_no == 1
    with pytest.raises(DslError):
        synth_workload('fn main { write f "a" @0 }', "MMIO")


def test_unbalanced_braces_are_rejected():
    with pytest.raises(DslError):
        synth_workload("fn main {\n  sync\n", "POSIX")
    with pytest.raises(DslError):
        synth_workload("fn main {\n  sync\n}\n}\n", "POSIX")


def test_store_payload_length_must_match():
    with pytest.raises(DslError):
        synth_workload('fn main { store T.i.f @0 4 "ab" }', "MMIO")


def test_extents_past_their_bound_are_rejected():
    for program, mode in (
        (f'fn main {{\n  write f "ab" @{MAX_WRITE_END - 1}\n}}', "POSIX"),
        (f"fn main {{\n  flush 0 {MAX_RANGE_LENGTH + 1}\n}}", "MMIO"),
        (f"fn main {{\n  msync 0 {MAX_RANGE_LENGTH + 1}\n}}", "MMIO"),
    ):
        with pytest.raises(DslError) as err:
            synth_workload(program, mode)
        assert err.value.line_no == 2, program
    synth_workload(f'fn main {{ write f "ab" @{MAX_WRITE_END - 2} }}', "POSIX")
    synth_workload(f"fn main {{ flush 0 {MAX_RANGE_LENGTH} ; msync 0 {MAX_RANGE_LENGTH} }}", "MMIO")


def test_paths_outside_the_image_are_rejected():
    for statement in ('write /etc/passwd "a" @0', "create ../x", "rename f ../x", "rename /f x",
                      "unlink a/../../x", "fsyncdir ..", "fdatasync /f"):
        with pytest.raises(DslError) as err:
            synth_workload("fn main {\n  " + statement + "\n}", "POSIX")
        assert err.value.line_no == 2, statement


def test_ops_that_would_replace_the_image_root_are_rejected():
    for statement in ('write . "a" @0', "create d/..", "rename f .", "rename ./ f", "unlink ."):
        with pytest.raises(DslError) as err:
            synth_workload("fn main {\n  " + statement + "\n}", "POSIX")
        assert err.value.line_no == 2, statement
        assert "names the image root" in str(err.value), statement


def test_bad_syntax_reports_location():
    with pytest.raises(DslError) as err:
        synth_workload('fn main {\n  write f1 "a"\n}', "POSIX")
    assert err.value.line_no == 2


def test_escapes_and_hex_addresses():
    trace = synth_workload(
        'fn main { store T.i.f @0x40 3 "a\\x00b" ; flush 0x40 64 }', "MMIO"
    )
    assert trace.ops[0].args["addr"] == 64
    assert trace.ops[0].payload() == b"a\x00b"
    assert trace.ops[1].args == {"addr": 64, "length": 64}


def test_comments_and_blank_lines_are_ignored():
    program = "# heading\n\nfn main {\n  sync  # trailing\n}\n"
    trace = synth_workload(program, "POSIX")
    assert [o.kind for o in trace.ops] == ["sync"]
    assert trace.ops[0].backtrace.innermost.line == 4
