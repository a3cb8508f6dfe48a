"""Command-line pipeline: trace or workload in, analysis and testing out.

Subcommands::

    synth       compile a workload program into a trace file
    analyze     derive behaviors, group them, emit groups.json and DOT files
    test        model-check representative behaviors against a checker
    exhaustive  brute-force every crash state of the whole trace
    replay      re-run one stored crash schedule

Exit codes: 0 success / no bugs, 1 bugs (or inconsistent replay) found,
2 configuration or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import shutil
import sys
import tempfile
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

from . import simulate
from .behavior import DEFAULT_EPS, DEFAULT_MIN_PTS, UpdateBehavior
from .dsl import synth_workload
from .errors import CrashCheckError, ModeMismatch
from .graph import FULL_KEY, INNERMOST_KEY, build_graph, export_dot
from .grouping import group_behaviors
from .mmio_behaviors import derive_mmio_behaviors
from .models import ModelConfig, model_edges
from .posix_behaviors import derive_posix_behaviors
from .simulate import (
    DEFAULT_BUDGET,
    DEFAULT_TIMEOUT,
    MAX_ORACLE_TIMEOUT,
    PreparedChecker,
    Verdict,
    exhaustive_schedules,
    materialize,
    replay,
    run_oracle,
    schedule_from_json,
    test_groups,
)
from .trace import MMIO_MODE, POSIX_MODE, Trace, parse_trace, serialize_trace

_CHECKER_COMMANDS = {"test", "exhaustive", "replay"}


class RunConfig(NamedTuple):
    """Every setting of one run; ``mode`` is None when no setting names it."""

    mode: str | None = None
    model: ModelConfig = ModelConfig()
    dbscan_eps: int = DEFAULT_EPS
    dbscan_min_pts: int = DEFAULT_MIN_PTS
    static_key: str = FULL_KEY
    checker: list[str] | None = None
    budget: int = DEFAULT_BUDGET
    timeout: float = DEFAULT_TIMEOUT
    out: Path = Path("out")


class ConfigError(CrashCheckError):
    pass


def _read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of an input file, or a :class:`ConfigError` saying
    why it cannot be read."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text (byte {exc.start})") from None


def _positive(convert, raw, key: str, most: float = math.inf):
    """``convert(raw)`` when it is a finite positive number no larger than
    ``most``, else a :class:`ConfigError`."""
    try:
        value = convert(raw)
    except ValueError:
        value = None
    if value is None or not 0 < value < math.inf or value > most:
        bound = f" of at most {most}" if most < math.inf else ""
        raise ConfigError(f"{key} must be a positive {convert.__name__}{bound}, got {raw!r}")
    return value


def _one_of(*allowed: str, fold=str):
    """A parser of ``fold(raw)``, which must be one of ``allowed``."""

    def parse(raw: str, key: str) -> str:
        if fold(raw) not in allowed:
            raise ConfigError(f"{key} must be {' or '.join(allowed)}, got {raw!r}")
        return fold(raw)

    return parse


def _switch(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ConfigError(f"{key} must be a boolean, got {raw!r}")
    return lowered in ("1", "true", "yes", "on")


def _command(raw: str, key: str) -> list[str]:
    _no_nul(raw, key)
    try:
        argv = shlex.split(raw)
    except ValueError:
        argv = []
    if not argv:
        raise ConfigError(f"{key} {raw!r} is not a command")
    return argv


def _directory(raw: str, key: str) -> Path:
    if not raw:
        raise ConfigError(f"{key} must name a directory, got ''")
    _no_nul(raw, key)
    return Path(raw)


def _no_nul(raw: str, key: str):
    """No path or argument the OS is handed may hold a NUL byte."""
    if "\0" in raw:
        raise ConfigError(f"{key} must not hold a NUL byte, got {raw!r}")


_INT = partial(_positive, int)


def _power_of_two(raw, key: str) -> int:
    value = _INT(raw, key)
    if value & (value - 1):
        raise ConfigError(f"{key} must be a power of two, got {value}")
    return value


# One row per setting: its config key, its flag, the flag's argparse
# options, and ``parse(raw, key)``, which the flag's value and the key's
# value both go through.
_SETTINGS = (
    ("mode", "--mode", {"choices": ["POSIX", "MMIO", "posix", "mmio"]}, _one_of(POSIX_MODE, MMIO_MODE, fold=str.upper)),
    ("out", "--out", {"help": "output directory (default: out)"}, _directory),
    ("block_size", "--block-size", {"type": int}, _power_of_two),
    ("cache_line_size", "--cache-line-size", {"type": int}, _power_of_two),
    (
        "split_writes_at_block_boundary", "--no-block-split",
        {"action": "store_const", "const": "off", "help": "order all same-file writes instead of per-block"}, _switch,
    ),
    ("dbscan_eps", "--eps", {"type": int, "help": "temporal clustering radius"}, _INT),
    ("dbscan_min_pts", "--min-pts", {"type": int}, _INT),
    ("budget", "--budget", {"type": int, "help": "downward-closed subsets of ops to explore per behavior"}, _INT),
    (
        "timeout", "--timeout", {"type": float, "help": "checker timeout in seconds"},
        partial(_positive, float, most=MAX_ORACLE_TIMEOUT),
    ),
    ("checker", "--checker", {"help": "consistency checker command"}, _command),
    ("static_key", "--static-key", {"choices": ["full", "innermost"]}, _one_of(FULL_KEY, INNERMOST_KEY)),
)
_MODEL_KEYS = set(ModelConfig._fields)


def load_config_file(path: Path) -> dict:
    """Flat ``key = value`` text file; '#' starts a comment."""
    known = {row[0] for row in _SETTINGS}
    values = {}
    for line_no, line in enumerate(_read_text(path, "config file").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = raw.strip()
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, else from the config file, else its
    default.  Only the commands that run the checker look it up."""
    in_file = load_config_file(Path(args.config)) if args.config else {}
    values = {}
    for key, flag, _, parse in _SETTINGS:
        raw = getattr(args, flag[2:].replace("-", "_"))
        if raw is None:
            raw = in_file.get(key)
        if raw is not None:
            values[key] = parse(raw, key)
    model = ModelConfig(**{key: values.pop(key) for key in _MODEL_KEYS & values.keys()})
    cfg = RunConfig(model=model, **values)
    command = cfg.checker[0] if cfg.checker and args.command in _CHECKER_COMMANDS else None
    if command is not None and shutil.which(command) is None and not Path(command).exists():
        raise ConfigError(f"checker {command!r} not found")
    return cfg


def load_input_trace(args: argparse.Namespace, cfg: RunConfig) -> Trace:
    if getattr(args, "trace", None) and getattr(args, "dsl", None):
        raise ConfigError("pass either --trace or --dsl, not both")
    if getattr(args, "trace", None):
        trace = parse_trace(_read_text(args.trace, "trace file"))
    elif getattr(args, "dsl", None):
        if cfg.mode is None:
            raise ConfigError("--dsl input needs --mode")
        trace = synth_workload(
            _read_text(args.dsl, "workload program"),
            cfg.mode,
            cache_line_size=cfg.model.cache_line_size,
        )
    else:
        raise ConfigError("an input is required: --trace FILE or --dsl FILE")
    if cfg.mode is not None and trace.meta.mode != cfg.mode:
        raise ModeMismatch(
            f"trace mode {trace.meta.mode} does not match configured mode {cfg.mode}"
        )
    return trace


def derive_behaviors(trace: Trace, cfg: RunConfig):
    graph = build_graph(trace, model_edges(trace, cfg.model), key_mode=cfg.static_key)
    if trace.meta.mode == POSIX_MODE:
        behaviors = derive_posix_behaviors(
            graph, trace, eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts
        )
    else:
        behaviors = derive_mmio_behaviors(graph, trace, cfg.model)
    return graph, behaviors


def report_json(value, write) -> None:
    """Write ``json.dumps(value, indent=2)``, byte for byte, to ``write``
    chunk by chunk as it is made, for report values: dicts with string
    keys, lists, tuples, strings, ints, bools and None.  ``json.dumps``
    takes its pure-Python path whenever ``indent`` is set; here each string
    goes through the C quoting function, and a list of ints or of strings
    is one join.  Each call renders each distinct int of its lists of more
    than 8 ints once."""
    _write_json(value, "\n", write, _IntTexts())


class _IntTexts(dict):
    """Exact int -> its JSON text, each rendered on its first lookup; a
    later lookup is one C-level dict hit.  Never keyed by a bool, which
    hashes equal to an int."""

    def __missing__(self, value: int) -> str:
        text = self[value] = int.__repr__(value)
        return text


# The text of an item of a list whose items all have one of these exact
# types.  A list of more than 8 exact ints (a crash state's seqs) mostly
# repeats ints the call has rendered, so it reads them from the call's
# ``_IntTexts``; a shorter one (a span, a small behavior's nodes) mostly
# holds new ones, where a memo miss costs more than ``str``.
_LIST_ITEM_TEXT = {int: str, str: _quote}


def _write_json(value, pad: str, out, texts: _IntTexts) -> None:
    """Append ``value``'s ``indent=2`` JSON to ``out``; ``pad`` is the
    newline and indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out(_quote(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = pad + "  "
        types = set(map(type, value))
        text = _LIST_ITEM_TEXT.get(types.pop()) if len(types) == 1 else None
        if text is not None:
            if text is str and len(value) > 8:
                text = texts.__getitem__
            out("[" + inner + ("," + inner).join(map(text, value)) + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            out(sep)
            _write_json(item, inner, out, texts)
            sep = "," + inner
        out(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            out(sep + _quote(key) + ": ")  # a key that is no string raises TypeError
            _write_json(item, inner, out, texts)
            sep = "," + inner
        out(pad + "}")
    else:
        # Floats and anything unsupported: json's own text or TypeError.
        out(json.dumps(value))


def _create_output(path: Path, mode: str = ""):
    """Output file ``path`` opened in ``mode`` or, with no mode, output directory ``path`` made
    with its parents; a path that cannot be made is a config error (exit 2), not a bug (exit 1)."""
    try:
        if mode:
            return path.open(mode)
        path.mkdir(parents=True, exist_ok=True)
        return path
    except OSError as exc:
        raise ConfigError(f"cannot create output {path}: {exc.strerror or exc}") from None


def _write_report(path: Path, value) -> None:
    with _create_output(path, "w") as report:
        report_json(value, report.write)


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    data = serialize_trace(load_input_trace(args, cfg))
    if args.output:
        with _create_output(Path(args.output), "wb") as output:
            output.write(data)
    else:
        sys.stdout.write(data.decode())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    trace = load_input_trace(args, cfg)
    graph, behaviors = derive_behaviors(trace, cfg)
    groups = group_behaviors(behaviors)

    out = _create_output(cfg.out)
    dot_dir = _create_output(out / "dot")
    with _create_output(dot_dir / "full.dot", "w") as dot:
        export_dot(graph, write=dot.write)
    with _create_output(dot_dir / "behaviors.dot", "w") as dot:
        for index, behavior in enumerate(behaviors):
            dot.write(f"// b{index:03d}_{_safe_name(behavior.id)}\n")
            export_dot(behavior.subgraph, write=dot.write)
    by_id = {b.id: b for b in behaviors}

    report = {
        "mode": trace.meta.mode,
        "counts": {
            "ops": len(trace.ops),
            "graph_nodes": len(graph),
            "graph_edges": graph.edge_count,
            "behaviors": len(behaviors),
            "groups": len(groups),
        },
        "behaviors": [
            {
                "id": b.id,
                "owner": b.owner_function,
                "tid": b.tid,
                "nodes": list(b.node_seqs),
                "span": list(b.span),
            }
            for b in behaviors
        ],
        "groups": [
            {
                "id": f"g{i}",
                "representative": g.representative,
                "members": g.members,
                "node_counts": {m: by_id[m].size for m in g.members},
            }
            for i, g in enumerate(groups)
        ],
    }
    _write_report(out / "groups.json", report)
    print(
        f"analyze: {len(trace.ops)} ops, {len(graph)} nodes, {graph.edge_count} edges, "
        f"{len(behaviors)} behaviors, {len(groups)} groups -> {out}"
    )
    return 0


def _checked_run(cfg: RunConfig, behaviors: list[UpdateBehavior], enumerator, trace: Trace):
    """:func:`test_groups` over ``behaviors`` with ``enumerator`` under the
    configured budget and, when a checker is set, the checker in a scratch
    directory that lives as long as the run."""
    schedules_of = partial(enumerator, trace=trace, budget=cfg.budget)
    if not cfg.checker:
        return test_groups(behaviors, schedules_of, trace)
    with tempfile.TemporaryDirectory(prefix="crashcheck-") as scratch:
        # States go one level down, so what a checker leaves at their path
        # never reaches the cleanup.
        check = partial(run_oracle, checker=PreparedChecker(cfg.checker, Path(scratch) / "state", cfg.timeout))
        return test_groups(behaviors, schedules_of, trace, check)


def cmd_test(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    if not cfg.checker:
        raise ConfigError("test needs --checker")
    trace = load_input_trace(args, cfg)
    _, behaviors = derive_behaviors(trace, cfg)
    by_id = {b.id: b for b in behaviors}
    reps = [by_id[rep_id] for rep_id in dict.fromkeys(g.representative for g in group_behaviors(behaviors))]

    out = _create_output(cfg.out)
    # The enumerator is looked up in ``simulate`` at every run, so a
    # wrapper installed there (the benchmark's tracer) sees it.
    bugs, stats, _ = _checked_run(cfg, reps, simulate.enumerate_schedules, trace)
    dots: dict[str, str] = {}
    _write_report(out / "bugs.json", {"bugs": [bug.to_json(dots) for bug in bugs]})
    _write_report(out / "stats.json", stats)
    print(
        f"test: {stats['representatives_tested']} representatives, "
        f"{stats['schedules_tested']} schedules, {stats['distinct_states']} states, "
        f"{len(bugs)} bugs -> {out}"
    )
    return 1 if bugs else 0


def cmd_exhaustive(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    trace = load_input_trace(args, cfg)
    graph = build_graph(trace, model_edges(trace, cfg.model), key_mode=cfg.static_key)
    whole = UpdateBehavior("whole-trace", "*", 0, graph)

    out = _create_output(cfg.out)
    bugs, stats, checked = _checked_run(cfg, [whole], exhaustive_schedules, trace)
    states, dots = {}, {}
    for digest, (schedule, result) in checked.items():
        states[digest] = entry = schedule.to_json()
        if result is not None:
            entry["verdict"] = result.verdict.value
    report = {
        "schedules_tested": stats["schedules_tested"],
        "distinct_states": len(states),
        "partial_coverage": stats["partial_coverage"],
        "states": states,
        "bugs": [bug.to_json(dots) for bug in bugs],
    }
    _write_report(out / "states.json", report)
    print(
        f"exhaustive: {stats['schedules_tested']} schedules, {len(states)} distinct states, "
        f"{len(bugs)} inconsistent -> {out}"
    )
    return 1 if bugs else 0


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    trace = load_input_trace(args, cfg)
    try:
        data = json.loads(_read_text(args.schedule, "schedule file"))
    except (ValueError, RecursionError) as exc:  # bad syntax, or past the int-digit or recursion limit
        raise ConfigError(f"schedule file {args.schedule} is not JSON: {exc}") from None
    schedule = schedule_from_json(data, trace)
    image = replay(schedule)
    # Made first: a regular file or a symlink in its place is an output
    # error, not removed.
    replayed = _create_output(cfg.out) / "replayed"
    if replayed.is_symlink():
        raise ConfigError(f"cannot create output {replayed}: it is a symbolic link")
    _create_output(replayed)
    if cfg.checker:
        result = run_oracle(image, PreparedChecker(cfg.checker, replayed, cfg.timeout))
        print(f"replay: {result.verdict.value}")
        if result.oracle_output.strip():
            print(result.oracle_output.strip())
        return 1 if result.verdict is Verdict.INCONSISTENT else 0
    materialize(image, replayed)
    print(f"replay: image materialized under {replayed}")
    return 0


# Each subcommand: its handler, its help line, and the options it takes
# after ``--config`` and the settings' flags.
_INPUT = ((("--trace",), {"help": "trace file input"}), (("--dsl",), {"help": "workload program input"}))
_SYNTH = ((("--dsl",), {"required": True}), (("-o", "--output"), {"help": "trace file to write (default stdout)"}))
_REPLAY = (*_INPUT, (("--schedule",), {"required": True, "help": "schedule JSON file"}))
_COMMANDS = {
    "synth": (cmd_synth, "compile a workload program to a trace", _SYNTH),
    "analyze": (cmd_analyze, "derive and group update behaviors", _INPUT),
    "test": (cmd_test, "model-check representative behaviors", _INPUT),
    "exhaustive": (cmd_exhaustive, "brute-force all crash states", _INPUT),
    "replay": (cmd_replay, "re-run a stored crash schedule", _REPLAY),
}


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given one's name, of that one
    alone, which ``main`` builds when argv names it.  Its usage still lists
    every subcommand, so its error text is the full parser's."""
    parser = argparse.ArgumentParser(
        prog="crashcheck",
        description="Crash-consistency testing over persistence graphs",
    )
    # A metavar would rename the full parser's ``command`` in its errors.
    choices = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name in (command,) if command else _COMMANDS:
        func, summary, options = _COMMANDS[name]
        p_command = sub.add_parser(name, help=summary)
        p_command.add_argument("--config", help="flat key=value config file")
        for _, flag, settings, _ in _SETTINGS:
            p_command.add_argument(flag, **settings)
        for flags, settings in options:
            p_command.add_argument(*flags, **settings)
        p_command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except CrashCheckError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
