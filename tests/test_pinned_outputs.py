"""A guard on the outputs: ``analyze`` on every shipped program must write
``groups.json`` and ``dot/full.dot`` whose sha256 digests equal the pinned
ones, and ``dot/behaviors.dot`` as one ``// b<index>_<id>`` header line and
one DOT text per behavior, each text's digest pinned under the header's
name as ``dot/b<index>_<id>.dot``.  So must it on five seeded random traces
of over 200 ops (``groups.json`` and ``dot/full.dot``), and
``exhaustive`` without a checker a ``states.json`` whose digest equals
the pinned one, on the programs and on generated traces whose subsets
share a long forced prefix, so a refactor of happens-before, grouping, DOT rendering,
schedule enumeration, replay or state dedup cannot change them silently.
``states.json`` names each state by its image digest and records the first
schedule that reaches it, so it pins the enumeration order too.
``test`` with each program's benchmark checker must write pinned
``bugs.json`` and ``stats.json``, and ``exhaustive`` with it a pinned
``states.json`` with verdicts, so the report writer and the oracle path
are held to the same bytes; so are the outputs of ``analyze`` and
``test`` on the benchmark's two ``scale`` traces at seed 7.  Every pinned file is
independent of the input and output paths.  The update
behaviors derived from 300 small random traces of each kind, with nested
backtraces (POSIX) and annotated stores (MMIO), are pinned the same way,
so a rewrite of either derivation cannot change them.  On a chain of
stores each behind its own flush and fence, where almost every order
repeats a state, what ``test_groups`` finds and counts before the budget
runs out is pinned for both enumerators.  Re-pin only in
a change that means to alter these outputs, and say why in CHANGES.md."""

import hashlib
import json
import random
import re
import shlex
from functools import partial

import pytest

from crashcheck import build_graph, model_edges, simulate
from crashcheck.behavior import make_behavior
from crashcheck.cli import main
from crashcheck.mmio_behaviors import derive_mmio_behaviors
from crashcheck.posix_behaviors import derive_posix_behaviors
from crashcheck.trace import serialize_trace

from conftest import WORKLOADS, bench_module, checker_cmd
from helpers import (
    log_then_tables_trace,
    random_annotated_mmio_trace,
    random_mmio_trace,
    random_nested_posix_trace,
    random_posix_trace,
    side_node_chain_trace,
    store_flush_fence_chain_trace,
)

# program -> (mode, {output file: sha256})
PINNED = {
    "current_update_buggy": (
        "POSIX",
        {
            "groups.json": "6bd32701fcba1ad30f95759022c1108fc232b07c04305115b61ea275a8f95541",
            "dot/b000_t0_Setup_0.dot": "7736963de503b10a368e6bdd21c5b8d14ce8537139c3585864cb3dab59d155f9",
            "dot/b001_t0_UpdateManifest_1.dot": "75bc16a1f23fdf2fdeac0e1edead9671d63879307f63c58696a35e744cb63268",
            "dot/b002_t0_UpdateManifest_m0.dot": "a813e2218e841cefc7050636928d28e717533c51bd16b3389b95cffc0059dab9",
            "dot/b003_t0_UpdateManifest_SetCurrentFile_3.dot": "a07115c642cc2e9ba9d7ce0a5d9607d5b6ac7bc5bade20c1a7ddf9fb9ed7b6e5",
            "dot/b004_t0_UpdateManifest_2.dot": "f9358a409bd8db2ac52ade74edd6a13e19f9be9eb0132721f78d55047df551e3",
            "dot/full.dot": "dac3cd20f5f83a6edcd8d8f9c0d370311b92a532fa582255da9053f27ca92c5c",
        },
    ),
    "current_update_fixed": (
        "POSIX",
        {
            "groups.json": "781ede587f6016efaff199c250e4ea2519c8b344343f7bc9b226f27f67c91014",
            "dot/b000_t0_Setup_0.dot": "a90510144b7dcb7d891130e6adec313123a04091edb6288e8d2ec6b1467f4878",
            "dot/b001_t0_UpdateManifest_1.dot": "57816f120c30e3b3c4e6a2131d114b7ee3590f066e964a544667e5c826a1fde0",
            "dot/b002_t0_UpdateManifest_m0.dot": "f4049887c236c8d87ea9203423cfcde155ec670fa202244c5f1533d55adfd581",
            "dot/b003_t0_UpdateManifest_SetCurrentFile_3.dot": "36c88ccda4e4dbfe1ae3d605a9b480bab15d8231ef224f295e12a51625b5db4e",
            "dot/b004_t0_UpdateManifest_2.dot": "bd7b2a652586aeebf31f34f9483518a6c2e89f4d44b152948c5feebd17ba5e0e",
            "dot/full.dot": "379a1e7dd238997afeea706fe618c2746d30df6d33384901a83f63384ee26251",
        },
    ),
    "entry_insert": (
        "MMIO",
        {
            "groups.json": "90ca19c15f61bc7c4925fec4a5dbcfb8b10a4fd903406b228420ab092153438d",
            "dot/b000_t0_entry_t.e0_e0.dot": "1566ba450c0395b0443f190c8ca6594146359a8dc781a4935567b55c7e9f7326",
            "dot/full.dot": "347d79266726bbd9daa494a7ef3ab7c323e51d03381d09771c926f31f39da2c9",
        },
    ),
    "entry_insert_ordered": (
        "MMIO",
        {
            "groups.json": "bbd454a1ac49521e25f63fd789da59c5ed56699f7c2f8196312fafe871e3eb76",
            "dot/b000_t0_entry_t.e0_e0.dot": "eeb672dfff60e2b115e5f5c6323d8f6eccc8b36d63c6f123875de2125ca044d6",
            "dot/full.dot": "24bdc61fa3038952a867be8952d678d19cc508fd82a1bf7e8173ec19022cba70",
        },
    ),
    "entry_insert_safe": (
        "MMIO",
        {
            "groups.json": "7289b3f88742bfc68dd2eff21c62f13d97ecefa147a42dfcff5e79d41e392da8",
            "dot/b000_t0_entry_t.e0_e0.dot": "5e3dfa9b02a6486d774ad6cb2cf9de658bbb9367befa0c94e0c455df551c5337",
            "dot/full.dot": "ac254d56eae0942a99a7f23252ce36e965f984f1cce332b81d325544f814608c",
        },
    ),
    "epochs": (
        "MMIO",
        {
            "groups.json": "873e22d70340070b2a624e81884877ac3779993e869398ca515a71b9cf498046",
            "dot/b000_t0_M.m0_e0.dot": "c9f0ded32a4b723c83c71df5a54fbeded7ce45b6f4b16ebcbacda0d0f043ad6a",
            "dot/b001_t0_M.m0_e1.dot": "46be920eb3d9e55d6e1ddf9000364785a9ef043cf058d7247401037c2b398ce4",
            "dot/b002_t0_N.n0_e0.dot": "41f3793aefa000f6c0ce637a862f4bc30170bfe769ac4f477e5203d656b0176b",
            "dot/b003_t0_M.m0_e2.dot": "9e846029fe2bd2a5bfb61374238324fc01afeb758d330f65683ab99b864bee77",
            "dot/full.dot": "4374326b439c058c157fa909a27d4e7a63c9b64bd0fe201d26a98de8e051ea56",
        },
    ),
    "fig3": (
        "POSIX",
        {
            "groups.json": "7c36aa5bdba43167e6b06baa7082ac73726cd14769ea68d341ee2829efe00300",
            "dot/b000_t0_Fn1_Fn2_0.dot": "35fdce4b2a6b3515e787c72378480e6949cd1aa5f5c70e4077678f77e7afbc41",
            "dot/b001_t0_Fn1_m1.dot": "08235519168998a5323bbf4b9f62a62172bf22f600b1e8de913ccaf6970a9e12",
            "dot/b002_t0_Fn1_Fn3_Fn4_1.dot": "098c05174e88fd6132ae0a224d7d267d0c3b75bb5bc92306ac40e4f580ecaea8",
            "dot/b003_t0_Fn1_Fn3_m0.dot": "88478805441e69e98ffff42ec5a9e999d86dd0341abfccf50d4b3f0f25bbabad",
            "dot/b004_t0_Fn1_Fn3_Fn5_2.dot": "d5479a17598de1d075c0990d4471d0146af9d3f2b275eed01712f796c72b2150",
            "dot/full.dot": "08235519168998a5323bbf4b9f62a62172bf22f600b1e8de913ccaf6970a9e12",
        },
    ),
    "two_writes": (
        "POSIX",
        {
            "groups.json": "b016b5fd608888fa39f0ba387effe5e8fbebe0fd15b499f09ea433414d054038",
            "dot/b000_t0_main_0.dot": "b1c0e4018055b5ff8d39b8bcf8d9b91c6b094f5ecb5f6ced0f83b55c998f2ba5",
            "dot/full.dot": "b1c0e4018055b5ff8d39b8bcf8d9b91c6b094f5ecb5f6ced0f83b55c998f2ba5",
        },
    ),
}


# name -> (seed, generator, {output file: sha256}) for seeded random traces
# of over 200 ops.  Each full graph holds every rule of its mode hundreds to
# thousands of times, so these pin which rule names a pair and the
# (src, dst) order of the DOT edges at scale.
PINNED_RANDOM = {
    "posix": (
        0,
        lambda rng: random_posix_trace(rng, 240),
        {
            "groups.json": "4b14c4a4a9b2bc00eb41f6ccf52fe79e7f740fd996775a64fe532451c42cb708",
            "dot/full.dot": "f7ee08a5dbde58c45c473a2c0575ffd3e5707390cf4cb58cb062a6034d538302",
        },
    ),
    "mmio": (
        2,
        lambda rng: random_mmio_trace(rng, 240),
        {
            "groups.json": "1d2098eceaf809a9438ec4012d36c92dfcb67e16d0e5ddf3a27c1226b06d665b",
            "dot/full.dot": "0499f360c2ed0e88590a0dc09eb651f54a8e11e1aac56cd951acd19b13371d92",
        },
    ),
    "posix_3threads": (
        2,
        lambda rng: random_posix_trace(rng, 240, threads=3),
        {
            "groups.json": "9c223bf66a3fb38eba3dff78dec026198a69e6c0f5ef031f1f162b8ceebf4357",
            "dot/full.dot": "c8402ad3d6730395b95f96a4c9f63ae83770859c39a7f4416d5f4ce30be0effc",
        },
    ),
    "posix_nested_2threads": (
        0,
        lambda rng: random_nested_posix_trace(rng, 240, threads=2),
        {
            "groups.json": "4ed74cee4b3a527281edd16e9545d4a0e60cd8960edf2687083b5a3a5935875b",
            "dot/full.dot": "91ba50ed45933f18f1b000c8aab52a44650048587d4e5f4a07863dc597a70da5",
        },
    ),
    "mmio_annotated": (
        0,
        lambda rng: random_annotated_mmio_trace(rng, 240),
        {
            "groups.json": "2e501ecd0c90a8ce4ecdec54705da66810e609c6beda0b441657c9082f14316c",
            "dot/full.dot": "42495166dc5b6277b6c07be9d28bb01103b27b15ba83cf44131f99b92b9cb455",
        },
    ),
}


# program -> sha256 of ``exhaustive`` ``states.json`` without a checker.
PINNED_STATES = {
    "current_update_buggy": "a10e9cc76c80527a87302ed483d574f7dbd16a83bba267f74a907da359e5c2a4",
    "current_update_fixed": "7ce60cbf469dfa23426bb4d30d5340ef36ffc26b27604545252c81407c11acbe",
    "entry_insert": "b2273fbd90da06b6bc8bf85a46fde03fa96e5f67cbde62b08070a456e330c622",
    "entry_insert_ordered": "d506b7f2150a8b3a4706ff007638b542875dac08272a4349b18d86bba4697133",
    "entry_insert_safe": "7aae3444c2487c5c6f7d361228bfa053ba53c34f0dda647ebecde03c6abd228d",
    "epochs": "1f9b51787789f71c00f761cbebfd2be1b251783ff249eef554987c81f99803e4",
    "fig3": "a174174d97069e6ca33c10cc965c4b40d75b4e26e47417cb9445082a5cbbf9e6",
    "two_writes": "6ee000e1acd25a296497b7c40d54c674abee08b0c4f4c9d8b2ed9b8c6622d8cb",
}


def test_every_shipped_program_is_pinned():
    programs = {path.stem for path in WORKLOADS.glob("*.dsl")}
    assert programs == PINNED.keys() == PINNED_CHECKED.keys() == PINNED_STATES.keys()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_analyze_outputs_match_the_pinned_digests(tmp_path, name):
    mode, pinned = PINNED[name]
    out = tmp_path / "out"
    assert main(["analyze", "--mode", mode, "--dsl", str(WORKLOADS / f"{name}.dsl"), "--out", str(out)]) == 0
    assert sorted(path.name for path in (out / "dot").iterdir()) == ["behaviors.dot", "full.dot"]
    got = {file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in ("groups.json", "dot/full.dot")}
    # behaviors.dot is a "// <stem>" header line and then that behavior's
    # DOT text, for each behavior: each text is pinned as dot/<stem>.dot.
    text = (out / "dot" / "behaviors.dot").read_bytes()
    before, *parts = re.split(rb"^// (.*)\n", text, flags=re.MULTILINE)
    stems, sections = parts[::2], parts[1::2]
    assert before == b"" and b"".join(b"// %s\n%s" % pair for pair in zip(stems, sections)) == text
    for stem, section in zip(stems, sections):
        got[f"dot/{stem.decode()}.dot"] = hashlib.sha256(section).hexdigest()
    assert len(got) == 2 + len(stems)
    assert got == pinned


@pytest.mark.parametrize("name", sorted(PINNED_RANDOM))
def test_analyze_outputs_on_random_traces_match_the_pinned_digests(tmp_path, name):
    seed, make, pinned = PINNED_RANDOM[name]
    trace = make(random.Random(seed))
    assert len(trace.ops) > 200
    path = tmp_path / "trace.jsonl"
    path.write_bytes(serialize_trace(trace))
    out = tmp_path / "out"
    assert main(["analyze", "--trace", str(path), "--out", str(out)]) == 0
    got = {file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in pinned}
    assert got == pinned


# generator -> (checker, {output file: sha256}) of ``analyze`` and of
# ``test`` with the checker on the benchmark's ``scale`` traces at seed 7:
# hundreds of behaviors over a few call sites, so these pin the views,
# behaviors and grouping at the size the benchmark runs them.
PINNED_SCALE = {
    "pointer_update_trace": ("current_pointer.py", {
        "analyze/groups.json": "76db465085ff4efb199749d4bf114af9f46c4d381b61899d7fb98695ac5270c8",
        "analyze/dot/full.dot": "5d4e0c00bee206cb7daba7e149b0bf990da8bfcf96392c0dd2bf7acc26e760bb",
        "analyze/dot/behaviors.dot": "5b74457d344b9c27e5f988ef643e7b39a8c8a61f7b00ceb1012e0513db31bfd1",
        "test/bugs.json": "c3bb47027d477bec909a612ac6d44176955148d8b8bb5e2508c8b15023f62c82",
        "test/stats.json": "58b06c79f10204e1a98f107cf7aa76c354e99db63a1e50d33d48de5a7c1ff2e8",
    }),
    "entry_insert_trace": ("entry_valid.py", {
        "analyze/groups.json": "d265a611eaf237ffc882f179a5b22b4472b1f93c2a81b1e63c98a7d4ff651647",
        "analyze/dot/full.dot": "db24ddb987f68c65f2cf38b21c55edeabb7e8a1b0b5526292f76cd27020505f4",
        "analyze/dot/behaviors.dot": "a4be896ca8da5f8b90cc85851451de8b59162822718c6a6b3b6b95afa6aac68f",
        "test/bugs.json": "fc80e97def6fef155a59b5ae1ecc93878f7fd142113be5f1a263d522ea5db090",
        "test/stats.json": "98080d9bc96c80c2be09f6c1a6f8732ab12dc21dd7866a5f671b4d5623eb6690",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCALE))
def test_scale_outputs_match_the_pinned_digests(tmp_path, name):
    checker, pinned = PINNED_SCALE[name]
    path = tmp_path / "trace.jsonl"
    path.write_text(getattr(bench_module("gen"), name)(7))
    trace = ["--trace", str(path)]
    assert main(["analyze", *trace, "--out", str(tmp_path / "analyze")]) == 0
    assert main(["test", *trace, "--checker", shlex.join(checker_cmd(checker)), "--out", str(tmp_path / "test")]) == 1
    got = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in pinned}
    assert got == pinned


@pytest.mark.parametrize("name", sorted(PINNED_STATES))
def test_exhaustive_states_match_the_pinned_digest(tmp_path, name):
    mode, _ = PINNED[name]
    out = tmp_path / "out"
    assert main(["exhaustive", "--mode", mode, "--dsl", str(WORKLOADS / f"{name}.dsl"), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "states.json").read_bytes()).hexdigest() == PINNED_STATES[name]


# program -> (checker, {output file: sha256}) of ``test`` with the
# program's benchmark checker (``bugs.json``, ``stats.json``) and of
# ``exhaustive`` with it (``states.json``, whose states then carry
# verdicts).  The bug reports hold the checkers' output and each bug's
# subgraph DOT.  epochs.dsl runs ``test`` only.
PINNED_CHECKED = {
    "two_writes": ("always_ok.py", {
        "bugs.json": "032a1a341d7d77ccaf852a71384344d92b5e91a4175fe939574aee14880f5761",
        "stats.json": "a3243a320ec0f930f5e2244fc5123fef62f01989045d7c654f64033b747b23f1",
        "states.json": "d059ca206e5f699b75902f1795a81cc19acca43b8016dc4d92369f93ac55246d",
    }),
    "fig3": ("always_ok.py", {
        "bugs.json": "032a1a341d7d77ccaf852a71384344d92b5e91a4175fe939574aee14880f5761",
        "stats.json": "bfc000b1bda87a7355c1bcf4475f39325aa9811771189503746eb4786c1c96f7",
        "states.json": "f6e39a86b1d581301cabff1354846a6b66a461601879ecd729f46c16101620c3",
    }),
    "current_update_buggy": ("current_pointer.py", {
        "bugs.json": "464422acfdb40104a1c591f9bf2b17a87ef4a4f29e28194e287d345ab979027f",
        "stats.json": "2d07efee4b107f609d0472f21d5fd32b91ff2baf976cfd370d0782de455cc8dd",
        "states.json": "c8a423d885cc26a19051bca6b09dd2adc8084d8c7862b24008237523fe69120b",
    }),
    "current_update_fixed": ("current_pointer.py", {
        "bugs.json": "032a1a341d7d77ccaf852a71384344d92b5e91a4175fe939574aee14880f5761",
        "stats.json": "fc4140c10c9d2ed87af60906389a4587e479f44fa511adbc6e6c1a7fa6e4b422",
        "states.json": "59e6c550e7aa03a4153e8a50403f3aca88e1cad828d2a7d172c04cf892cef10a",
    }),
    "entry_insert": ("entry_valid.py", {
        "bugs.json": "daeb6bcd1878617d8d3fd1cd4bb2c15cc04c85a46811ee64a5015887b7f4d1c3",
        "stats.json": "98080d9bc96c80c2be09f6c1a6f8732ab12dc21dd7866a5f671b4d5623eb6690",
        "states.json": "6750a1bbad3627a1eebcfbe5d8d9b4aeac31af9982a62d49e3deb34198bdd461",
    }),
    "entry_insert_ordered": ("entry_valid.py", {
        "bugs.json": "d26be3644c63b745a1440ab7713b1767715e58a7eac83f6b1869ce8c65d367ff",
        "stats.json": "3fb29935e1ad6de4940babb6fd24545a14958ef542a229decc0c7f368bd458b7",
        "states.json": "49d7c711d44d3b7bde52cfdaa0e57efeace16e8dee647ecc4a081d009f89521f",
    }),
    "entry_insert_safe": ("entry_valid.py", {
        "bugs.json": "032a1a341d7d77ccaf852a71384344d92b5e91a4175fe939574aee14880f5761",
        "stats.json": "8c0013d40a3c6f4d4620d474241368e3fba10542121d446a6075538dd93ff382",
        "states.json": "6434f4a613767c4251e7152108aa13881e14b6c9f2866c9229f3a0c7ddb8752c",
    }),
    "epochs": ("always_ok.py", {
        "bugs.json": "032a1a341d7d77ccaf852a71384344d92b5e91a4175fe939574aee14880f5761",
        "stats.json": "777bf4c46f1d2907f7e0000abaed4ca31f67beaf6ec22e44efed150095dbf397",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECKED))
def test_checked_outputs_match_the_pinned_digests(tmp_path, name):
    mode, _ = PINNED[name]
    checker, pinned = PINNED_CHECKED[name]
    program = ["--mode", mode, "--dsl", str(WORKLOADS / f"{name}.dsl"), "--checker", shlex.join(checker_cmd(checker))]
    main(["test", *program, "--out", str(tmp_path)])
    if "states.json" in pinned:
        main(["exhaustive", *program, "--out", str(tmp_path)])
    got = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in pinned}
    assert got == pinned


# name -> (trace builder, extra arguments, sha256 of ``exhaustive``
# ``states.json`` without a checker) for generated traces whose walks share
# a long forced prefix from one subset to the next.
PINNED_LONG_PREFIX_STATES = {
    "log_then_tables": (
        lambda: log_then_tables_trace(60, 5),
        [],
        "3fa448ea1c1d666f88d62599e09234b690b57c3f4197b7ab3195f07697f37ac4",
    ),
    "side_node_chain": (
        lambda: side_node_chain_trace(16, 6),
        [],
        "abaccc95223a30c39011bdab7ff744443e49ad1ed3af9ee607e11142813a6c6d",
    ),
    "posix_3threads_budget": (
        lambda: random_posix_trace(random.Random(5), 16, threads=3),
        ["--budget", "40"],
        "bba77c5f0d046532a7dc1aa92dec0fd530252f29482610d73a348f5bcb3cb3d9",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_LONG_PREFIX_STATES))
def test_exhaustive_states_of_long_prefix_traces_match_the_pinned_digest(tmp_path, name):
    make, extra, pinned = PINNED_LONG_PREFIX_STATES[name]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(serialize_trace(make()))
    out = tmp_path / "out"
    assert main(["exhaustive", "--trace", str(path), "--out", str(out), *extra]) == 0
    assert hashlib.sha256((out / "states.json").read_bytes()).hexdigest() == pinned


# derivation -> sha256 of the behaviors derived from 300 seeded small
# traces, each behavior as its (id, owner, tid, node seqs, span).  The
# flat-backtrace, unannotated traces pinned above never reach a merge, a
# composite type or a criterion-1 cut; these do, thousands of times.
# The POSIX entries carry their (eps, min_pts); MMIO has none.
PINNED_BEHAVIORS = {
    "posix_eps10_min1": ((10, 1), "0109022f029f644c2858073bc64679cc5604d97ce07f32e671ae27754d7cd096"),
    "posix_eps3_min2": ((3, 2), "6fd3088f9d38a23f30d122b05574715a92477f962a3029bdf7b29d1053f12d86"),
    "posix_eps1_min1": ((1, 1), "ce04760368d47c7db066ca1bc97390a20690d326d4840ab5ca881efd56aa92e6"),
    "mmio": (None, "e9e5d89341c56d9c2c2e120f1c8fadad154f44480f7115415ea220c6b70d1225"),
}


def _behaviors_digest(clustering: tuple[int, int] | None) -> str:
    digest = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        if clustering is None:
            trace = random_annotated_mmio_trace(rng, 24, threads=1 + seed % 3)
            behaviors = derive_mmio_behaviors(build_graph(trace, model_edges(trace)), trace)
        else:
            eps, min_pts = clustering
            trace = random_nested_posix_trace(rng, 24, threads=1 + seed % 3)
            behaviors = derive_posix_behaviors(
                build_graph(trace, model_edges(trace)), trace, eps=eps, min_pts=min_pts
            )
        for b in behaviors:
            digest.update(repr((b.id, b.owner_function, b.tid, b.node_seqs, b.span)).encode() + b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_BEHAVIORS))
def test_behaviors_derived_from_random_traces_match_the_pinned_digest(name):
    clustering, pinned = PINNED_BEHAVIORS[name]
    assert _behaviors_digest(clustering) == pinned


# enumerator -> (budget in subsets, sha256 of each state ``test_groups``
# finds, as its applied seqs and digest, and of its stats) on the
# whole-trace behavior of a chain of 20 stores, each followed by a flush
# and a fence.  Both enumerators run out of budget, so the pin holds where
# the walk stops as well as what comes before.
PINNED_BARRIER_CHAIN = {
    "enumerate_schedules": (10_000, "ec5ec3a92176a570e9b1bcec03071a2d19fa02462cca5d3c520c418f64cab863"),
    "exhaustive_schedules": (10_000, "08bd35ae1b7f8e81c42c6b60193598a83f944f980b1fa1ca24a40345395be501"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BARRIER_CHAIN))
def test_explore_on_a_barrier_chain_matches_the_pinned_digest(name):
    budget, pinned = PINNED_BARRIER_CHAIN[name]
    trace = store_flush_fence_chain_trace(20)
    graph = build_graph(trace, model_edges(trace))
    behavior = make_behavior("whole", "*", 0, graph.node_seqs, graph)
    digest = hashlib.sha256()
    schedules_of = partial(getattr(simulate, name), trace=trace, budget=budget)
    _, stats, states = simulate.test_groups([behavior], schedules_of, trace)
    for state, (schedule, _) in states.items():
        digest.update(json.dumps([schedule.applied_seqs, state]).encode() + b"\n")
    # The pin was taken over counts that named no representative tested.
    digest.update(json.dumps({**stats, "representatives_tested": 0}).encode())
    assert digest.hexdigest() == pinned
