"""Policy generators: each family's behavior through a live engine."""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import re

import pytest

from sfvm.actions import RET_ALLOW, RET_ERRNO, RET_KILL_PROCESS
from sfvm.engine import Engine
from sfvm.isa import MapKind, encode_program
from sfvm.policies import (
    GENERATORS,
    PARAMS,
    PROFILE_NR_LIMIT,
    SENTINEL,
    PhaseProfile,
    PolicySpecError,
    build_program,
    gen_allow_all,
    gen_allowlist,
    gen_count_limit,
    gen_denylist,
    gen_flow_integrity,
    gen_phase_baseline,
    gen_rate_limit,
    gen_serialization,
    gen_temporal,
    gen_validation_cache,
    load_profiles,
    parse_action,
)

from . import fuzz_inputs
from .helpers import TEST_SPECS, attach, ctx, probe, spec_corpus


def fresh(program):
    eng = Engine()
    tid = attach(eng, program)
    return eng, tid


def sweep(program, numbers, **ctx_kwargs):
    eng, tid = fresh(program)
    return {n: probe(eng, tid, ctx(n, **ctx_kwargs))["action"]
            for n in numbers}


# -- action specs -----------------------------------------------------------


def test_parse_action_forms():
    assert parse_action("allow") == RET_ALLOW
    assert parse_action("kill_process") == RET_KILL_PROCESS
    assert parse_action("errno:13") == RET_ERRNO | 13
    assert parse_action("errno:0x16") == RET_ERRNO | 22
    assert parse_action(0x30000) == 0x30000
    assert parse_action(0) == 0 and parse_action(0xFFFFFFFF) == 0xFFFFFFFF


@pytest.mark.parametrize("spec", ["errno:9999", "maybe", None, "errno:x",
                                  2 ** 40, 0x17fff0000, -1, True])
def test_parse_action_rejects_junk(spec):
    named = f"{spec:#x}" if type(spec) is int else repr(spec)
    with pytest.raises(ValueError, match=re.escape(named)):
        parse_action(spec)


# -- set policies ------------------------------------------------------------


def test_allow_all_is_two_instructions():
    program = gen_allow_all()
    assert len(program.instructions) == 2
    assert sweep(program, [0, 1, 450]) == {0: "allow", 1: "allow",
                                           450: "allow"}


MEMBERS = {0, 1, 3, 17, 42, 100, 255}


@pytest.mark.parametrize("layout", ["linear", "tree", "hash"])
def test_allowlist_layouts_agree(layout):
    program = gen_allowlist(MEMBERS, layout=layout)
    got = sweep(program, range(0, 300))
    for n, action in got.items():
        assert action == ("allow" if n in MEMBERS else "errno"), (layout, n)


def test_allowlist_custom_denial():
    program = gen_allowlist({2}, deny="errno:38")
    eng, tid = fresh(program)
    record = probe(eng, tid, ctx(3))
    assert record["action"] == "errno" and record["errno"] == 38


def test_allowlist_unknown_layout():
    with pytest.raises(ValueError, match="layout"):
        gen_allowlist({1}, layout="btree")


def test_denylist_blocks_members_only():
    for layout in ("linear", "hash"):
        got = sweep(gen_denylist({2, 9}, layout=layout), range(0, 12))
        assert [n for n, a in got.items() if a == "errno"] == [2, 9]


def test_denylist_deny_beyond_u32_is_refused_not_allowed():
    # 0x17fff0000 would keep only its low 32 bits at exit: RET_ALLOW
    spec = {"generator": "denylist", "denied": [59], "deny": 0x17fff0000}
    with pytest.raises(PolicySpecError, match="denylist: field 'deny'"):
        build_program(spec)
    got = sweep(build_program({**spec, "deny": "kill_process"}), [58, 59])
    assert got == {58: "allow", 59: "kill_process"}


def test_hash_denylist_text_is_independent_of_the_set():
    a = gen_denylist(range(16), layout="hash")
    b = gen_denylist(range(256), layout="hash")
    assert a.instructions == b.instructions
    da, db = a.map_refs[0], b.map_refs[0]
    assert (da.kind, da.key_size, da.value_size, da.max_entries) == \
        (db.kind, db.key_size, db.value_size, db.max_entries)
    assert da.initial_entries != db.initial_entries
    with pytest.raises(ValueError, match="capacity"):
        gen_denylist(range(600), layout="hash")


# -- counters ----------------------------------------------------------------


def test_count_limit_budgets_one_syscall():
    eng, tid = fresh(gen_count_limit(7, max_count=3))
    for _ in range(3):
        assert probe(eng, tid, ctx(7))["action"] == "allow"
    assert probe(eng, tid, ctx(7))["action"] == "errno"
    assert probe(eng, tid, ctx(8))["action"] == "allow"   # others unmetered
    assert probe(eng, tid, ctx(7))["action"] == "errno"   # still spent


def test_count_limit_with_argument_guard():
    eng, tid = fresh(gen_count_limit(7, max_count=1, arg_index=0,
                                     arg_value=5))
    assert probe(eng, tid, ctx(7, 4))["action"] == "allow"
    assert probe(eng, tid, ctx(7, 5))["action"] == "allow"
    assert probe(eng, tid, ctx(7, 5))["action"] == "errno"
    assert probe(eng, tid, ctx(7, 4))["action"] == "allow"


def test_count_limit_guard_validation():
    with pytest.raises(ValueError, match="go together"):
        gen_count_limit(7, 1, arg_index=0)
    with pytest.raises(ValueError, match="out of range"):
        gen_count_limit(7, 1, arg_index=6, arg_value=0)


def test_rate_limit_token_bucket():
    eng, tid = fresh(gen_rate_limit(7, rate_per_sec=2, capacity=2))
    # burst capacity of two, both spent at t=0
    assert probe(eng, tid, ctx(7))["action"] == "allow"
    assert probe(eng, tid, ctx(7))["action"] == "allow"
    third = probe(eng, tid, ctx(7))
    assert third["action"] == "errno" and third["errno"] == 11
    # half a second buys one token at two per second
    eng.clock_ns += 500_000_000
    assert probe(eng, tid, ctx(7))["action"] == "allow"
    assert probe(eng, tid, ctx(7))["action"] == "errno"
    # a long sleep refills to capacity, not beyond
    eng.clock_ns += 60 * 1_000_000_000
    assert probe(eng, tid, ctx(7))["action"] == "allow"
    assert probe(eng, tid, ctx(7))["action"] == "allow"
    assert probe(eng, tid, ctx(7))["action"] == "errno"
    # unmetered syscalls ride free
    assert probe(eng, tid, ctx(8))["action"] == "allow"


def test_rate_limit_validation():
    with pytest.raises(ValueError, match="positive"):
        gen_rate_limit(7, 0, 1)
    with pytest.raises(ValueError, match="positive"):
        gen_rate_limit(7, 1, 0)
    with pytest.raises(ValueError, match="overflows"):
        gen_rate_limit(7, 1, 2 ** 64 // 10 ** 9 + 1)


# -- two-phase ---------------------------------------------------------------


SMALL = PhaseProfile("small", frozenset({0, 1, 2}), frozenset({2, 3}), 9)


def test_temporal_narrows_after_the_marker():
    eng, tid = fresh(gen_temporal(SMALL))
    assert probe(eng, tid, ctx(0))["action"] == "allow"
    assert probe(eng, tid, ctx(3))["action"] == "errno"    # serving-only
    assert probe(eng, tid, ctx(9))["action"] == "allow"    # the switch
    assert probe(eng, tid, ctx(0))["action"] == "errno"    # init-only
    assert probe(eng, tid, ctx(2))["action"] == "allow"    # in both
    assert probe(eng, tid, ctx(3))["action"] == "allow"
    assert probe(eng, tid, ctx(9))["action"] == "errno"    # marker spent


def test_phase_baseline_union_and_serv():
    union = sweep(gen_phase_baseline(SMALL, "union"), range(0, 11))
    assert [n for n, a in union.items() if a == "allow"] == [0, 1, 2, 3, 9]
    serv = sweep(gen_phase_baseline(SMALL, "serv"), range(0, 11))
    assert [n for n, a in serv.items() if a == "allow"] == [2, 3]
    with pytest.raises(ValueError, match="phase"):
        gen_phase_baseline(SMALL, "boot")


def test_profile_arithmetic():
    assert SMALL.union_size == 4
    assert SMALL.common_size == 1
    assert SMALL.reduction_pct == pytest.approx(25.0)


@pytest.mark.parametrize("raw,message", [
    (5, "must be an object"),
    ({"init": [[0, 3]], "serv": [[2, 4]]}, "missing 'marker'"),
    ({"serv": [[2, 4]], "marker": 9}, "missing 'init'"),
    ({"init": [[0, 3]], "serv": [[2, 4]], "marker": 9, "mark": 1},
     "unknown key 'mark'"),
    ({"init": [[0, 3]], "serv": [[2, 4]], "marker": "9"},
     "marker must be an integer"),
    ({"init": [[0, 3]], "serv": [[2, 4]], "marker": True},
     "marker must be an integer"),
    ({"init": [[0, 3]], "serv": [[2, 4]], "marker": 9, "name": 1},
     "name must be a string"),
    ({"init": [0, 3], "serv": [[2, 4]], "marker": 9}, "init must be"),
    ({"init": [[0, 3, 5]], "serv": [[2, 4]], "marker": 9}, "init must be"),
    ({"init": [[0, 3]], "serv": [[4, 2]], "marker": 9}, "serv must be"),
    ({"init": [[0, 3]], "serv": [[-1, 2]], "marker": 9}, "serv must be"),
    ({"init": [[0, PROFILE_NR_LIMIT + 1]], "serv": [], "marker": 9},
     "init must be"),
    ({"init": [["0", 3]], "serv": [], "marker": 9}, "init must be"),
])
def test_profile_from_json_checks_its_object(raw, message):
    with pytest.raises(ValueError, match=message):
        PhaseProfile.from_json("p", raw)


def test_profile_from_json_reads_ranges_as_half_open():
    profile = PhaseProfile.from_json(
        "p", {"name": "q", "init": [[0, 3], [5, 6]], "serv": [[3, 3]],
              "marker": 9})
    assert (profile.name, profile.s_init, profile.s_serv,
            profile.marker_nr) == ("p", {0, 1, 2, 5}, frozenset(), 9)


def test_load_profiles_refuses_malformed_files(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="JSON object"):
        load_profiles(path)
    path.write_text(json.dumps({"app": {"init": [], "serv": []}}))
    with pytest.raises(ValueError, match="profile 'app' is missing 'marker'"):
        load_profiles(path)


def test_bundled_profiles_load():
    profiles = load_profiles()
    assert sorted(profiles) == ["bind", "httpd", "lighttpd", "memcached",
                                "nginx", "redis"]
    for profile in profiles.values():
        assert profile.s_init and profile.s_serv
        assert profile.marker_nr not in profile.s_init | profile.s_serv
        assert 0 < profile.reduction_pct < 100


def test_bundled_profiles_are_parsed_once(monkeypatch):
    first = load_profiles()
    monkeypatch.setattr(PhaseProfile, "from_json", None)    # no parse
    again = load_profiles()
    assert again is not first and again == first
    assert all(again[name] is first[name] for name in first)
    again.clear()       # a caller's own dict
    assert load_profiles() == first


def test_a_profiles_file_is_read_on_every_call(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"app": {"init": [[0, 2]], "serv": [],
                                        "marker": 9}}))
    assert load_profiles(path)["app"].s_init == {0, 1}
    path.write_text(json.dumps({"app": {"init": [[0, 3]], "serv": [],
                                        "marker": 9}}))
    assert load_profiles(path)["app"].s_init == {0, 1, 2}


# -- transition policies --------------------------------------------------


FLOW = dict(syscalls=[10, 20, 30],
            transitions=[(None, 10), (10, 20), (20, 30), (30, 20)])


def test_flow_integrity_walks_the_machine():
    eng, tid = fresh(gen_flow_integrity(deny="errno:1", **FLOW))
    for nr, want in [(10, "allow"), (20, "allow"), (30, "allow"),
                     (20, "allow"), (10, "errno"), (30, "allow"),
                     (99, "errno")]:
        assert probe(eng, tid, ctx(nr))["action"] == want, nr


def test_flow_integrity_must_start_at_an_entry_point():
    eng, tid = fresh(gen_flow_integrity(deny="errno:1", **FLOW))
    assert probe(eng, tid, ctx(20))["action"] == "errno"
    assert probe(eng, tid, ctx(10))["action"] == "allow"


def test_flow_state_is_per_process():
    eng, parent = fresh(gen_flow_integrity(deny="errno:1", **FLOW))
    assert probe(eng, parent, ctx(10))["action"] == "allow"
    assert probe(eng, parent, ctx(20))["action"] == "allow"
    child = eng.spawn(parent=parent)
    assert probe(eng, child, ctx(30))["action"] == "errno"  # fresh machine
    assert probe(eng, child, ctx(10))["action"] == "allow"
    # and the parent's position is undisturbed
    assert probe(eng, parent, ctx(30))["action"] == "allow"


def test_flow_origin_pinning():
    program = gen_flow_integrity([10], [(None, 10)],
                                 origins={10: [0x400100, 0x400200]},
                                 deny="errno:1")
    eng, tid = fresh(program)
    assert probe(eng, tid, ctx(10, addr=0x999))["action"] == "errno"
    assert probe(eng, tid, ctx(10, addr=0x400100))["action"] == "allow"


def test_flow_integrity_validation():
    with pytest.raises(ValueError, match="at least one"):
        gen_flow_integrity([], [])
    with pytest.raises(ValueError, match="ungoverned"):
        gen_flow_integrity([10], [(None, 99)])
    with pytest.raises(ValueError, match="ungoverned"):
        gen_flow_integrity([10], [(None, 10)], origins={99: [1]})
    with pytest.raises(ValueError, match="from ungoverned syscall 99"):
        gen_flow_integrity([10], [(99, 10)])


# -- serialization ----------------------------------------------------------


def test_serialization_map_layout():
    program = gen_serialization({42: [77], 1: [2, 3]})
    decl = program.map_refs[0]
    assert decl.kind == MapKind.HASH and decl.value_size == 16
    u64 = lambda v: v.to_bytes(8, "little")
    assert decl.initial_entries[u64(42)] == u64(77) + u64(SENTINEL)
    assert decl.initial_entries[u64(1)] == u64(2) + u64(3)


def test_serialization_registers_only_paired_syscalls():
    eng, tid = fresh(gen_serialization({42: [77]}))
    assert probe(eng, tid, ctx(9))["action"] == "allow"
    assert eng.in_flight.counts == {}
    record = eng.run_syscall(tid, ctx(42))
    assert record["action"] == "allow"
    assert eng.in_flight.count(42) == 1      # held until the exit
    eng.syscall_exit(tid)
    assert eng.in_flight.count(42) == 0


def test_serialization_validation():
    with pytest.raises(ValueError, match="partners"):
        gen_serialization({1: []})
    with pytest.raises(ValueError, match="partners"):
        gen_serialization({1: [2, 3, 4]})
    # a partner that is the sentinel as a u64 would mean "no partner"
    for partner in (-1, SENTINEL, 2 ** 65 - 1):
        with pytest.raises(ValueError, match=f"syscall 1: partner {partner} "
                                             f"is the empty-slot sentinel"):
            gen_serialization({1: [2, partner]})
    gen_serialization({1: [-2, SENTINEL - 1]})     # its neighbours are not


# -- dispatched validation ----------------------------------------------------


RULES = {7: {0: [1, 2], 1: [10]}, 8: {0: [0]}}


def probe_matrix(program):
    eng, tid = fresh(program)
    out = {}
    for nr in (7, 8, 9):
        for a0 in (0, 1, 2):
            for a1 in (0, 10):
                out[(nr, a0, a1)] = probe(eng, tid,
                                          ctx(nr, a0, a1))["action"]
    return out


def test_validation_rules_check_each_argument():
    got = probe_matrix(gen_validation_cache(RULES, cached=False))
    assert got[(7, 1, 10)] == "allow"
    assert got[(7, 2, 10)] == "allow"
    assert got[(7, 0, 10)] == "errno"        # arg0 out of set
    assert got[(7, 1, 0)] == "errno"         # arg1 out of set
    assert got[(8, 0, 0)] == "allow"
    assert got[(8, 1, 0)] == "errno"
    assert got[(9, 0, 0)] == "allow"         # ungoverned: default


def test_cache_changes_no_decisions():
    assert probe_matrix(gen_validation_cache(RULES, cached=True)) == \
        probe_matrix(gen_validation_cache(RULES, cached=False))


def test_cache_cuts_repeat_cost():
    # staging the 48-byte key costs more than walking a short chain, so
    # the win only shows once the comparison chains are long
    wide = {7: {0: list(range(0, 96, 2)), 1: list(range(100, 148))}}

    def cost(cached):
        eng, tid = fresh(gen_validation_cache(wide, cached=cached))
        return sum(probe(eng, tid, ctx(7, 46, 137))["steps"]
                   for _ in range(50))

    assert cost(True) < cost(False)


def test_validation_default_action():
    program = gen_validation_cache(RULES, cached=False, default="errno:13")
    eng, tid = fresh(program)
    record = probe(eng, tid, ctx(9))
    assert record["action"] == "errno" and record["errno"] == 13


def test_validation_rejects_empty_rules():
    with pytest.raises(ValueError, match="no rules"):
        gen_validation_cache({})
    with pytest.raises(ValueError, match="indexes 0-4"):
        gen_validation_cache({7: {5: [1]}})


# -- the trace-facing constructor -------------------------------------------


def test_build_program_dispatches():
    for spec in TEST_SPECS:
        eng, tid = fresh(build_program(spec))
        probe(eng, tid, ctx(0))


def test_build_program_rejects_unknown_generators():
    with pytest.raises(PolicySpecError, match="unknown policy generator"):
        build_program({"generator": "firewall"})


# sha256 over the sha256 of each program's encoding, in corpus order, as
# the generators built them before `GENERATORS` drove `build_program`
SPEC_CORPUS_SIZE = 134
SPEC_CORPUS_DIGEST = \
    "56b1004a39b39641d0233a81892e7b2711baeaf3d5c526c4adf730015e29e1f4"


def test_spec_corpus_builds_the_pinned_programs():
    corpus = spec_corpus()
    digest = hashlib.sha256()
    for spec in corpus:
        digest.update(hashlib.sha256(
            encode_program(build_program(spec))).digest())
    assert (len(corpus), digest.hexdigest()) == \
        (SPEC_CORPUS_SIZE, SPEC_CORPUS_DIGEST)


def test_every_generator_field_names_a_parameter():
    for name, (gen, summary, shape) in GENERATORS.items():
        params = inspect.signature(gen).parameters
        assert summary and len(summary) <= 58, name
        fields = {PARAMS.get(key, key): (key,) in shape.required
                  for key in shape.types.keys() - {"generator"}}
        # every parameter is reachable from a spec, and a required field
        # has no default to fall back on
        assert fields == {param: value.default is inspect.Parameter.empty
                          for param, value in params.items()}, name


def test_full_specs_cover_every_field_and_build():
    assert list(fuzz_inputs.FULL_SPECS) == list(GENERATORS)
    for name, spec in fuzz_inputs.FULL_SPECS.items():
        assert set(spec) == set(GENERATORS[name][2].types), name
        fuzz_inputs.FORMATS["spec"].run(spec, random.Random(1))


@pytest.mark.parametrize("spec,message", [
    ([], "a policy spec must be an object, not list"),
    ({}, "unknown policy generator None"),
    ({"generator": ["allowlist"]},
     r"unknown policy generator \['allowlist'\]"),
    ({"generator": "allowlist", "allowed": [1], "layuot": "tree"},
     "allowlist: unknown field 'layuot'"),
    ({"generator": "count_limit", "nr": 1},
     "count_limit: missing field 'max'"),
    ({"generator": "allowlist", "allowed": ["3"]},
     "allowlist: field 'allowed': must be a list of integers"),
    ({"generator": "allowlist", "allowed": [True]},
     "allowlist: field 'allowed': must be"),
    ({"generator": "allowlist", "allowed": [2 ** 63]},
     "allowlist: field 'allowed': must be"),
    ({"generator": "allowlist", "allowed": [1], "layout": 5},
     "allowlist: field 'layout': must be a string"),
    ({"generator": "allowlist", "allowed": [1], "layout": "btree"},
     "allowlist: unknown allowlist layout 'btree'"),
    ({"generator": "denylist", "denied": [59], "deny": True},
     "denylist: field 'deny': unknown action spec True"),
    ({"generator": "denylist", "denied": [59], "deny": 2 ** 40},
     "denylist: field 'deny': raw action 0x10000000000"),
    ({"generator": "count_limit", "nr": 1, "max": 2.0},
     "count_limit: field 'max': must be an integer"),
    ({"generator": "count_limit", "nr": 1, "max": 2, "arg_index": 0},
     "count_limit: arg_index and arg_value go together"),
    ({"generator": "rate_limit", "nr": 1, "rate": 1, "capacity": 2 ** 62},
     "rate_limit: a capacity of"),
    ({"generator": "temporal", "profile": 5},
     "temporal: field 'profile': must be a bundled profile name"),
    ({"generator": "temporal", "profile": "nope"},
     "temporal: field 'profile': no bundled profile named 'nope'"),
    ({"generator": "temporal", "profile": {"init": [], "serv": []}},
     "temporal: field 'profile': profile 'inline' is missing 'marker'"),
    ({"generator": "flow_integrity", "syscalls": [1], "transitions": [[1]]},
     "flow_integrity: field 'transitions': must be"),
    ({"generator": "flow_integrity", "syscalls": [1],
      "transitions": [[None, 1]], "origins": {"x": [1]}},
     "flow_integrity: field 'origins': key 'x' is not a decimal number"),
    ({"generator": "flow_integrity", "syscalls": [1],
      "transitions": [[2, 1]]},
     "flow_integrity: transition from ungoverned syscall 2"),
    ({"generator": "serialization", "pairs": {"-1": [2]}},
     "serialization: field 'pairs': key '-1' is not a decimal number"),
    ({"generator": "serialization", "pairs": {"1": 2}},
     "serialization: field 'pairs': key '1': must be a list of integers"),
    ({"generator": "validation_cache", "rules": {"7": {"0": [1]}},
      "cached": "no"},
     "validation_cache: field 'cached': must be true or false"),
    ({"generator": "validation_cache", "rules": {"7": {"0": ["1"]}}},
     "validation_cache: field 'rules': key '7': key '0': must be"),
    ({"generator": "validation_cache", "rules": {"7": [1]}},
     "validation_cache: field 'rules': key '7': must be an object"),
    ({"generator": "validation_cache", "rules": {}},
     "validation_cache: no rules given"),
    ({"generator": "allowlist", "allowed": list(range(33000))},
     "allowlist: the generated program does not assemble"),
    ({"generator": "serialization", "pairs": {"1": [-1]}},
     "serialization: syscall 1: partner -1 is the empty-slot sentinel"),
])
def test_build_program_names_the_generator_and_field(spec, message):
    with pytest.raises(PolicySpecError, match=message):
        build_program(spec)


def test_a_spec_defaults_as_its_generator_does():
    # a field left out takes the default of the generator's signature
    assert encode_program(build_program({"generator": "rate_limit", "nr": 2,
                                         "rate": 3, "capacity": 4})) == \
        encode_program(gen_rate_limit(2, 3, 4))
    assert encode_program(build_program(
        {"generator": "flow_integrity", "syscalls": [1],
         "transitions": [[None, 1]], "origins": {}})) == \
        encode_program(gen_flow_integrity([1], [(None, 1)]))


def test_malformed_specs_are_refused_or_verify():
    # the spec slice of `python -m tests.fuzz_inputs`
    assert fuzz_inputs.fuzz("spec", random.Random(1)) == 0
