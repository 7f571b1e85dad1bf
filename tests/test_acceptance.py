"""Acceptance gates for the package as a whole.

Nine end-to-end criteria, one test each.  Every test prints a single
[PASS]/[FAIL] line naming its criterion, so `pytest -v -s` doubles as
the acceptance report.  Tolerances are pinned in the constants below;
loosening them is a design change, not a test fix.
"""

from __future__ import annotations

import random
import time

from sfvm.actions import ActionKind, ResolvedAction, resolve
from sfvm.asm import assemble
from sfvm.engine import Engine, EngineConfig
from sfvm.isa import SyscallContext, encode_program
from sfvm.policies import (
    SWEEP_DOMAIN,
    gen_denylist,
    gen_phase_baseline,
    gen_temporal,
    gen_validation_cache,
    load_profiles,
)
from sfvm.reporting import attack_surface_report
from sfvm.scenarios import (
    bundled_scenario_names,
    load_bundled_scenario,
    run_bundled,
)
from sfvm.sim import Simulator
from sfvm.trace import parse_trace
from sfvm.verifier import verify
from sfvm.vm import RuntimeEnv, VmThread

from .helpers import (
    attach, bundled_descriptors, ctx, fuzz_source, probe, trace_text,
)


def _verdict(num: int, claim: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {claim}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- 1: the phase-split surface numbers ------------------------------------

# union sizes and reduction percentages for the six bundled profiles,
# frozen from the profile data; reductions are checked to 0.05pp
SURFACE_EXPECTED = {
    "bind": (135, 44.4),
    "httpd": (107, 33.6),
    "lighttpd": (99, 53.5),
    "memcached": (101, 55.4),
    "nginx": (109, 52.3),
    "redis": (93, 54.8),
}


def test_criterion_1_attack_surface_report():
    t0 = time.perf_counter()
    report = attack_surface_report()
    elapsed = time.perf_counter() - t0
    rows = {r["name"]: r for r in report["applications"]}
    problems = []
    if set(rows) != set(SURFACE_EXPECTED):
        problems.append(f"applications {sorted(rows)}")
    for name, (union, reduction) in SURFACE_EXPECTED.items():
        row = rows[name]
        if row["union_size"] != union:
            problems.append(f"{name} union {row['union_size']} != {union}")
        if abs(row["reduction_pct"] - reduction) > 0.05:
            problems.append(
                f"{name} reduction {row['reduction_pct']:.2f} != {reduction}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _verdict(1, "surface report reproduces all six union/reduction rows",
             not problems,
             "; ".join(problems) or f"6 rows, {elapsed * 1000:.0f}ms")


# -- 2: the bundled incident scenarios --------------------------------------

SCENARIOS = [
    "busybox-9071",
    "cve-2016-0728",
    "cve-2016-5195",
    "cve-2017-5123",
    "cve-2017-7533",
    "cve-2018-18281",
    "cve-2019-11487",
]


def test_criterion_2_bundled_scenarios():
    t0 = time.perf_counter()
    assert bundled_scenario_names() == SCENARIOS
    desc = bundled_descriptors()
    problems = []
    budget_specs = 0
    flow_specs = 0
    serial_specs = 0
    for name in SCENARIOS:
        spec = load_bundled_scenario(name)
        result = run_bundled(name, descriptors=desc)
        for check in result.checks:
            if not check.passed:
                problems.append(f"{name}: {check.description}"
                                f" ({check.detail})")
        policy = next(ev["policy"] for ev in spec["trace"]
                      if ev["event"] == "load")
        mode = spec.get("mode", "run")
        if policy["generator"] == "count_limit":
            budget_specs += 1
            seq = next(c for c in spec["checks"]
                       if c["check"] == "decision_sequence")
            allowed = 0
            for action in seq["actions"]:
                if action != "allow":
                    break
                allowed += 1
            # the budget itself must be what the sequence exhausts
            if allowed != policy["max"]:
                problems.append(f"{name}: {allowed} allows before the"
                                f" denial, budget is {policy['max']}")
        elif policy["generator"] == "flow_integrity":
            flow_specs += 1
        elif policy["generator"] == "serialization":
            serial_specs += 1
            if mode != "explore":
                problems.append(f"{name}: serialization outside explore")
            if result.metrics.get("schedules", 0) < 1:
                problems.append(f"{name}: no schedules explored")
            if result.metrics.get("stripped_schedules", 0) < 1:
                problems.append(f"{name}: counterfactual never ran")
    if (budget_specs, flow_specs, serial_specs) != (3, 1, 3):
        problems.append(f"family split {budget_specs}/{flow_specs}/"
                        f"{serial_specs}, wanted 3/1/3")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(2, "all seven bundled scenarios pass their checks",
             not problems,
             "; ".join(problems) or f"7 scenarios, {elapsed:.1f}s")


# -- 3: decisions track entry-time memory under races -----------------------

MAGIC64 = 0x4D41474943214F4B
MAGIC_BYTES = MAGIC64.to_bytes(8, "little")
RACE_BUF = 0x50000

# deny write() with errno 13 when the first 8 bytes of its buffer
# spell the magic value; reads go through the entry snapshot
MAGIC_FILTER_HEX = encode_program(assemble(f"""\
section seccomp
    ld_ctx r6, 0
    jne r6, 1, allow
    mov r1, r10
    add r1, -8
    mov r2, 8
    ld_ctx r3, 24
    call safe_read_user
    jne r0, 0, allow
    ld_map r1, r10, -8
    ld_imm64 r2, {MAGIC64:#x}
    jne r1, r2, allow
    mov r0, 0x5000d
    exit
allow:
    mov r0, 0x7fff0000
    exit
""")).hex()

# park write() while syscall 99 is in flight somewhere
WAIT_FILTER_HEX = encode_program(assemble("""\
section seccomp
    ld_ctx r6, 0
    jne r6, 1, allow
    mov r1, r6
    mov r2, 99
    call wait_syscall
allow:
    mov r0, 0x7fff0000
    exit
""")).hex()

# partner side: registers its syscall 99 as in flight for the duration
PARTNER_FILTER_HEX = encode_program(assemble("""\
section seccomp
    ld_ctx r6, 0
    jne r6, 99, allow
    mov r1, r6
    mov r2, 50
    call wait_syscall
allow:
    mov r0, 0x7fff0000
    exit
""")).hex()


def _race_trace(rng: random.Random, blocking: bool) -> list:
    magic = MAGIC_BYTES.hex()
    plain = bytes(8).hex()
    events = []
    if blocking:
        events.append({"event": "spawn", "tid": 3, "nnp": True})
    events.append({"event": "spawn", "tid": 1, "nnp": True})
    if blocking:
        events += [
            {"event": "load", "task": 1, "handle": "w",
             "program_hex": WAIT_FILTER_HEX},
            {"event": "install", "task": 1, "handle": "w"},
        ]
    events += [
        {"event": "load", "task": 1, "handle": "m",
         "program_hex": MAGIC_FILTER_HEX},
        {"event": "install", "task": 1, "handle": "m"},
        {"event": "spawn_thread", "task": 1, "tid": 2},
    ]
    for _ in range(3):
        value = rng.choice([magic, plain])
        events += [
            {"event": "mem_write", "task": 1, "addr": RACE_BUF,
             "data_hex": value},
            {"event": "syscall_enter", "task": 1, "nr": 1,
             "args": [5, RACE_BUF, 64]},
            {"event": "syscall_exit", "task": 1},
        ]
    for _ in range(6):
        events.append({"event": "mem_write", "task": 2, "addr": RACE_BUF,
                       "data_hex": rng.choice([magic, plain])})
    if blocking:
        events += [
            {"event": "load", "task": 3, "handle": "p",
             "program_hex": PARTNER_FILTER_HEX},
            {"event": "install", "task": 3, "handle": "p"},
            {"event": "syscall_enter", "task": 3, "nr": 99, "args": []},
            {"event": "syscall_exit", "task": 3},
        ]
    return events


def test_criterion_3_entry_time_decisions_under_races():
    desc = bundled_descriptors()
    denies = allows = saw_wait = saw_stall = 0
    for i in range(500):
        mode = "copy" if i % 2 == 0 else "write_protect"
        blocking = (i // 2) % 2 == 1
        rng = random.Random(1000 + i)
        trace = parse_trace(trace_text(_race_trace(rng, blocking)))
        sim = Simulator(trace, config=EngineConfig(snapshot_mode=mode),
                        descriptors=desc, seed=i)
        oracle = []
        while True:
            runnable = sim.runnable_tasks()
            if not runnable:
                break
            tid = rng.choice(runnable)
            if (tid == 1 and 1 not in sim.in_progress
                    and 1 not in sim.blocked):
                queue = sim.trace.queues[1]
                nxt = queue[sim.pos[1]]
                if nxt.kind == "syscall_enter" and nxt["nr"] == 1:
                    data = sim.engine.task(1).address_space.read(RACE_BUF, 8)
                    oracle.append(data == MAGIC_BYTES)
            sim.step(tid)
            if sim.blocked.get(1, ("",))[0] == "wait":
                saw_wait += 1
            if sim.blocked.get(2, ("",))[0] == "stall":
                saw_stall += 1
        sim.finalize()
        bad = [e for e in sim.entries if e["kind"] in ("deadlock", "error")]
        assert not bad, (i, bad)
        got = [e for e in sim.entries
               if e["kind"] == "decision" and e["task"] == 1]
        assert len(got) == len(oracle) == 3, (i, got)
        for entry, deny in zip(got, oracle):
            want = ("errno", 13) if deny else ("allow", 0)
            assert (entry["action"], entry["errno"]) == want, (i, entry)
            denies += deny
            allows += not deny
    diverse = denies > 100 and allows > 100 and saw_wait and saw_stall
    _verdict(3, "500 raced traces decide on entry-time memory in both"
                " snapshot modes", diverse,
             f"{denies} denies, {allows} allows, {saw_wait} wait parks,"
             f" {saw_stall} write stalls")


# -- 4: resolution obeys its algebra ----------------------------------------

def _rand_action(rng: random.Random) -> ResolvedAction:
    kind = rng.choice(list(ActionKind))
    if kind is ActionKind.ERRNO:
        return ResolvedAction(kind, errno=rng.randint(1, 255))
    return ResolvedAction(kind)


def test_criterion_4_resolution_properties():
    rng = random.Random(4242)
    cases = 0
    for _ in range(4000):
        votes = [_rand_action(rng) for _ in range(rng.randint(1, 6))]
        top = max(v.precedence for v in votes)
        first = next(v for v in votes if v.precedence == top)
        assert resolve(votes) == first
        cases += 1
    for _ in range(3500):
        votes = [_rand_action(rng) for _ in range(rng.randint(1, 6))]
        mixed = list(votes)
        rng.shuffle(mixed)
        a, b = resolve(votes), resolve(mixed)
        assert a.kind == b.kind
        if a.kind is not ActionKind.ERRNO:
            assert a == b
        else:
            errnos = {v.errno for v in votes
                      if v.kind is ActionKind.ERRNO}
            assert a.errno in errnos and b.errno in errnos
            if len(errnos) == 1:
                assert a == b
        cases += 1
    for _ in range(3500):
        votes = [_rand_action(rng) for _ in range(rng.randint(0, 5))]
        extra = _rand_action(rng)
        old, new = resolve(votes), resolve(votes + [extra])
        assert new.precedence >= old.precedence
        if new.executes:
            assert old.executes
        if extra.precedence <= old.precedence:
            assert new == old
        else:
            assert new == extra
        cases += 1
    _verdict(4, "resolution laws hold on 10,000+ random vote sets",
             cases >= 10000, f"{cases} cases")


# -- 5: fuzzed programs never fault, corrupted ones never load ---------------

_BAD_OFFSETS = [1, 2, 3, 5, 6, 7, 9, 12, 20, 57, 63, 64, 72, 100, 200]


def _fuzz_ctx(rng: random.Random) -> SyscallContext:
    return SyscallContext(
        nr=rng.randint(-2**31, 2**31 - 1),
        arch=rng.randint(0, 2**32 - 1),
        calling_address=rng.randint(0, 2**64 - 1),
        args=tuple(rng.randint(0, 2**64 - 1) for _ in range(6)),
    )


def test_criterion_5_fuzzed_programs_and_contexts():
    rng = random.Random(31337)
    sources = [fuzz_source(rng) for _ in range(1000)]
    programs = []
    for src in sources:
        program = assemble(src)
        report = verify(program)
        assert report.accepted, (report.reason, src)
        programs.append(program)
    contexts = [_fuzz_ctx(rng) for _ in range(1000)]
    env = RuntimeEnv()
    runs = 0
    t0 = time.perf_counter()
    for program in programs:
        for c in contexts:
            thread = VmThread(program, [], c)
            thread.run(env)
            out = thread.outcome
            assert out is not None and not out.faulted
            runs += 1
    elapsed = time.perf_counter() - t0
    rejected = 0
    for src in sources:
        lines = src.splitlines()
        # right after the register inits: reachable on every path, so
        # constant-folded branches cannot hide the corruption
        at = 7
        bad = f"    ld_ctx r{rng.randint(0, 5)}, {rng.choice(_BAD_OFFSETS)}"
        report = verify(assemble("\n".join(
            lines[:at] + [bad] + lines[at:]) + "\n"))
        assert not report.accepted, lines
        assert "context read" in report.reason, report.reason
        rejected += 1
    _verdict(5, "10^6 fuzzed runs fault-free; all 1000 corrupted loads"
                " rejected", runs == 1000 * 1000 and rejected == 1000,
             f"{runs} runs in {elapsed:.1f}s, {rejected} rejections")


# -- 6: denylist lookup cost scales as laid out ------------------------------

LINEAR_STEPS = {16: 19, 64: 67, 256: 259}


def test_criterion_6_denylist_scaling():
    linear = {}
    hashed = {}
    for n in (16, 64, 256):
        denied = range(1000, 1000 + n)
        eng = Engine()
        tid = attach(eng, gen_denylist(denied, layout="linear"))
        linear[n] = probe(eng, tid, ctx(500))["steps"]
        assert probe(eng, tid, ctx(1000))["action"] == "errno"
        eng = Engine()
        tid = attach(eng, gen_denylist(denied, layout="hash"))
        hashed[n] = probe(eng, tid, ctx(500))["steps"]
        assert probe(eng, tid, ctx(1000))["action"] == "errno"
    spread = max(hashed.values()) - min(hashed.values())
    ok = (linear == LINEAR_STEPS
          and linear[256] >= 3 * linear[16]
          and spread <= 5)
    _verdict(6, "miss cost grows linearly for chains, stays flat for"
                " hashes", ok,
             f"linear {linear}, hash {hashed}")


# -- 7: the decision cache pays for itself -----------------------------------

CACHE_RULES = {7: {0: [2 * i for i in range(48)],
                   1: [100 + i for i in range(48)]}}


def test_criterion_7_validation_cache_speedup():
    rng = random.Random(42)
    arg0, arg1 = CACHE_RULES[7][0], CACHE_RULES[7][1]
    hot = [(rng.choice(arg0), rng.choice(arg1)) for _ in range(8)]
    calls = []
    for _ in range(400):
        roll = rng.random()
        if roll < 0.85:
            calls.append(rng.choice(hot))
        elif roll < 0.95:
            calls.append((rng.choice(arg0), rng.choice(arg1)))
        else:
            calls.append((rng.choice(arg0) + 1, rng.choice(arg1)))
    seen = set()
    repeats = 0
    for call in calls:
        repeats += call in seen
        seen.add(call)
    repeat_share = repeats / len(calls)

    eng_cached = Engine()
    tid_cached = attach(eng_cached, gen_validation_cache(CACHE_RULES))
    eng_plain = Engine()
    tid_plain = attach(eng_plain,
                       gen_validation_cache(CACHE_RULES, cached=False))
    steps_cached = steps_plain = 0
    for a0, a1 in calls:
        cached = probe(eng_cached, tid_cached, ctx(7, a0, a1))
        plain = probe(eng_plain, tid_plain, ctx(7, a0, a1))
        assert (cached["action"], cached["errno"]) == \
               (plain["action"], plain["errno"]), (a0, a1)
        steps_cached += cached["steps"]
        steps_plain += plain["steps"]
    drop = 1 - steps_cached / steps_plain
    ok = repeat_share >= 0.8 and drop >= 0.20
    _verdict(7, "cached and plain validators agree; the cache cuts filter"
                " steps by 20%+", ok,
             f"{repeat_share:.0%} repeats, steps {steps_plain} ->"
             f" {steps_cached} ({drop:.1%} saved)")


# -- 8: phase narrowing measured from the outside ----------------------------

def _sweep(eng: Engine, tid: int) -> set:
    return {nr for nr in SWEEP_DOMAIN
            if probe(eng, tid, ctx(nr))["action"] == "allow"}


def test_criterion_8_phase_narrowing():
    narrowed = 0
    for name, prof in sorted(load_profiles().items()):
        eng = Engine()
        tid = attach(eng, gen_temporal(prof))
        phase0 = _sweep(eng, tid)
        assert phase0 == set(prof.s_init), name
        assert probe(eng, tid, ctx(prof.marker_nr))["action"] == "allow"
        serving = _sweep(eng, tid)
        assert serving == set(prof.s_serv), name

        eng = Engine()
        tid = attach(eng, gen_phase_baseline(prof, "union"))
        union = _sweep(eng, tid)
        assert union == set(prof.s_init | prof.s_serv), name
        assert union - phase0 == set(prof.s_serv - prof.s_init), name
        narrowed += len(union - serving)
    _verdict(8, "swept allow sets match each profile phase exactly, six"
                " profiles", True,
             f"{narrowed} union syscalls retired across serving phases")


# -- 9: checkpoint/restore splices replay identically ------------------------

def _splice(name: str, split: int) -> int:
    """Checkpoint the root after `split` of its events, graft the blob
    into a rebuilt trace, and demand a byte-identical log suffix."""
    desc = bundled_descriptors()
    events = load_bundled_scenario(name)["trace"]
    base = Simulator(parse_trace(trace_text(events)),
                     descriptors=desc, seed=0).run()
    assert base.finished
    assert not any(e["kind"] in ("error", "deadlock") for e in base.entries)
    schedule = list(base.schedule)
    assert schedule[:split] == [1] * split, (name, schedule)

    prefix = Simulator(parse_trace(trace_text(events)),
                       descriptors=desc, schedule=schedule[:split])
    prefix.run()
    blob = prefix.engine.checkpoint(1)
    done = len(prefix.entries)
    assert prefix.entries == base.entries[:done]

    grafted = [
        {"event": "spawn", "tid": 1, "caps": ["CAP_SYS_ADMIN"]},
        {"event": "restore", "task": 1, "blob_hex": blob.hex()},
    ]
    consumed = dict(prefix.pos)
    position = {}
    for ev in events:
        if ev["event"] == "spawn" and "task" not in ev:
            continue
        owner = ev["task"]
        at = position.get(owner, 0)
        position[owner] = at + 1
        if at >= consumed.get(owner, 0):
            grafted.append(ev)
    replay = Simulator(parse_trace(trace_text(grafted)), descriptors=desc,
                       schedule=[1] + schedule[split:])
    replay.run()
    assert replay.finished
    assert replay.entries == base.entries[done:], (name, split)
    return len(base.entries) - done


def test_criterion_9_checkpoint_restore_replay():
    splices = 0
    suffix_entries = 0
    for name, splits in [
        ("busybox-9071", (2,)),
        ("cve-2016-0728", (2, 6)),
        ("cve-2017-5123", (2, 6)),
        ("cve-2019-11487", (2, 6)),
    ]:
        for split in splits:
            tail = _splice(name, split)
            assert tail > 0
            suffix_entries += tail
            splices += 1
    _verdict(9, "restored checkpoints replay scenario logs byte for byte",
             splices == 7, f"{splices} splices, {suffix_entries} suffix"
                           f" entries compared")
