"""The benchmark's four workloads: seeded inputs, set-up, and one pass.

Each workload is a closed loop with a single caller: the next operation
starts when the previous one has completed.  `setup(seed, tiny)` builds
everything a pass needs (inputs, engine, installed filters) and is timed
as set-up; `run_pass(state)` performs a fixed amount of work and times
each operation; `check(state, result)` compares the pass against the
independent oracle in `oracle.py`.  A pass is deterministic for a given
seed, so its digest and its work counters repeat exactly.

Calls into sfvm go through module attributes (`asm.assemble`, not a
name imported into this module) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass
from importlib.resources import files

from sfvm import asm, engine, isa, policies, scenarios, sim, snapshot, trace

import oracle

now_ns = time.perf_counter_ns


@dataclass
class PassResult:
    """What one pass produced.

    `samples_ns` holds one latency per operation and `cost_ns` the time
    of each unit of the pass's work loop, both in an order that repeats
    exactly from pass to pass, so the driver can take each operation's
    fastest time over the passes of a run.  `work` counts the units of
    throughput (decisions, schedules or loads) and `elapsed_ns` the
    wall time of the measured region.
    """
    samples_ns: list
    cost_ns: list
    work: int
    elapsed_ns: int
    digest: str
    detail: object = None


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def bundled_descriptors() -> snapshot.DescriptorTable:
    raw = (files("sfvm") / "data" / "descriptors.json").read_text()
    return snapshot.DescriptorTable.from_json(raw)


NGINX = policies.load_profiles()["nginx"]
NGINX_UNION = sorted(NGINX.s_init | NGINX.s_serv | {NGINX.marker_nr})


# -- replays ---------------------------------------------------------------

@dataclass
class ReplayState:
    inputs: dict
    sim: sim.Simulator


def _spec_events(events) -> str:
    return "\n".join(json.dumps(ev) for ev in events)


def _start_replay(inputs: dict, config=None, descriptors=None) -> ReplayState:
    """Parse the trace and run its set-up prefix (filter loads, installs,
    initial memory) exactly as `Simulator.run` would schedule it."""
    tr = trace.parse_trace(inputs["text"])
    s = sim.Simulator(tr, config=config, descriptors=descriptors,
                      seed=inputs["sched_seed"])
    for _ in range(inputs["setup_events"]):
        runnable = s.runnable_tasks()
        tid = s.rng.choice(runnable)
        if tid != 1:
            raise RuntimeError("set-up prefix must belong to task 1")
        s.step(tid)
    return ReplayState(inputs, s)


def run_replay_pass(state: ReplayState) -> PassResult:
    """Drive the simulator to the end, mirroring `Simulator.run`.

    A decision's latency is the sum of its task's step times from the
    step that consumes `syscall_enter` (or `phase_marker`) to the step
    that logs the decision; steps of other tasks in between, when it was
    parked, do not count.
    """
    s = state.sim
    queues = s.trace.queues
    pos = s.pos
    in_progress = s.in_progress
    blocked = s.blocked
    eng = s.engine
    samples = []
    costs = []
    pending: dict[int, int] = {}
    steps_log = []
    t_start = now_ns()
    while True:
        t_iter = now_ns()
        runnable = s.runnable_tasks()
        if not runnable:
            break
        tid = s.rng.choice(runnable)
        p = pos[tid]
        was_in = tid in in_progress
        entering = was_in or (tid not in blocked
                              and queues[tid][p].kind in oracle.ENTRY_KINDS)
        t0 = now_ns()
        s.step(tid)
        t1 = now_ns()
        dt = t1 - t0
        costs.append(t1 - t_iter)
        if entering:
            if tid in in_progress:
                pending[tid] = pending.get(tid, 0) + dt
            else:
                samples.append(pending.pop(tid, 0) + dt)
        steps_log.append((tid, p, pos[tid], was_in, eng.clock_ns))
    elapsed = now_ns() - t_start
    s.finalize()
    return PassResult(samples, costs, len(samples), elapsed,
                      sim.log_digest(s.entries), detail=steps_log)


# replay-stateless ----------------------------------------------------------

def stateless_inputs(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    n = 200 if tiny else 2000
    denied = sorted(rng.sample(list(policies.SWEEP_DOMAIN), 64))
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "load", "task": 1, "handle": "allow",
         "policy": {"generator": "allowlist", "allowed": NGINX_UNION,
                    "layout": "linear", "deny": "errno:1"}},
        {"event": "install", "task": 1, "handle": "allow"},
        {"event": "load", "task": 1, "handle": "deny",
         "policy": {"generator": "denylist", "denied": denied,
                    "layout": "linear", "deny": "errno:13"}},
        {"event": "install", "task": 1, "handle": "deny"},
    ]
    for _ in range(n):
        if rng.random() < 0.85:
            nr = rng.choice(NGINX_UNION)
        else:
            nr = rng.choice(policies.SWEEP_DOMAIN)
        events.append({"event": "syscall_enter", "task": 1, "nr": nr,
                       "args": [rng.randrange(64), rng.randrange(1 << 32),
                                rng.randrange(1 << 16)],
                       "dt_ns": rng.randrange(1_000, 50_000)})
        events.append({"event": "syscall_exit", "task": 1})
    return {"text": _spec_events(events), "setup_events": 4,
            "sched_seed": seed, "allowed": set(NGINX_UNION),
            "denied": set(denied)}


class ReplayStateless:
    name = "replay-stateless"

    def setup(self, seed: int, tiny: bool) -> ReplayState:
        return _start_replay(stateless_inputs(seed, tiny))

    run_pass = staticmethod(run_replay_pass)

    def check(self, state: ReplayState, result: PassResult):
        return oracle.check_stateless(state.inputs, state.sim)


# replay-stateful ---------------------------------------------------------

# syscall number -> weight in the trace
STATEFUL_SYSCALLS = {0: 6, 1: 6, 2: 4, 3: 3, 9: 2, 12: 1, 102: 1, 257: 2,
                     302: 1}
STATEFUL_GOVERNED = sorted(STATEFUL_SYSCALLS) + [NGINX.marker_nr]
PATH_BASE = 0x10000000
WBUF_BASE = 0x20000000
SLOT_STRIDE = 0x800          # two slots per page: threads share pages
N_SLOTS = 4
PATH_LEN = 32
WBUF_LEN = 64
BAD_PATH = b"/etc/shadow"
OPENAT_AT_FDCWD = (1 << 64) - 100
SERIALIZED = {1: [2], 2: [1]}
COUNT_RULE = {"nr": 1, "arg_index": 0, "arg_value": 2}
RATE_RULE = {"nr": 0, "rate": 150, "capacity": 4}
VALIDATION_RULES = {1: {0: [1, 2, 3, 4], 2: [64, 128, 256, 512]},
                    3: {0: [3, 4, 5, 6]}}

# A bench-local filter: reads the path argument of open/openat with
# `safe_read_user_str` and denies paths under /etc/sha.
PATH_FILTER = f"""\
section seccomp
    ld_ctx r6, 0
    jeq r6, 2, open
    jeq r6, 257, openat
    jmp allow
open:
    ld_ctx r3, 16
    jmp read
openat:
    ld_ctx r3, 24
read:
    mov r1, r10
    add r1, -{PATH_LEN}
    mov r2, {PATH_LEN}
    call safe_read_user_str
    ld_map r4, r10, -{PATH_LEN}
    ld_imm64 r5, {int.from_bytes(BAD_PATH[:8], "little")}
    jeq r4, r5, deny
allow:
    mov r0, 0x7fff0000
    exit
deny:
    mov r0, 0x5000d
    exit
"""


def path_slot(i: int) -> int:
    return PATH_BASE + i * SLOT_STRIDE


def wbuf_slot(i: int) -> int:
    return WBUF_BASE + i * SLOT_STRIDE


def _path_bytes(rng: random.Random) -> bytes:
    if rng.random() < 0.25:
        path = BAD_PATH
    else:
        path = b"/tmp/f%04d" % rng.randrange(10000)
    return path + bytes(PATH_LEN - len(path))


def _stateful_syscall(rng: random.Random, tid: int) -> dict:
    nr = rng.choices(list(STATEFUL_SYSCALLS),
                     weights=list(STATEFUL_SYSCALLS.values()))[0]
    if nr == 0:
        args = [rng.randrange(8), wbuf_slot(rng.randrange(N_SLOTS)), 64]
    elif nr == 1:
        args = [rng.choice([1, 2, 2, 3, 4, 7]),
                wbuf_slot(rng.randrange(N_SLOTS)),
                rng.choice([64, 128, 256, 512, 100])]
    elif nr == 2:
        args = [path_slot(rng.randrange(N_SLOTS)), rng.randrange(4), 0o644]
    elif nr == 257:
        args = [OPENAT_AT_FDCWD, path_slot(rng.randrange(N_SLOTS)),
                rng.randrange(4)]
    elif nr == 3:
        args = [rng.choice([3, 4, 5, 6, 9])]
    else:
        args = [rng.randrange(1 << 20) for _ in range(3)]
    return {"event": "syscall_enter", "task": tid, "nr": nr, "args": args,
            "dt_ns": rng.randrange(50_000, 2_000_000)}


def _racing_store(rng: random.Random, tid: int) -> dict:
    if rng.random() < 0.5:
        addr, data = path_slot(rng.randrange(N_SLOTS)), _path_bytes(rng)
    else:
        addr = wbuf_slot(rng.randrange(N_SLOTS))
        data = bytes(rng.randrange(256) for _ in range(WBUF_LEN))
    return {"event": "mem_write", "task": tid, "addr": addr,
            "data_hex": data.hex(), "dt_ns": rng.randrange(10_000, 500_000)}


def stateful_inputs(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    n = 120 if tiny else 1200          # syscalls over all four tasks
    forbidden = set()
    for prev in STATEFUL_GOVERNED:
        for cur in STATEFUL_GOVERNED:
            if cur != NGINX.marker_nr and rng.random() < 0.1:
                forbidden.add((prev, cur))
    transitions = [[None, c] for c in STATEFUL_GOVERNED]
    transitions += [[p, c] for p in STATEFUL_GOVERNED
                    for c in STATEFUL_GOVERNED if (p, c) not in forbidden]
    count_max = max(1, n // 60)
    specs = [
        {"generator": "temporal", "profile": "nginx", "deny": "errno:1"},
        {"generator": "count_limit", "max": count_max, "deny": "errno:2",
         **COUNT_RULE},
        {"generator": "rate_limit", **RATE_RULE},
        {"generator": "flow_integrity", "syscalls": STATEFUL_GOVERNED,
         "transitions": transitions, "deny": "errno:38"},
        {"generator": "validation_cache", "deny": "errno:22",
         "rules": {str(nr): {str(a): v for a, v in rule.items()}
                   for nr, rule in VALIDATION_RULES.items()}},
        None,                                   # the path filter
        {"generator": "serialization",
         "pairs": {str(k): v for k, v in SERIALIZED.items()}},
    ]
    path_hex = isa.encode_program(asm.assemble(PATH_FILTER)).hex()
    events = [{"event": "spawn", "tid": 1, "nnp": True}]
    for i, spec in enumerate(specs):
        load = {"event": "load", "task": 1, "handle": f"f{i}"}
        if spec is None:
            load["program_hex"] = path_hex
        else:
            load["policy"] = spec
        events += [load, {"event": "install", "task": 1, "handle": f"f{i}"}]
    memory = {}
    for i in range(N_SLOTS):
        memory[path_slot(i)] = _path_bytes(rng)
        memory[wbuf_slot(i)] = bytes(rng.randrange(256)
                                     for _ in range(WBUF_LEN))
    events += [{"event": "mem_write", "task": 1, "addr": a,
                "data_hex": d.hex()} for a, d in sorted(memory.items())]
    setup_events = len(events) - 1
    # two processes of two threads: 1+3 and 2+4
    queues = {1: [{"event": "spawn", "task": 1, "tid": 2},
                  {"event": "spawn_thread", "task": 1, "tid": 3}],
              2: [{"event": "spawn_thread", "task": 2, "tid": 4}],
              3: [], 4: []}
    per_task = n // 4
    for tid in (1, 2, 3, 4):
        for k in range(per_task):
            if tid == 1 and k == per_task // 3:
                queues[1].append({"event": "phase_marker", "task": 1,
                                  "nr": NGINX.marker_nr})
            while rng.random() < 0.25:
                queues[tid].append(_racing_store(rng, tid))
            queues[tid].append(_stateful_syscall(rng, tid))
            queues[tid].append({"event": "syscall_exit", "task": tid})
    for tid in (1, 2, 3, 4):
        events += queues[tid]
    return {"text": _spec_events(events), "setup_events": setup_events,
            "sched_seed": seed, "memory": memory, "count_max": count_max,
            "forbidden": forbidden, "profile": NGINX,
            "count_rule": COUNT_RULE, "rate_rule": RATE_RULE,
            "governed": STATEFUL_GOVERNED,
            "validation_rules": VALIDATION_RULES, "bad_path": BAD_PATH,
            "path_len": PATH_LEN}


class ReplayStateful:
    name = "replay-stateful"

    def setup(self, seed: int, tiny: bool) -> ReplayState:
        config = engine.EngineConfig(snapshot_mode=snapshot.WRITE_PROTECT)
        return _start_replay(stateful_inputs(seed, tiny), config,
                             bundled_descriptors())

    run_pass = staticmethod(run_replay_pass)

    def check(self, state: ReplayState, result: PassResult):
        return oracle.check_stateful(state.inputs, state.sim, result.detail)


# -- explore-races ---------------------------------------------------------

EXPLORE_BUNDLED = ("cve-2016-5195", "cve-2017-7533", "cve-2018-18281")
# numbers with no argument descriptors, so no snapshot work
RACE_POOL = [n for n in range(3, 200) if n not in (42,)]


def family_race(rng: random.Random, index: int) -> dict:
    """A `serialization` race of 9 schedulable events: the root loads the
    policy that makes a and b exclude each other and spawns two children,
    which issue a and b.  Only the syscall numbers and arguments vary
    with the seed, so every member has the same shape and the same
    schedule counts."""
    a, b = rng.sample(RACE_POOL, 2)
    events = [
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "load", "task": 1, "handle": "h1",
         "policy": {"generator": "serialization",
                    "pairs": {str(a): [b], str(b): [a]}}},
        {"event": "install", "task": 1, "handle": "h1"},
        {"event": "spawn", "task": 1, "tid": 2},
        {"event": "spawn", "task": 1, "tid": 3},
    ]
    for tid, nr in ((2, a), (3, b)):
        events.append({"event": "syscall_enter", "task": tid, "nr": nr,
                       "args": [rng.randrange(1 << 16) for _ in range(3)]})
        events.append({"event": "syscall_exit", "task": tid})
    return {"name": f"race-{index}", "mode": "explore", "max_steps": 16,
            "trace": events,
            "checks": [{"check": "no_overlap", "pair": [a, b]},
                       {"check": "overlap_without_policy", "pair": [a, b],
                        "min_schedules": 1}]}


@dataclass
class ExploreState:
    specs: list
    descriptors: object
    stripped_counts: list


class ExploreRaces:
    name = "explore-races"

    def setup(self, seed: int, tiny: bool) -> ExploreState:
        rng = random.Random(seed)
        specs = [scenarios.load_bundled_scenario(n) for n in EXPLORE_BUNDLED]
        # many short verdicts rather than a few long ones: on a shared
        # host a verdict of a tenth of a second or more seldom falls
        # inside one quiet moment, and its time spread by 20-25% between
        # runs
        specs += [family_race(rng, i) for i in range(1 if tiny else 16)]
        counts = []
        for spec in specs:
            tr = trace.parse_trace(_spec_events(spec["trace"]))
            counts.append(oracle.count_schedules(tr))
        return ExploreState(specs, bundled_descriptors(), counts)

    def run_pass(self, state: ExploreState) -> PassResult:
        samples = []
        verdicts = []
        schedules = 0
        for spec in state.specs:
            # each verdict starts from the same collector state, so the
            # full collections inside it fall at the same points
            gc.collect()
            t0 = now_ns()
            result = scenarios.run_scenario(spec,
                                            descriptors=state.descriptors)
            samples.append(now_ns() - t0)
            schedules += (result.metrics["schedules"]
                          + result.metrics["stripped_schedules"])
            verdicts.append(result)
        elapsed = sum(samples)
        summary = [[r.name, r.passed, r.metrics,
                    [[c.description, c.passed, c.detail] for c in r.checks]]
                   for r in verdicts]
        return PassResult(samples, samples, schedules, elapsed,
                          _digest(summary), detail=verdicts)

    def check(self, state: ExploreState, result: PassResult):
        return oracle.check_explore(state.stripped_counts, result.detail)


# -- load-churn ------------------------------------------------------------

# criterion 5's fuzz generator: straight-line ALU and context reads with
# short forward branches; every program verifies and never faults
CTX_OFFSETS = sorted(isa.CTX_FIELDS)
BAD_CTX_OFFSETS = [1, 2, 3, 5, 6, 7, 9, 12, 20, 57, 63, 64, 72, 100, 200]


def fuzz_source(rng: random.Random) -> str:
    lines = ["section seccomp"]
    for reg in range(6):
        lines.append(f"    mov r{reg}, {rng.randint(-1000, 1000)}")
    label = 0
    body = rng.randint(8, 22)
    while body > 0:
        pick = rng.random()
        a = rng.randint(0, 5)
        if pick < 0.35:
            op = rng.choice(["add", "sub", "mul", "and", "or", "xor"])
            lines.append(f"    {op} r{a}, {rng.randint(-2**20, 2**20)}")
        elif pick < 0.55:
            op = rng.choice(["add", "sub", "mul", "and", "or", "xor"])
            lines.append(f"    {op} r{a}, r{rng.randint(0, 5)}")
        elif pick < 0.65:
            op = rng.choice(["lsh", "rsh"])
            lines.append(f"    {op} r{a}, {rng.randint(0, 63)}")
        elif pick < 0.85:
            lines.append(f"    ld_ctx r{a}, {rng.choice(CTX_OFFSETS)}")
        elif body >= 3:
            op = rng.choice(["jeq", "jne", "jgt", "jlt", "jset"])
            skip = rng.randint(1, 2)
            lines.append(f"    {op} r{a}, {rng.randint(0, 64)}, f{label}")
            for _ in range(skip):
                lines.append(f"    add r{rng.randint(0, 5)},"
                             f" {rng.randint(0, 99)}")
                body -= 1
            lines.append(f"f{label}:")
            label += 1
        body -= 1
    lines.append("    exit")
    return "\n".join(lines) + "\n"


def fuzz_context(rng: random.Random) -> isa.SyscallContext:
    return isa.SyscallContext(
        nr=rng.randint(-2**31, 2**31 - 1),
        arch=rng.randint(0, 2**32 - 1),
        calling_address=rng.randint(0, 2**64 - 1),
        args=tuple(rng.randint(0, 2**64 - 1) for _ in range(6)),
    )


DIAMONDS = 9


def diamond_source(rng: random.Random) -> str:
    """Independent `jset` diamonds on an unknown argument, each adding a
    distinct power of two to r3: 2**DIAMONDS abstract paths."""
    field = rng.choice([16, 24, 32, 40, 48, 56])
    bits = rng.sample(range(64), DIAMONDS)
    lines = ["section seccomp", f"    ld_ctx r2, {field}", "    mov r3, 0"]
    for i, bit in enumerate(bits):
        lines += [f"    jset r2, {1 << bit}, d{i}", f"    add r3, {1 << i}",
                  f"d{i}:"]
    lines += ["    jgt r3, 100000, deny", "    mov r0, 0x7fff0000",
              "    exit", "deny:", "    mov r0, 0x50001", "    exit"]
    return "\n".join(lines) + "\n"


def _insert_after_inits(src: str, line: str, at: int) -> str:
    lines = src.splitlines()
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n"


def load_inputs(seed: int, tiny: bool) -> list:
    """One round of the load mix: (kind, payload, expectation)."""
    rng = random.Random(seed)
    items = []
    for name in sorted(policies.load_profiles()):
        items.append(("spec", {"generator": "temporal", "profile": name},
                      ("accept",)))
    allowed = sorted(rng.sample(range(2000), 400))
    for layout in ("linear", "tree"):
        items.append(("spec", {"generator": "allowlist", "allowed": allowed,
                               "layout": layout}, ("accept",)))
    items.append(("spec", {"generator": "denylist", "layout": "hash",
                           "denied": sorted(rng.sample(range(2000), 256))},
                  ("accept",)))
    rules = {str(nr): {str(a): sorted(rng.sample(range(1000), 16))
                       for a in (0, 2)}
             for nr in rng.sample(range(400), 4)}
    items.append(("spec", {"generator": "validation_cache", "rules": rules},
                  ("accept",)))
    governed = rng.sample(range(400), 12)
    transitions = [[None, governed[0]]]
    transitions += [[rng.choice(governed), rng.choice(governed)]
                    for _ in range(40)]
    items.append(("spec", {"generator": "flow_integrity",
                           "syscalls": governed, "transitions": transitions,
                           "origins": {str(governed[1]): [0x401000],
                                       str(governed[2]): [0x402000]}},
                  ("accept",)))
    n_fuzz = 4 if tiny else 60
    fuzz = [fuzz_source(rng) for _ in range(n_fuzz)]
    items += [("text", src, ("accept",)) for src in fuzz]
    diamonds = [diamond_source(rng) for _ in range(2 if tiny else 12)]
    items += [("text", src, ("accept",)) for src in diamonds]
    # corrupted twins, each rejected with a known reason
    for src in fuzz[:len(fuzz) // 2]:
        bad = (f"    ld_ctx r{rng.randint(0, 5)}, "
               f"{rng.choice(BAD_CTX_OFFSETS)}")
        items.append(("text", _insert_after_inits(src, bad, 7),
                      ("reject", "context read")))
    for src in diamonds:
        items.append(("text", _insert_after_inits(src, "    mov r0, r7", 1),
                      ("reject", "read of uninitialized register r7")))
        looped = _insert_after_inits(src, "spin:\n    jne r2, 0, spin", 2)
        items.append(("text", looped,
                      ("reject", "unbounded loop")))
    # truncated binaries
    for src in fuzz[:2] + diamonds[:2]:
        blob = isa.encode_program(asm.assemble(src))
        items.append(("blob", blob[:rng.randrange(1, len(blob))],
                      ("format",)))
    rng.shuffle(items)
    return items


def load_one(eng: engine.Engine, tid: int, kind: str, payload):
    """Policy spec, assembly text or binary blob -> installed filter or a
    typed rejection.  Returns (outcome, detail)."""
    try:
        if kind == "spec":
            program = policies.build_program(payload)
        elif kind == "text":
            program = asm.assemble(payload)
        else:
            program = payload
        handle = eng.load(tid, program)
        index = eng.install(tid, handle)
    except isa.ProgramFormatError as exc:
        return ("format", str(exc))
    except engine.EngineError as exc:
        return ("reject", str(exc))
    return ("accept", index)


class LoadChurn:
    name = "load-churn"

    def setup(self, seed: int, tiny: bool) -> list:
        return load_inputs(seed, tiny)

    def run_pass(self, items: list) -> PassResult:
        """Every item once, each on a fresh task of a fresh engine."""
        eng = engine.Engine()
        tids = [eng.spawn(nnp=True) for _ in items]
        samples = []
        outcomes = []
        t_start = now_ns()
        for tid, (kind, payload, _) in zip(tids, items):
            t0 = now_ns()
            outcome = load_one(eng, tid, kind, payload)
            samples.append(now_ns() - t0)
            outcomes.append(outcome)
        elapsed = now_ns() - t_start
        return PassResult(samples, samples, len(samples), elapsed,
                          _digest(outcomes), detail=outcomes)

    def check(self, items: list, result: PassResult):
        return oracle.check_loads(items, result.detail)


WORKLOADS = {w.name: w for w in (ReplayStateless(), ReplayStateful(),
                                 ExploreRaces(), LoadChurn())}
