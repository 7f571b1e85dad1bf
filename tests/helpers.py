"""Hand tools shared by the test modules: context builders, one-call
policy attachment, and a small trace runner."""

from __future__ import annotations

import json
import random
from importlib.resources import files

from sfvm.engine import Engine
from sfvm.isa import CTX_FIELDS, SyscallContext
from sfvm.policies import (
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
)
from sfvm.sim import Simulator
from sfvm.snapshot import DescriptorTable
from sfvm.trace import parse_trace


def ctx(nr, *args, addr=0):
    padded = (tuple(args) + (0,) * 6)[:6]
    return SyscallContext(nr=nr, args=padded, calling_address=addr)


def bundled_descriptors() -> DescriptorTable:
    raw = json.loads((files("sfvm") / "data" / "descriptors.json")
                     .read_text())
    return DescriptorTable.from_json(raw)


def attach(engine: Engine, program, tid=None) -> int:
    """Spawn a no-new-privs task (unless given one) and install."""
    if tid is None:
        tid = engine.spawn(nnp=True)
    engine.install(tid, engine.load(tid, program))
    return tid


def probe(engine: Engine, tid: int, c: SyscallContext) -> dict:
    """One full enter/exit cycle; leaves the task between syscalls."""
    record = engine.run_syscall(tid, c)
    if record["action"] in ("allow", "log"):
        engine.syscall_exit(tid)
    else:
        engine.task(tid).denied_enter = False
    return record


def trace_text(events) -> str:
    return "\n".join(json.dumps(ev) for ev in events)


def run_trace(events, **kwargs) -> Simulator:
    sim = Simulator(parse_trace(trace_text(events)), **kwargs)
    sim.run()
    return sim


def decisions(entries, task=None, nr=None, markers=True):
    out = []
    for e in entries:
        if e["kind"] != "decision":
            continue
        if not markers and e.get("marker"):
            continue
        if task is not None and e["task"] != task:
            continue
        if nr is not None and e["nr"] != nr:
            continue
        out.append(e)
    return out


def fuzz_source(rng: random.Random) -> str:
    """Criterion 5's fuzz program: straight-line ALU and context reads
    with short forward branches, always verifiable and fault-free."""
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
            lines.append(f"    ld_ctx r{a}, {rng.choice(sorted(CTX_FIELDS))}")
        elif body >= 3:
            # a forward branch over a couple of plain ops; both sides
            # of the branch keep running toward the same exit
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


def every_generator() -> list:
    """One or two programs from each policy generator."""
    profile = load_profiles()["httpd"]
    return [
        gen_allow_all(),
        gen_allowlist([0, 1, 2], layout="linear"),
        gen_allowlist(list(range(64)), layout="tree"),
        gen_allowlist([0, 1, 2], layout="hash"),
        gen_denylist([1, 9], layout="linear"),
        gen_denylist([1, 9], layout="hash"),
        gen_count_limit(2, 2),
        gen_count_limit(1, 2, arg_index=0, arg_value=3),
        gen_rate_limit(0, 100, 2),
        gen_serialization({25: [77], 77: [25]}),
        gen_temporal(profile),
        gen_phase_baseline(profile, "serv"),
        gen_flow_integrity([1, 2], [[None, 1], [1, 2], [2, 1]],
                           origins={2: [0x401000]}, deny="errno:3"),
        gen_validation_cache({0: {1: [8, 16]}, 2: {0: [0x1000]}}),
        gen_validation_cache({0: {1: [8, 16]}}, cached=False),
    ]
