"""A thread rewrites a syscall argument buffer mid-decision and loses.

The victim thread enters write() while a partner process dwells in
syscall 99, so a wait-filter parks the victim with its entry snapshot
already taken. An adversary thread then flips the buffer between the
magic token and zeros. Whatever the adversary does, the decision
matches the bytes present at entry, in both snapshot modes: copy mode
reads the staged bytes, write-protect mode stalls the adversary store
until the decision is off the page. Both modes learn which argument of
write() is a buffer, and how long, from the bundled descriptor table.
"""

import json
from importlib.resources import files

from sfvm.asm import assemble
from sfvm.engine import EngineConfig
from sfvm.isa import encode_program
from sfvm.sim import Simulator
from sfvm.snapshot import DescriptorTable
from sfvm.trace import parse_trace

MAGIC = 0x4D41474943214F4B
MAGIC_BYTES = MAGIC.to_bytes(8, "little")
PLAIN_BYTES = bytes(8)
BUF = 0x50000

MAGIC_FILTER = encode_program(assemble(f"""\
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
    ld_imm64 r2, {MAGIC:#x}
    jne r1, r2, allow
    mov r0, 0x5000d
    exit
allow:
    mov r0, 0x7fff0000
    exit
""")).hex()

WAIT_FILTER = encode_program(assemble("""\
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

PARTNER_FILTER = encode_program(assemble("""\
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


def race_trace(entry_bytes, adversary_bytes):
    return [
        {"event": "spawn", "tid": 3, "nnp": True},
        {"event": "spawn", "tid": 1, "nnp": True},
        {"event": "load", "task": 3, "handle": "p",
         "program_hex": PARTNER_FILTER},
        {"event": "install", "task": 3, "handle": "p"},
        {"event": "syscall_enter", "task": 3, "nr": 99, "args": []},
        {"event": "syscall_exit", "task": 3},
        {"event": "load", "task": 1, "handle": "w",
         "program_hex": WAIT_FILTER},
        {"event": "install", "task": 1, "handle": "w"},
        {"event": "load", "task": 1, "handle": "m",
         "program_hex": MAGIC_FILTER},
        {"event": "install", "task": 1, "handle": "m"},
        {"event": "spawn_thread", "task": 1, "tid": 2},
        {"event": "mem_write", "task": 1, "addr": BUF,
         "data_hex": entry_bytes.hex()},
        {"event": "syscall_enter", "task": 1, "nr": 1,
         "args": [5, BUF, 64]},
        {"event": "syscall_exit", "task": 1},
        {"event": "mem_write", "task": 2, "addr": BUF,
         "data_hex": adversary_bytes.hex()},
    ]


def label(data):
    return "magic" if data == MAGIC_BYTES else "zeros"


def run_one(mode, entry_bytes, adversary_bytes):
    events = race_trace(entry_bytes, adversary_bytes)
    text = "\n".join(json.dumps(ev) for ev in events)
    descriptors = DescriptorTable.from_json(
        (files("sfvm") / "data" / "descriptors.json").read_text())
    sim = Simulator(parse_trace(text),
                    config=EngineConfig(snapshot_mode=mode),
                    descriptors=descriptors)

    def mem():
        return sim.engine.task(1).address_space.read(BUF, 8)

    print(f"-- mode={mode}, entry={label(entry_bytes)},"
          f" adversary writes {label(adversary_bytes)}")
    for tid in (3, 3, 3):
        sim.step(tid)
    print(f"   partner parked inside syscall 99")
    for _ in range(6):
        sim.step(1)
    sim.step(1)
    print(f"   victim entered write() and parked: blocked={sim.blocked[1]},"
          f" buffer={label(mem())}")
    sim.step(2)
    if 2 in sim.blocked:
        print(f"   adversary store stalled: blocked={sim.blocked[2]}")
    else:
        print(f"   adversary store landed: buffer now {label(mem())}")
    sim.step(3)
    sim.step(1)
    decision = [e for e in sim.entries
                if e["kind"] == "decision" and e["task"] == 1][-1]
    print(f"   decision: {decision['action']}"
          + (f" errno {decision['errno']}" if decision["errno"] else ""))
    sim.step(1)
    while sim.runnable_tasks():
        sim.step(sim.runnable_tasks()[0])
    sim.finalize()
    assert sim.finished
    print(f"   final buffer: {label(mem())}")
    return decision


def main():
    for mode in ("copy", "write_protect"):
        a = run_one(mode, PLAIN_BYTES, MAGIC_BYTES)
        assert a["action"] == "allow"
        b = run_one(mode, MAGIC_BYTES, PLAIN_BYTES)
        assert (b["action"], b["errno"]) == ("errno", 13)
        print()
    print("entry-time bytes decided every call; the mid-decision write"
          " never leaked in")


if __name__ == "__main__":
    main()
