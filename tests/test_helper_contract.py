"""One contract per helper (`isa.HELPER_PROTOS`, `isa.TAIL_CALL_PROTO`)
binds the verifier and the interpreter alike: a value of the wrong type
in any argument register is refused statically, and a forged "verified"
copy faults at the call instead of running the helper."""

from __future__ import annotations

import pytest

from sfvm.asm import assemble
from sfvm.isa import (
    ARG_INDEX,
    ARG_SCALAR,
    HELPER_NAMES,
    HELPER_PROTOS,
    TAIL_CALL_PROTO,
    Helper,
    MapArg,
    MapKind,
    Opcode,
)
from sfvm.maps import PolicyMap
from sfvm.verifier import verify
from sfvm.vm import RuntimeEnv, VmThread

from .helpers import ctx

MAP_NAMES = {MapKind.ARRAY: "arr", MapKind.HASH: "tab",
             MapKind.TASK_STORAGE: "sto", MapKind.PROG_ARRAY: "progs"}
MAP_DECLS = "".join(f"map {name} {kind.name.lower()} 8 8 4\n"
                    for kind, name in MAP_NAMES.items())

# name -> (the calling instruction, its contract)
CALLS = {HELPER_NAMES[h]: (f"call {HELPER_NAMES[h]}", proto)
         for h, proto in HELPER_PROTOS.items()}
CALLS["tail_call"] = ("tail_call", TAIL_CALL_PROTO)


def well_typed(arg):
    if isinstance(arg, MapArg):
        return min(arg.kinds)
    return "scalar" if arg in (ARG_SCALAR, ARG_INDEX) else "stack"


def ill_typed(arg):
    """Every value of another type: scalar, stack pointer, or a map."""
    if isinstance(arg, MapArg):
        return ["scalar", "stack"] + sorted(set(MapKind) - arg.kinds)
    if arg in (ARG_SCALAR, ARG_INDEX):
        return ["stack", *MapKind]
    return ["scalar", *MapKind]


def load(reg, value):
    """Put a scalar, a pointer to 16 initialized stack bytes, or a map
    of the given kind in r{reg}."""
    if value == "scalar":
        return f"mov r{reg}, 8\n"
    if value == "stack":
        return f"mov r{reg}, r10\nadd r{reg}, -16\n"
    return f"ld_imm64 r{reg}, map:{MAP_NAMES[value]}\n"


def program(name, values):
    call, _ = CALLS[name]
    return assemble(
        "section seccomp\n" + MAP_DECLS
        + "mov r0, 0\nst_map r10, r0, -8\nst_map r10, r0, -16\n"
        + "".join(load(reg, v) for reg, v in enumerate(values, 1))
        + call + "\nmov r0, 0\nexit\n")


def run(prog):
    thread = VmThread(prog, [PolicyMap(d) for d in prog.map_refs], ctx(0))
    assert thread.run(RuntimeEnv()) == "done"
    return thread.outcome


def test_every_helper_has_one_contract_and_one_body():
    callable_helpers = set(Helper) - {Helper.TAIL_CALL}
    assert set(HELPER_PROTOS) == callable_helpers
    bodies = {n for n in dir(VmThread) if n.startswith("_helper_")}
    assert bodies == {f"_helper_{HELPER_NAMES[h]}" for h in callable_helpers}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_well_typed_calls_verify_and_run(name):
    _, (args, _) = CALLS[name]
    prog = program(name, [well_typed(arg) for arg in args])
    report = verify(prog)
    assert report.accepted, report.reason
    out = run(prog)
    assert not out.faulted, out.fault_reason


@pytest.mark.parametrize("name,reg", [
    (name, reg) for name, (_, (args, _)) in sorted(CALLS.items())
    for reg in range(1, len(args) + 1)])
def test_ill_typed_arguments_are_refused_and_fault(name, reg):
    _, (args, _) = CALLS[name]
    values = [well_typed(arg) for arg in args]
    for wrong in ill_typed(args[reg - 1]):
        values[reg - 1] = wrong
        prog = program(name, values)
        call_pc = next(pc for pc, ins in enumerate(prog.instructions)
                       if ins.opcode in (Opcode.CALL, Opcode.TAIL_CALL))
        report = verify(prog)
        assert not report.accepted, wrong
        assert report.offending_instruction == call_pc, report.reason
        prog.verified = True        # lie about it
        out = run(prog)
        assert out.faulted, wrong
        assert f"r{reg}: expected" in out.fault_reason \
            or "kind not accepted" in out.fault_reason, out.fault_reason
