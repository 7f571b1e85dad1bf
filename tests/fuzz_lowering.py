"""The interpreter's fused blocks against the reference interpreter
(`helpers.ReferenceThread`, the checked per-pc handlers), outside the
test suite:

    PYTHONPATH=src python -m tests.fuzz_lowering --seed 1 --cases 5000

Each case is one program with seeded inputs (maps, context, user memory,
in-flight syscalls and fault markers), run once on the fused blocks and
once on the reference.  The cases take turns from five sources:
criterion 5's fuzz programs (seed 31337); the verifier's soundness
corpus; the `FORGED` and `BLOCK_EDGES` programs of `test_vm`, each under
syscall number 0 or 1; every policy generator's program, also as a
sleepable copy; and mutants of the generators' and the soundness
programs.  Each program goes through the verifier.  One it refuses has
no facts, and `VmThread` must refuse to run it; it gets no second run.
Half the cases run under a `vm.STEP_LIMIT` of 64 or less, so runs stop
at every offset into a block; the others under 5000.  A run that parks
(at `wait_syscall` or at a fault marker) is resumed until it is done.  At
every park and at the end the two runs must agree on the outcome, the
registers, stack, `stack_init`, pc and counters, the thread's
`state_key()` while parked, the maps and the in-flight table.  It prints
each case where they do not and exits with their number.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from collections import Counter
from dataclasses import replace

from sfvm import vm
from sfvm.asm import assemble
from sfvm.isa import FilterProgram, MapKind, SyscallContext
from sfvm.maps import instantiate
from sfvm.verifier import verify
from sfvm.vm import MapRef, MemPtr, RuntimeEnv, VmFault, VmThread, WaitBlock

from .helpers import (
    USER_BASE,
    ReferenceThread,
    every_generator,
    fuzz_source,
    programs_within,
    soundness_inputs,
    soundness_program,
)
from .test_vm import BLOCK_EDGES, FORGED

MAX_PARKS = 16
SPIN_LIMIT = 5000   # `vm.STEP_LIMIT` for the runs not cut short on purpose
# syscall numbers the generators' programs and the soundness corpus test
NRS = (0, 1, 2, 9, 25, 77, 250)


class MarkedMemory:
    """A snapshot stand-in: a read touching one of `markers` ((address,
    size) pairs) hits that fault marker; others read live memory."""

    def __init__(self, markers):
        self.markers = markers

    def read(self, mem, addr: int, size: int):
        for marker in self.markers:
            if addr < marker[0] + marker[1] and marker[0] < addr + size:
                return ("marker", marker)
        data = mem.read(addr, size)
        return ("fault", None) if data is None else ("ok", data)


def _view(value):
    """A register as data: pointers by contents, maps by name."""
    if isinstance(value, MemPtr):
        return ("ptr", bytes(value.buf), value.off)
    if isinstance(value, MapRef):
        return ("map", value.map.name)
    return value


def _all_maps(maps) -> list:
    out = []
    for pmap in maps:
        out.append(pmap)
        if pmap.kind == MapKind.PROG_ARRAY:
            for idx in range(pmap.max_entries):
                entry = pmap.get_program(idx)
                if entry is not None:
                    out += _all_maps(entry[1])
    return out


def observe(thread: VmThread, status: str, env: RuntimeEnv, maps) -> tuple:
    return (status, thread.outcome, [_view(r) for r in thread.regs],
            bytes(thread.stack), thread.stack_init, thread.pc, thread.steps,
            thread.helper_calls, thread.pure, thread.tail_depth, thread.block,
            thread.state_key() if status == "blocked" else None,
            [pmap.items() for pmap in _all_maps(maps)
             if pmap.kind != MapKind.PROG_ARRAY],
            sorted(env.in_flight.counts.items()), sorted(env.registered))


def trace_run(interpreter, program, maps, ctx, env) -> list:
    """What `observe` sees at every park and at the end of one run on
    `interpreter` (`VmThread` or `ReferenceThread`); a park is resumed as
    the engine would once its condition clears."""
    thread = interpreter(program, maps, ctx)
    seen = []
    while len(seen) < MAX_PARKS:
        status = thread.run(env)
        seen.append(observe(thread, status, env, maps))
        if status == "done":
            break
        block = thread.block
        if isinstance(block, WaitBlock):
            env.in_flight.counts.pop(block.target_nr, None)   # it left
        else:
            thread.fault_serviced.add(block.marker)
        thread.block = None
    return seen


FIELDS = ("status outcome regs stack stack_init pc steps helper_calls pure "
          "tail_depth block state_key maps in_flight registered").split()


def disagreement(program, inputs, step_limit: int) -> tuple:
    """Where the fused and the reference runs of `program` on `inputs()`,
    under `step_limit`, first differ (None when they agree), and the
    fused run (None for a program without facts)."""
    if not program.verified:
        try:
            VmThread(program, *inputs()[:2])
        except VmFault:
            return None, None
        return "a program without facts was let run", None
    saved, vm.STEP_LIMIT = vm.STEP_LIMIT, step_limit
    try:
        fused, checked = (trace_run(interpreter, program, *inputs())
                          for interpreter in (VmThread, ReferenceThread))
    finally:
        vm.STEP_LIMIT = saved
    for at, (a, b) in enumerate(zip(fused, checked)):
        if a != b:
            return (f"observation {at}:\n" + "\n".join(
                f"  {name}: fused {x!r}\n  {name}: reference {y!r}"
                for name, x, y in zip(FIELDS, a, b) if x != y), fused)
    if len(fused) != len(checked):
        return f"{len(fused)} observations against {len(checked)}", fused
    return None, fused


def world(rng: random.Random, program):
    """Seeded inputs for a generator's or the soundness corpus's program:
    `soundness_inputs` plus partner syscalls in flight and fault
    markers over the user pages."""
    maps, ctx, env = soundness_inputs(rng, program)
    if rng.random() < 0.8:
        ctx = replace(ctx, nr=rng.choice(NRS))
    for nr in NRS:
        if rng.random() < 0.5:
            env.in_flight.increment(nr)
    env.snapshot = MarkedMemory(
        [(arg, rng.randint(1, 16)) for arg in ctx.args
         if USER_BASE <= arg < USER_BASE + 8192 and rng.random() < 0.8])
    return maps, ctx, env


def verified(program):
    """`program` after the verifier has seen it and each of its handoff
    targets."""
    for p in programs_within(program):
        verify(p)
    return program


def _seeded(make, seed):
    return lambda: make(random.Random(seed))


def fuzz_cases(rng):
    source = random.Random(31337)     # criterion 5's seed
    while True:
        program = assemble(fuzz_source(source))
        verify(program)
        args = tuple(rng.randint(0, 2**64 - 1) for _ in range(6))
        ctx = SyscallContext(nr=rng.randint(-2**31, 2**31 - 1),
                             arch=rng.randint(0, 2**32 - 1),
                             calling_address=rng.randint(0, 2**64 - 1),
                             args=args)
        yield "criterion 5", program, lambda c=ctx: ([], c, RuntimeEnv())


def soundness_cases(rng):
    while True:
        _, program = soundness_program(rng)
        program = verified(
            replace(program, sleepable=rng.random() < 0.5))
        yield ("soundness", program,
               _seeded(lambda r, p=program: world(r, p), rng.random()))


def forged_cases(rng):
    programs = {**FORGED, **BLOCK_EDGES}
    for name in itertools.cycle(sorted(programs)):
        body = programs[name][0]
        program = verified(
            assemble("section seccomp\n" + body + "\n")
            if isinstance(body, str) else FilterProgram(instructions=body))
        yield (f"forged {name}", program,
               lambda p=program, nr=rng.choice((0, 1)): (
                   instantiate(p), SyscallContext(nr=nr), RuntimeEnv()))


def generator_cases(rng):
    programs = every_generator()
    programs += [replace(p, sleepable=True) for p in programs]
    for program in programs:
        verified(program)
    for program in itertools.cycle(programs):
        yield (f"generator {program.section_name}", program,
               _seeded(lambda r, p=program: world(r, p), rng.random()))


def _mutant(rng: random.Random, program):
    """`program` with one to three fields of its instructions changed: a
    register, a memory or jump offset moved by a little, an immediate."""
    insns = list(program.instructions)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(insns))
        name = rng.choice(("dst", "src", "offset", "imm"))
        if name in ("dst", "src"):
            value = rng.randrange(11)
        elif name == "offset":
            value = insns[at].offset + rng.choice((-16, -8, -1, 1, 8, 16))
        else:
            value = rng.choice((0, 1, 8, -8, 2**63 - 1))
        insns[at] = insns[at]._replace(**{name: value})
    return replace(program, instructions=tuple(insns))


def mutant_cases(rng):
    """Generator and soundness programs with a few fields changed: faults
    and odd operands, most of them refused."""
    bases = every_generator()
    sound = soundness_cases(rng)
    while True:
        base = rng.choice(bases) if rng.random() < 0.5 else next(sound)[1]
        program = verified(_mutant(rng, base))
        yield ("mutant", program,
               _seeded(lambda r, p=program: world(r, p), rng.random()))


def cases(seed: int):
    """The corpus: the five sources in turn, each seeded from `seed`."""
    sources = [make(random.Random(f"{seed} {make.__name__}"))
               for make in (fuzz_cases, soundness_cases, forged_cases,
                            generator_cases, mutant_cases)]
    for source in itertools.cycle(sources):
        yield next(source)


def run_corpus(seed: int, count: int) -> tuple:
    """The first `count` cases: each disagreement's text, and how often
    the fused runs parked, handed off and faulted."""
    found, seen = [], Counter()
    limits = random.Random(f"{seed} limits")
    for label, program, inputs in itertools.islice(cases(seed), count):
        # a low limit cuts runs short at every offset into a block; the
        # other keeps runs that spin on unknown bounds short
        limit = limits.choice((limits.randint(1, 64), SPIN_LIMIT))
        difference, fused = disagreement(program, inputs, limit)
        if difference is not None:
            found.append(f"{label}: {difference}")
        if fused is None:
            continue
        seen.update(type(obs[FIELDS.index("block")]).__name__
                    for obs in fused if obs[0] == "blocked")
        end = fused[-1]
        seen["handoff"] += end[FIELDS.index("tail_depth")] > 0
        seen["fault"] += end[1] is not None and end[1].faulted
    return found, seen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fuzz_lowering")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cases", type=int, default=2000)
    args = ap.parse_args(argv)

    found, seen = run_corpus(args.seed, args.cases)
    for text in found:
        print(text + "\n")
    print(f"cases {args.cases}  mismatched {len(found)}  "
          + "  ".join(f"{what} {n}" for what, n in sorted(seen.items())))
    return min(len(found), 255)


if __name__ == "__main__":
    sys.exit(main())
