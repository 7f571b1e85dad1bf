"""Policy generators: assembly emitters for common filtering idioms.

Each generator produces assembly text for one policy family, assembles
it, and attaches any precomputed map contents, returning a program
ready to load.  Emitting text rather than instruction lists keeps the
generators honest (everything goes through the same assembler and
checker as hand-written filters) and makes `--dump-asm` style
debugging trivial.

Set-membership maps carry one entry per member with value 1; code
only ever tests hit or miss.

`GENERATORS` at the end gives each family its function, a one-line
summary and the shape of its specs in the `vocab` vocabulary, of the
types `FIELDS` gives; `build_program` turns a JSON spec into a program
through it.  `PHASE_PROFILE` is the shape of a profile object.  The
families and their fields:

"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, replace
from typing import Callable

from .actions import (
    RET_ALLOW,
    RET_ERRNO,
    RET_KILL_PROCESS,
    RET_KILL_THREAD,
    RET_LOG,
    RET_TRAP,
)
from . import vocab
from .asm import AsmError, assemble
from .isa import FilterProgram

SWEEP_DOMAIN = range(0, 451)
# capacity of the hash denylist's map; fixed, not sized to the set, so the
# program and its declarations are byte-identical across set sizes
DENYLIST_HASH_CAPACITY = 512
# entries of each validation checker's decision cache
VALIDATION_CACHE_CAPACITY = 1024

_ACTION_WORDS = {
    "allow": RET_ALLOW,
    "log": RET_LOG,
    "trap": RET_TRAP,
    "kill_thread": RET_KILL_THREAD,
    "kill_process": RET_KILL_PROCESS,
}


def parse_action(spec) -> int:
    """"allow", "kill_process", "errno:13", or a raw u32 action word."""
    if type(spec) is int:
        if not 0 <= spec <= 0xFFFFFFFF:
            raise ValueError(f"raw action {spec:#x} does not fit in u32")
        return spec
    if type(spec) is str:
        if spec in _ACTION_WORDS:
            return _ACTION_WORDS[spec]
        if spec.startswith("errno:"):
            try:
                code = int(spec[len("errno:"):], 0)
            except ValueError:
                raise ValueError(f"bad errno in {spec!r}") from None
            if not 0 <= code <= 0xFFF:
                raise ValueError(f"errno out of range in {spec!r}")
            return RET_ERRNO | code
    raise ValueError(f"unknown action spec {spec!r}")


def _u64(value: int) -> bytes:
    return (value & (2 ** 64 - 1)).to_bytes(8, "little")


def _member_entries(values) -> dict[bytes, bytes]:
    return {_u64(v): _u64(1) for v in values}


def _finish(text: str, entries: dict | None = None,
            programs: dict | None = None) -> FilterProgram:
    """Assemble and attach initial map contents by map name."""
    program = assemble(text)
    if not entries and not programs:
        return program
    decls = list(program.map_refs)
    for name, content in (entries or {}).items():
        idx = program.map_index(name)
        decls[idx] = replace(decls[idx], initial_entries=dict(content))
    for name, content in (programs or {}).items():
        idx = program.map_index(name)
        decls[idx] = replace(decls[idx], initial_programs=dict(content))
    return replace(program, map_refs=tuple(decls))


def _tails(allow_raw: int, deny_raw: int) -> str:
    return (f"allow:\n"
            f"    mov r0, {allow_raw:#x}\n"
            f"    exit\n"
            f"deny:\n"
            f"    mov r0, {deny_raw:#x}\n"
            f"    exit\n")


def _lookup(map_name: str, slot: int) -> str:
    """Look up the key staged at r10-`slot`; the result lands in r0."""
    return (f"    mov r2, r10\n"
            f"    add r2, -{slot}\n"
            f"    ld_imm64 r1, map:{map_name}\n"
            f"    call map_lookup_elem\n")


# -- simple set policies -------------------------------------------------

def gen_allow_all() -> FilterProgram:
    return _finish(f"section seccomp\n"
                   f"    mov r0, {RET_ALLOW:#x}\n"
                   f"    exit\n")


def _tree_lines(values, out, counter):
    """Balanced comparison tree over sorted values; hits jump to allow."""
    if not values:
        out.append("    jmp deny")
        return
    mid = len(values) // 2
    pivot = values[mid]
    out.append(f"    jeq r2, {pivot}, allow")
    if len(values) == 1:
        out.append("    jmp deny")
        return
    label = f"gt{counter[0]}"
    counter[0] += 1
    out.append(f"    jgt r2, {pivot}, {label}")
    _tree_lines(values[:mid], out, counter)
    out.append(f"{label}:")
    _tree_lines(values[mid + 1:], out, counter)


def gen_allowlist(allowed, layout: str = "linear",
                  deny="errno:1") -> FilterProgram:
    allowed = sorted(set(allowed))
    deny_raw = parse_action(deny)
    if layout == "hash":
        text = (f"section seccomp\n"
                f"map allowed hash 8 8 {max(len(allowed), 1)}\n"
                f"    ld_ctx r2, 0\n"
                f"    st_map r10, r2, -8\n"
                + _lookup("allowed", 8) +
                f"    jne r0, 0, allow\n"
                f"    jmp deny\n"
                + _tails(RET_ALLOW, deny_raw))
        return _finish(text, {"allowed": _member_entries(allowed)})
    lines = ["section seccomp", "    ld_ctx r2, 0"]
    if layout == "linear":
        lines += [f"    jeq r2, {v}, allow" for v in allowed]
        lines.append("    jmp deny")
    elif layout == "tree":
        _tree_lines(allowed, lines, [0])
    else:
        raise ValueError(f"unknown allowlist layout {layout!r}")
    return _finish("\n".join(lines) + "\n" + _tails(RET_ALLOW, deny_raw))


def gen_denylist(denied, layout: str = "linear",
                 deny="errno:1") -> FilterProgram:
    denied = sorted(set(denied))
    deny_raw = parse_action(deny)
    if layout == "hash":
        if len(denied) > DENYLIST_HASH_CAPACITY:
            raise ValueError("denied set exceeds hash capacity")
        text = (f"section seccomp\n"
                f"map denied hash 8 8 {DENYLIST_HASH_CAPACITY}\n"
                f"    ld_ctx r2, 0\n"
                f"    st_map r10, r2, -8\n"
                + _lookup("denied", 8) +
                f"    jne r0, 0, deny\n"
                f"    jmp allow\n"
                + _tails(RET_ALLOW, deny_raw))
        return _finish(text, {"denied": _member_entries(denied)})
    if layout != "linear":
        raise ValueError(f"unknown denylist layout {layout!r}")
    lines = ["section seccomp", "    ld_ctx r2, 0"]
    lines += [f"    jeq r2, {v}, deny" for v in denied]
    return _finish("\n".join(lines) + "\n" + _tails(RET_ALLOW, deny_raw))


# -- stateful policies ------------------------------------------------------

def gen_count_limit(nr: int, max_count: int, arg_index: int | None = None,
                    arg_value: int | None = None,
                    deny="errno:1") -> FilterProgram:
    if (arg_index is None) != (arg_value is None):
        raise ValueError("arg_index and arg_value go together")
    guard = ""
    if arg_index is not None:
        if not 0 <= arg_index <= 5:
            raise ValueError("argument index out of range")
        guard = (f"    ld_ctx r2, {16 + 8 * arg_index}\n"
                 f"    jne r2, {arg_value}, allow\n")
    text = (f"section seccomp\n"
            f"map counter array 8 8 1\n"
            f"    ld_ctx r2, 0\n"
            f"    jne r2, {nr}, allow\n"
            + guard +
            f"    mov r2, 0\n"
            f"    st_map r10, r2, -8\n"
            + _lookup("counter", 8) +
            f"    jeq r0, 0, deny\n"
            f"    ld_map r3, r0, 0\n"
            f"    jge r3, {max_count}, deny\n"
            f"    add r3, 1\n"
            f"    st_map r0, r3, 0\n"
            + _tails(RET_ALLOW, parse_action(deny)))
    return _finish(text)


NANOS_PER_TOKEN = 1_000_000_000


def gen_rate_limit(nr: int, rate_per_sec: int, capacity: int,
                   deny="errno:11") -> FilterProgram:
    """Token bucket: `rate_per_sec` tokens/s, burst up to `capacity`.

    One token is a billion nanotokens, so a rate of r tokens per
    second refills at exactly r nanotokens per nanosecond and the
    whole policy stays in integer multiplies.
    """
    if rate_per_sec <= 0 or capacity <= 0:
        raise ValueError("rate and capacity must be positive")
    cap_nano = capacity * NANOS_PER_TOKEN
    if cap_nano >= 1 << 64:
        raise ValueError(f"a capacity of {capacity} tokens overflows the "
                         f"bucket's 64-bit nanotokens")
    text = (f"section seccomp\n"
            f"map bucket array 8 24 1\n"
            f"    ld_ctx r2, 0\n"
            f"    jne r2, {nr}, allow\n"
            f"    mov r2, 0\n"
            f"    st_map r10, r2, -8\n"
            + _lookup("bucket", 8) +
            f"    jeq r0, 0, deny\n"
            f"    mov r6, r0\n"
            f"    call ktime_get_ns\n"
            f"    mov r7, r0\n"
            f"    ld_map r3, r6, 0\n"
            f"    jne r3, 0, refill\n"
            f"    mov r3, 1\n"
            f"    st_map r6, r3, 0\n"
            f"    st_map r6, r7, 8\n"
            f"    ld_imm64 r4, {cap_nano}\n"
            f"    st_map r6, r4, 16\n"
            f"refill:\n"
            f"    ld_map r3, r6, 8\n"
            f"    mov r4, r7\n"
            f"    sub r4, r3\n"
            f"    mul r4, {rate_per_sec}\n"
            f"    ld_map r3, r6, 16\n"
            f"    add r3, r4\n"
            f"    ld_imm64 r5, {cap_nano}\n"
            f"    jle r3, r5, clamped\n"
            f"    mov r3, r5\n"
            f"clamped:\n"
            f"    st_map r6, r7, 8\n"
            f"    ld_imm64 r5, {NANOS_PER_TOKEN}\n"
            f"    jlt r3, r5, broke\n"
            f"    sub r3, r5\n"
            f"    st_map r6, r3, 16\n"
            f"    jmp allow\n"
            f"broke:\n"
            f"    st_map r6, r3, 16\n"
            f"    jmp deny\n"
            + _tails(RET_ALLOW, parse_action(deny)))
    return _finish(text)


# -- two-phase policies -------------------------------------------------

@dataclass(frozen=True)
class PhaseProfile:
    """An application's syscall needs before and after it finishes
    initializing, plus the marker syscall that announces the switch."""
    name: str
    s_init: frozenset
    s_serv: frozenset
    marker_nr: int

    @property
    def union_size(self) -> int:
        return len(self.s_init | self.s_serv)

    @property
    def common_size(self) -> int:
        return len(self.s_init & self.s_serv)

    @property
    def reduction_pct(self) -> float:
        """Early-execution attack-surface reduction: the share of the
        whole-lifetime union that a phase-aware policy still blocks
        before the switch, because only the serving phase needs it."""
        union = self.union_size
        return (union - len(self.s_init)) / union * 100.0

    @classmethod
    def from_json(cls, name: str, raw) -> "PhaseProfile":
        """A profile from its JSON object of shape `PHASE_PROFILE`: "init"
        and "serv" each list [start, stop) ranges of syscall numbers,
        "marker" is the number that announces the switch, and "name" may
        be given too."""
        if not isinstance(raw, dict):
            raise ValueError(f"profile {name!r} must be an object")
        where = f"profile {name!r}"
        vocab.check(raw, PHASE_PROFILE, where, ValueError)
        return cls(name=name, s_init=_numbers(where, "init", raw["init"]),
                   s_serv=_numbers(where, "serv", raw["serv"]),
                   marker_nr=raw["marker"])


# syscall numbers in a profile lie in [0, PROFILE_NR_LIMIT): all of them
# just fit one hash map of MAX_MAP_BYTES, and the bound keeps a malformed
# range from expanding into a huge set
PROFILE_NR_LIMIT = 1 << 16
_RANGES = vocab.Type(
    "a list of [start, stop] pairs",
    lambda v: type(v) in (list, tuple) and all(
        vocab.I64S.test(pair) and len(pair) == 2 for pair in v),
    f"must be a list of [start, stop] pairs with 0 <= start <= stop <= "
    f"{PROFILE_NR_LIMIT}")
# the fields of a profile object, inline in a spec or in a profiles file
PHASE_PROFILE = vocab.shape(
    {"name": vocab.STR, "init": _RANGES, "serv": _RANGES,
     "marker": vocab.Type("an integer", vocab.I64.test)},
    "init serv marker", "name", unknown="{where} has unknown key {key!r}",
    missing="{where} is missing {key!r}")


def _numbers(where: str, key: str, ranges) -> frozenset:
    out = set()
    for start, stop in ranges:
        if not 0 <= start <= stop <= PROFILE_NR_LIMIT:
            raise ValueError(f"{where}: {key} {_RANGES.told}")
        out.update(range(start, stop))
    return frozenset(out)


def load_profiles(path=None) -> dict[str, PhaseProfile]:
    """The bundled profiles, or those of the JSON file at `path`: an
    object of profile name -> profile object.  The bundled file is parsed
    once per process; each call gets its own dict of the same profiles."""
    global _BUNDLED
    if path is None:
        if _BUNDLED is None:
            from importlib.resources import files
            _BUNDLED = _parse_profiles(
                (files("sfvm") / "data" / "profiles.json").read_text())
        return dict(_BUNDLED)
    with open(path, encoding="utf-8") as fh:
        return _parse_profiles(fh.read())


_BUNDLED: dict | None = None


def _parse_profiles(text: str) -> dict[str, PhaseProfile]:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("profiles must be a JSON object of name -> profile")
    return {name: PhaseProfile.from_json(name, entry)
            for name, entry in raw.items()}


def gen_temporal(profile: PhaseProfile, deny="errno:1") -> FilterProgram:
    text = (f"section seccomp\n"
            f"map phase array 8 8 1\n"
            f"map init_set hash 8 8 {max(len(profile.s_init), 1)}\n"
            f"map serv_set hash 8 8 {max(len(profile.s_serv), 1)}\n"
            f"    ld_ctx r6, 0\n"
            f"    mov r2, 0\n"
            f"    st_map r10, r2, -8\n"
            + _lookup("phase", 8) +
            f"    jeq r0, 0, deny\n"
            f"    mov r7, r0\n"
            f"    ld_map r3, r7, 0\n"
            f"    jne r3, 0, serving\n"
            f"    jne r6, {profile.marker_nr}, initcheck\n"
            f"    mov r3, 1\n"
            f"    st_map r7, r3, 0\n"
            f"    jmp allow\n"
            f"initcheck:\n"
            f"    st_map r10, r6, -16\n"
            + _lookup("init_set", 16) +
            f"    jne r0, 0, allow\n"
            f"    jmp deny\n"
            f"serving:\n"
            f"    st_map r10, r6, -16\n"
            + _lookup("serv_set", 16) +
            f"    jne r0, 0, allow\n"
            f"    jmp deny\n"
            + _tails(RET_ALLOW, parse_action(deny)))
    return _finish(text, {
        "init_set": _member_entries(profile.s_init),
        "serv_set": _member_entries(profile.s_serv),
    })


def gen_phase_baseline(profile: PhaseProfile, phase: str,
                       deny="errno:1") -> FilterProgram:
    """What a filter without state can offer the same application:
    the union allowlist for startup, narrowed by stacking a second
    serving-phase allowlist after the switch."""
    if phase == "union":
        allowed = (profile.s_init | profile.s_serv) | {profile.marker_nr}
    elif phase == "serv":
        allowed = set(profile.s_serv)
    else:
        raise ValueError(f"unknown baseline phase {phase!r}")
    return gen_allowlist(sorted(allowed), layout="linear", deny=deny)


# -- transition policies ---------------------------------------------------

def gen_flow_integrity(syscalls, transitions, origins=None,
                       deny="kill_process") -> FilterProgram:
    """State machine over syscall order.

    `syscalls` lists the governed numbers; anything else is denied
    outright.  `transitions` holds (prev, cur) pairs, with prev=None
    meaning "as the first governed call".  `origins`, when given, maps
    a syscall number to the calling addresses allowed to issue it.

    Codes are 1-based with 0 as the start state, so fresh per-process
    state needs no initialization: zero already means "nothing yet".
    """
    syscalls = list(dict.fromkeys(syscalls))
    n = len(syscalls)
    if n == 0:
        raise ValueError("flow integrity needs at least one syscall")
    code = {nr: i + 1 for i, nr in enumerate(syscalls)}
    origins = {int(nr): addrs for nr, addrs in (origins or {}).items()}
    for nr in origins:
        if nr not in code:
            raise ValueError(f"origin rule for ungoverned syscall {nr}")

    trans_entries = {}
    for prev, cur in transitions:
        if prev is not None and prev not in code:
            raise ValueError(f"transition from ungoverned syscall {prev}")
        prev_code = 0 if prev is None else code[prev]
        if cur not in code:
            raise ValueError(f"transition to ungoverned syscall {cur}")
        index = prev_code * n + (code[cur] - 1)
        trans_entries[_u64(index)] = _u64(1)

    origin_entries = {}
    for nr, addrs in origins.items():
        for addr in addrs:
            origin_entries[_u64(nr) + _u64(addr)] = _u64(1)

    lines = [
        "section seccomp",
        "map state task_storage 8 8 64",
        f"map trans array 8 8 {(n + 1) * n}",
    ]
    if origin_entries:
        lines.append(f"map origins hash 16 8 {len(origin_entries)}")
    lines.append("    ld_ctx r7, 0")
    for nr in syscalls:
        lines.append(f"    jeq r7, {nr}, is{code[nr]}")
    lines.append("    jmp deny")
    for nr in syscalls:
        c = code[nr]
        lines += [f"is{c}:",
                  f"    mov r6, {c}",
                  f"    mov r8, {1 if nr in origins else 0}",
                  "    jmp dispatch"]
    lines.append("dispatch:")
    if origin_entries:
        lines += [
            "    jeq r8, 0, checkstate",
            "    st_map r10, r7, -32",
            "    ld_ctx r3, 8",
            "    st_map r10, r3, -24",
            *_lookup("origins", 32).splitlines(),
            "    jeq r0, 0, deny",
        ]
    lines += [
        "checkstate:",
        "    ld_imm64 r1, map:state",
        "    mov r2, 1",
        "    call safe_task_storage_get",
        "    jeq r0, 0, deny",
        "    mov r7, r0",
        "    ld_map r3, r7, 0",
        f"    mul r3, {n}",
        "    mov r4, r6",
        "    sub r4, 1",
        "    add r3, r4",
        "    st_map r10, r3, -8",
        *_lookup("trans", 8).splitlines(),
        "    jeq r0, 0, deny",
        "    ld_map r3, r0, 0",
        "    jeq r3, 0, deny",
        "    st_map r7, r6, 0",
    ]
    text = "\n".join(lines) + "\n" + _tails(RET_ALLOW, parse_action(deny))
    entries = {"trans": trans_entries}
    if origin_entries:
        entries["origins"] = origin_entries
    return _finish(text, entries)


SENTINEL = 0xFFFFFFFFFFFFFFFF


def gen_serialization(pairs: dict) -> FilterProgram:
    """Hold a syscall at the door while a partner syscall is in
    flight anywhere in the system.  Up to two partners per syscall;
    unused slots hold an all-ones sentinel, so no partner may be that
    u64 (-1).  Never denies."""
    entries = {}
    for nr, partners in {int(nr): p for nr, p in pairs.items()}.items():
        partners = list(partners)
        if not 1 <= len(partners) <= 2:
            raise ValueError(f"syscall {nr}: need one or two partners")
        for partner in partners:
            if partner & SENTINEL == SENTINEL:
                raise ValueError(f"syscall {nr}: partner {partner} is the "
                                 f"empty-slot sentinel {SENTINEL:#x}")
        while len(partners) < 2:
            partners.append(SENTINEL)
        entries[_u64(nr)] = _u64(partners[0]) + _u64(partners[1])
    text = (f"section seccomp\n"
            f"map partners hash 8 16 {max(len(entries), 1)}\n"
            f"    ld_ctx r6, 0\n"
            f"    st_map r10, r6, -8\n"
            + _lookup("partners", 8) +
            f"    jeq r0, 0, allow\n"
            f"    mov r7, r0\n"
            f"    ld_map r3, r7, 0\n"
            f"    ld_imm64 r4, {SENTINEL:#x}\n"
            f"    jeq r3, r4, second\n"
            f"    mov r1, r6\n"
            f"    mov r2, r3\n"
            f"    call wait_syscall\n"
            f"second:\n"
            f"    ld_map r3, r7, 8\n"
            f"    ld_imm64 r4, {SENTINEL:#x}\n"
            f"    jeq r3, r4, allow\n"
            f"    mov r1, r6\n"
            f"    mov r2, r3\n"
            f"    call wait_syscall\n"
            f"allow:\n"
            f"    mov r0, {RET_ALLOW:#x}\n"
            f"    exit\n")
    return _finish(text, {"partners": entries})


# -- dispatched argument validation ------------------------------------------

def _check_program(nr: int, arg_rules: dict, cached: bool,
                   deny_raw: int) -> FilterProgram:
    lines = ["section seccomp"]
    if cached:
        lines.append(f"map cache hash 48 8 {VALIDATION_CACHE_CAPACITY}")
        # stage [nr, arg0..arg4] as the cache key at r10-48
        lines.append("    ld_ctx r3, 0")
        lines.append("    st_map r10, r3, -48")
        for i in range(5):
            lines.append(f"    ld_ctx r3, {16 + 8 * i}")
            lines.append(f"    st_map r10, r3, {-40 + 8 * i}")
        lines += [
            *_lookup("cache", 48).splitlines(),
            "    jne r0, 0, allow",
        ]
    for k, (arg_idx, values) in enumerate(sorted(arg_rules.items())):
        if not 0 <= arg_idx <= 4:
            raise ValueError("validated arguments must be indexes 0-4")
        lines.append(f"    ld_ctx r3, {16 + 8 * arg_idx}")
        lines += [f"    jeq r3, {v}, arg{k}ok" for v in sorted(set(values))]
        lines.append("    jmp deny")
        lines.append(f"arg{k}ok:")
    if cached:
        lines += [
            "    mov r3, 1",
            "    st_map r10, r3, -56",
            "    mov r2, r10",
            "    add r2, -48",
            "    mov r3, r10",
            "    add r3, -56",
            "    mov r4, 0",
            "    ld_imm64 r1, map:cache",
            "    call map_update_elem",
        ]
    text = "\n".join(lines) + "\n" + _tails(RET_ALLOW, deny_raw)
    return _finish(text)


def gen_validation_cache(rules: dict, cached: bool = True, deny="errno:1",
                         default="allow") -> FilterProgram:
    """Per-syscall argument allowlists behind a dispatcher.

    `rules` maps syscall number -> {argument index -> allowed values}.
    Each governed syscall gets its own checker program, reached by a
    handoff through a program array.  With `cached`, a checker first
    consults a decision cache keyed on (nr, args 0-4) and only walks
    its comparison chains on a miss, inserting on success.  Ungoverned
    syscalls get the `default` action.
    """
    deny_raw = parse_action(deny)
    rules = {int(nr): {int(a): values for a, values in arg_rules.items()}
             for nr, arg_rules in rules.items()}
    governed = sorted(rules)
    if not governed:
        raise ValueError("no rules given")
    lines = ["section seccomp",
             f"map handlers prog_array 8 8 {len(governed)}",
             "    ld_ctx r6, 0"]
    for slot, nr in enumerate(governed):
        lines.append(f"    jeq r6, {nr}, disp{slot}")
    lines += [f"    mov r0, {parse_action(default):#x}", "    exit"]
    for slot, _ in enumerate(governed):
        lines += [f"disp{slot}:",
                  "    ld_imm64 r1, map:handlers",
                  f"    mov r2, {slot}",
                  "    tail_call",
                  # a populated slot never falls through; fail closed
                  f"    mov r0, {deny_raw:#x}",
                  "    exit"]
    handlers = {slot: _check_program(nr, rules[nr], cached, deny_raw)
                for slot, nr in enumerate(governed)}
    return _finish("\n".join(lines) + "\n",
                   programs={"handlers": handlers})


# -- the spec table ---------------------------------------------------------

class PolicySpecError(ValueError):
    """A generator spec that `build_program` cannot turn into a program.
    The message names the generator and, when one field is at fault, the
    field."""


def _action_fault(value) -> str | None:
    try:
        parse_action(value)
    except ValueError as exc:
        return str(exc)
    return None


ACTION = vocab.Type("an action", lambda v: _action_fault(v) is None,
                    _action_fault)
PROFILE = vocab.Type("a bundled profile name or a profile object",
                     lambda v: type(v) in (str, dict))
NR_INTS = vocab.keyed("an object {decimal: [integers]}", vocab.I64S)
# spec field -> its type; a field has this one type in every generator
FIELDS = {
    **dict.fromkeys(("nr", "max", "rate", "capacity", "arg_index",
                     "arg_value"), vocab.I64),
    **dict.fromkeys(("allowed", "denied", "syscalls"), vocab.I64S),
    **dict.fromkeys(("generator", "layout"), vocab.STR),
    **dict.fromkeys(("deny", "default"), ACTION),
    "cached": vocab.BOOL,
    "profile": PROFILE,
    "transitions": vocab.Type(
        "a list of [from or null, to] integer pairs",
        lambda v: type(v) in (list, tuple) and all(
            type(pair) in (list, tuple) and len(pair) == 2
            and vocab.I64.test(pair[1])
            and (pair[0] is None or vocab.I64.test(pair[0])) for pair in v)),
    **dict.fromkeys(("origins", "pairs"), NR_INTS),
    "rules": vocab.keyed("an object {decimal: {decimal: [integers]}}",
                         NR_INTS),
}
# spec field -> the generator's parameter, where it is named otherwise
PARAMS = {"max": "max_count", "rate": "rate_per_sec"}


def _profile(value) -> PhaseProfile:
    if isinstance(value, str):
        profiles = load_profiles()
        if value not in profiles:
            raise ValueError(f"no bundled profile named {value!r}")
        return profiles[value]
    return PhaseProfile.from_json(value.get("name", "inline"), value)


def _family(gen: Callable, summary: str, required: str = "",
            optional: str = "") -> tuple:
    return gen, summary, vocab.shape(FIELDS, f"generator {required}",
                                     optional,
                                     wrong="{where}: field {key!r}: {told}")


# generator -> (its function, a one-line summary, the shape of its specs,
# from the fields it requires and the others it may carry).  An optional
# field left out keeps the parameter's default, which only the function's
# signature states.
GENERATORS = {
    "allow_all": _family(
        gen_allow_all, "allow everything in two instructions: the baseline"),
    "allowlist": _family(
        gen_allowlist, "allow a set of numbers (linear, tree or hash)",
        "allowed", "layout deny"),
    "denylist": _family(
        gen_denylist, "deny a set of numbers, allow the rest (linear or hash)",
        "denied", "layout deny"),
    "count_limit": _family(
        gen_count_limit,
        "budget N calls of a number, or of one argument value",
        "nr max", "arg_index arg_value deny"),
    "rate_limit": _family(
        gen_rate_limit, "token bucket for one number, held in nanotokens",
        "nr rate capacity", "deny"),
    "temporal": _family(
        gen_temporal, "two-phase allowlist switched by a marker syscall",
        "profile", "deny"),
    "flow_integrity": _family(
        gen_flow_integrity,
        "state machine over syscall order, optional call-site pins",
        "syscalls transitions", "origins deny"),
    "serialization": _family(
        gen_serialization, "stall a syscall while a partner is in flight",
        "pairs"),
    "validation_cache": _family(
        gen_validation_cache,
        "argument checks per syscall behind a program array",
        "rules", "cached deny default"),
}


def build_program(spec: dict) -> FilterProgram:
    """Build a policy from a JSON-friendly generator spec: its fields are
    checked against its generator's shape in `GENERATORS`, then the
    generator runs with its own checks.  Whatever cannot be built raises
    `PolicySpecError`."""
    if not isinstance(spec, dict):
        raise PolicySpecError(f"a policy spec must be an object, "
                              f"not {type(spec).__name__}")
    name = spec.get("generator")
    if not isinstance(name, str) or name not in GENERATORS:
        raise PolicySpecError(f"unknown policy generator {name!r}")
    gen, _, shape = GENERATORS[name]
    vocab.check(spec, shape, name, PolicySpecError)
    kwargs = {}
    for key, value in spec.items():
        if key == "generator":
            continue
        if key == "profile":
            try:
                value = _profile(value)
            except ValueError as exc:
                raise PolicySpecError(f"{name}: field {key!r}: {exc}") \
                    from None
        kwargs[PARAMS.get(key, key)] = value
    try:
        return gen(**kwargs)
    except AsmError as exc:
        raise PolicySpecError(f"{name}: the generated program does not "
                              f"assemble ({exc})") from None
    except ValueError as exc:
        raise PolicySpecError(f"{name}: {exc}") from None


def describe_generators() -> str:
    """Each generator of `GENERATORS` with its summary and its fields, one
    a line; an optional field shows its parameter's default."""
    out = []
    for name, (gen, summary, shape) in GENERATORS.items():
        out.append(f"  {name:<18} {summary}\n")
        params = inspect.signature(gen).parameters
        required = [key for key, in shape.required]
        for key, kind in shape.types.items():
            if key == "generator":
                continue
            text = kind.name
            if key not in required:
                default = params[PARAMS.get(key, key)].default
                text += (", optional" if default is None
                         else f", default {json.dumps(default)}")
            out.append(f"      {key:<14} {text}\n")
    out.append('  an action is "allow", "log", "trap", "kill_thread", '
               '"kill_process",\n  "errno:N" or a raw u32 action word\n')
    return "".join(out)


if __doc__:
    __doc__ += describe_generators()
