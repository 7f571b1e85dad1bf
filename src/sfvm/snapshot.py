"""Entry-time capture of pointed-to syscall arguments.

Register arguments are copied by value when a syscall is entered, but
an argument that is a pointer can have its target rewritten by another
thread between the filter's check and the kernel's use.  This module
closes that window.  A descriptor table says, per syscall number, which
arguments point where and how many bytes matter; at entry the engine
takes a snapshot of those ranges in one of two modes:

  copy           the ranges are copied into a staging region mapped
                 read-only high in the address space; helper reads of
                 a snapshotted source address are redirected into the
                 staging copy, so later writes to the live buffer are
                 invisible to both the filter and the decision
  write_protect  the source pages themselves are write-protected until
                 the syscall completes; helper reads go to live memory
                 (which cannot change), and a writer targeting those
                 pages stalls until release

Either way the verdict is a pure function of entry-time memory.

A range that is unmapped at snapshot time becomes a fault marker.  A
sleepable program that reads into a marker blocks once for fault
service, which re-captures the range from live memory if it has since
been mapped; a plain program just gets -EFAULT, like a failed user
copy in atomic context.  Reads outside every described range fall
through to live memory: the table only promises stability for the
bytes the kernel itself will use.

A descriptor table's objects are declared in the `vocab` vocabulary
(`SYSCALL`, `ARGS`, `ARG_KINDS`, `FIELD_KINDS`), so a key with a typo is
refused rather than leaving a pointer unsnapshotted.  Per-syscall
snapshots are capped at 4096 bytes, checked when the table is loaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import vocab
from .state import stateful
from .usermem import UserMemory

SNAPSHOT_LIMIT = 4096
REGION_BASE = 0x7F0000000000
REGION_STRIDE = 0x10000

COPY = "copy"
WRITE_PROTECT = "write_protect"
MODES = (COPY, WRITE_PROTECT)


class DescriptorError(ValueError):
    pass


@dataclass(frozen=True)
class FieldDesc:
    """A pointer field inside a snapshotted record."""
    offset: int
    kind: str            # "user_buffer" | "user_string"
    size: int            # byte count, or string capacity


@dataclass(frozen=True)
class ArgDesc:
    kind: str            # "scalar" | "user_buffer" | "user_string" | "user_record"
    size: int = 0
    fields: tuple = ()

    @property
    def snapshot_bytes(self) -> int:
        if self.kind == "scalar":
            return 0
        return self.size + sum(f.size for f in self.fields)


_SIZE = vocab.Type("a positive integer",
                   lambda v: type(v) is int and v > 0, "bad size")
_OBJECT = vocab.Type("a JSON object", lambda v: type(v) is dict)
# descriptor field -> its type
FIELDS = {
    "kind": vocab.STR, "size": _SIZE, "max": _SIZE,
    "offset": vocab.Type("a non-negative integer",
                         lambda v: type(v) is int and v >= 0,
                         "bad field offset"),
    "fields": vocab.Type("a list", lambda v: type(v) is list,
                         "fields must be a list"),
}
# a fault is told after its place in the table, and a field left out is
# told what a bad value of it is
_TOLD = {"missing": "{where}: {told}", "wrong": "{where}: {told}"}
# descriptor kind -> the shape of an argument of that kind
ARG_KINDS = {
    "scalar": vocab.shape(FIELDS, "kind", **_TOLD),
    "user_buffer": vocab.shape(FIELDS, "kind size", **_TOLD),
    "user_string": vocab.shape(FIELDS, "kind max", **_TOLD),
    "user_record": vocab.shape(
        {**FIELDS, "size": _SIZE._replace(told="bad record size")},
        "kind size", "fields", **_TOLD),
}
# kind -> the shape of a pointer field of that kind inside a record
FIELD_KINDS = {kind: vocab.shape(FIELDS, "offset kind " + size, **_TOLD)
               for kind, size in (("user_buffer", "size"),
                                  ("user_string", "max"))}
# a syscall's entry in the table, and its argument indexes
SYSCALL = vocab.shape({"name": vocab.STR, "args": _OBJECT}, "", "name args",
                      wrong="{where} {key}: {told}")
ARGS = vocab.shape(
    dict.fromkeys("012345", _OBJECT), "", "0 1 2 3 4 5",
    unknown="{where}: bad argument index {key!r} (out of range 0-5)",
    wrong="{where} arg {key}: {told}")


def _kind(raw: dict, kinds: dict, where: str, unknown: str) -> str:
    """The kind of `raw`, once it is checked against the shape `kinds`
    gives that kind; `unknown` goes before a kind that has none."""
    kind = raw.get("kind")
    if type(kind) is not str or kind not in kinds:
        raise DescriptorError(f"{where}: {unknown}{kind!r}")
    vocab.check(raw, kinds[kind], where, DescriptorError)
    return kind


def _parse_arg(raw: dict, where: str) -> ArgDesc:
    kind = _kind(raw, ARG_KINDS, where, "unknown descriptor kind ")
    size = raw.get("max", raw.get("size", 0))
    fields = []
    for i, item in enumerate(raw.get("fields", ())):
        at = f"{where}.fields[{i}]"
        if type(item) is not dict:
            raise DescriptorError(f"{at}: must be a JSON object")
        field_kind = _kind(item, FIELD_KINDS, at, "record fields may "
                           "only be user_buffer or user_string, got ")
        fd = FieldDesc(item["offset"], field_kind,
                       item.get("max", item.get("size")))
        if fd.offset + 8 > size:
            raise DescriptorError(
                f"{at}: pointer at offset {fd.offset} does not fit in a "
                f"{size}-byte record")
        fields.append(fd)
    return ArgDesc(kind, size, tuple(fields))


class DescriptorTable:
    """Per-syscall argument descriptions, loaded from JSON: an object of
    decimal syscall numbers -> `SYSCALL` entries, whose "args" are `ARGS`
    indexes -> descriptors of an `ARG_KINDS` kind."""

    def __init__(self, table: dict[int, dict[int, ArgDesc]] | None = None):
        self._table = table or {}

    @classmethod
    def from_json(cls, data) -> "DescriptorTable":
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except ValueError as exc:
                raise DescriptorError(
                    f"descriptor table: bad JSON ({exc})") from None
        if type(data) is not dict:
            raise DescriptorError("descriptor table: must be a JSON object")
        table: dict[int, dict[int, ArgDesc]] = {}
        for nr_key, entry in data.items():
            if not vocab.is_decimal(nr_key):
                raise DescriptorError(f"bad syscall number {nr_key!r}")
            where = f"syscall {int(nr_key)}"
            if type(entry) is not dict:
                raise DescriptorError(f"{where}: must be a JSON object")
            vocab.check(entry, SYSCALL, where, DescriptorError)
            raw_args = entry.get("args", {})
            vocab.check(raw_args, ARGS, where, DescriptorError)
            args = {int(idx): _parse_arg(raw, f"{where} arg {idx}")
                    for idx, raw in raw_args.items()}
            total = sum(desc.snapshot_bytes for desc in args.values())
            if total > SNAPSHOT_LIMIT:
                raise DescriptorError(
                    f"{where}: snapshot would be {total} bytes, "
                    f"limit is {SNAPSHOT_LIMIT}")
            table[int(nr_key)] = args
        return cls(table)

    def get(self, nr: int) -> dict[int, ArgDesc]:
        return self._table.get(nr, {})


@dataclass(frozen=True)
class _Range:
    src: int
    size: int
    region: int | None   # staging address in copy mode, None in wp mode


@stateful(value="mode region_base region_len ranges fault_markers "
                "protected_pages released")
@dataclass
class ArgSnapshot:
    mode: str
    region_base: int
    region_len: int = 0
    ranges: list = field(default_factory=list)
    fault_markers: list = field(default_factory=list)   # (addr, size)
    protected_pages: set = field(default_factory=set)
    released: bool = False

    def read(self, mem: UserMemory, addr: int, size: int):
        """Resolve a helper read byte by byte.

        ("ok", bytes)        all bytes available
        ("marker", (a, s))   hit a fault marker (service candidate)
        ("fault", None)      unmapped live memory
        """
        out = bytearray()
        for i in range(size):
            a = addr + i
            hit = None
            for r in self.ranges:
                if r.src <= a < r.src + r.size:
                    hit = r
                    break
            if hit is not None:
                if self.mode == COPY:
                    b = mem.read(hit.region + (a - hit.src), 1)
                else:
                    b = mem.read(a, 1)
                if b is None:
                    return ("fault", None)
                out += b
                continue
            marker = next((m for m in self.fault_markers
                           if m[0] <= a < m[0] + m[1]), None)
            if marker is not None:
                return ("marker", marker)
            b = mem.read(a, 1)
            if b is None:
                return ("fault", None)
            out += b
        return ("ok", bytes(out))

    def service_fault(self, mem: UserMemory, marker) -> bool:
        """Re-capture one marker from live memory. True if any part of it
        is now mapped and was absorbed into the snapshot."""
        if marker not in self.fault_markers:
            return False
        self.fault_markers.remove(marker)
        return self.capture(mem, *marker)

    def capture(self, mem: UserMemory, addr: int, size: int) -> bool:
        """Take [addr, addr+size) into the snapshot; unmapped runs become
        fault markers.  True if any part was mapped."""
        progress = False
        for run_addr, run_size, mapped in mem.runs(addr, size):
            if not mapped:
                self.fault_markers.append((run_addr, run_size))
                continue
            progress = True
            if self.mode == COPY:
                data = mem.read(run_addr, run_size)
                dst = self.region_base + self.region_len
                mem.map_region(dst, run_size, writable=False,
                               user_accessible=True, may_write=False)
                mem.poke(dst, data)
                self.ranges.append(_Range(run_addr, run_size, dst))
                self.region_len += run_size
            else:
                self.protected_pages.update(
                    mem.protect(run_addr, run_size, self.protected_pages))
                self.ranges.append(_Range(run_addr, run_size, None))
        return progress


class Snapshotter:
    def __init__(self, descriptors: DescriptorTable, mode: str = COPY):
        if mode not in MODES:
            raise ValueError(f"unknown snapshot mode {mode!r}")
        self.descriptors = descriptors
        self.mode = mode

    def snapshot(self, mem: UserMemory, tid: int, ctx) -> ArgSnapshot:
        snap = ArgSnapshot(mode=self.mode,
                           region_base=REGION_BASE + tid * REGION_STRIDE)
        for idx, desc in sorted(self.descriptors.get(ctx.nr).items()):
            if desc.kind == "scalar":
                continue
            ptr = ctx.args[idx]
            if ptr == 0:
                continue
            snap.capture(mem, ptr, desc.size)
            if desc.kind == "user_record":
                record = snap.read(mem, ptr, desc.size)
                if record[0] != "ok":
                    continue
                blob = record[1]
                for fd in desc.fields:
                    inner = int.from_bytes(blob[fd.offset:fd.offset + 8],
                                           "little")
                    if inner:
                        snap.capture(mem, inner, fd.size)
        return snap

    def release(self, mem: UserMemory, snap: ArgSnapshot):
        if snap.released:
            return
        snap.released = True
        if self.mode == WRITE_PROTECT:
            mem.unprotect(snap.protected_pages)
            snap.protected_pages.clear()
