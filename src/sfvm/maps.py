"""Shared state tables for filter programs.

Four kinds, mirroring the helper-visible semantics:

  array         fixed-size, preallocated and zeroed; keys are 8-byte
                little-endian indexes; entries can be overwritten but
                never deleted
  hash          grow-on-insert up to max_entries
  task_storage  per-process values keyed by thread-group leader id,
                reachable only through the task-storage helpers
  prog_array    verified programs for tail handoff, populated at load;
                each entry pairs a program with its own live maps

Values are held as live bytearrays.  A lookup hands out the storage
itself, which is what makes value pointers in filter code write-through:
a store via a looked-up pointer is immediately visible to every thread
sharing the map.

Each map has one owner: an installed program's maps belong to its
installation, and a handoff target's to the program-array entry that
holds it, so they are checkpointed as part of that array.  Copies and
fingerprints follow `PolicyMap`'s declaration (see `state`), in which
value buffers are aliased: a filter's registers may point into them.
The creator's descriptor is a separate handle that the owning process
can drop (`fd_open = False`).  Once the descriptor is closed the map is
no longer reachable from outside, so not even the loading process can
retune a policy after locking itself down.
"""

from __future__ import annotations

import errno

from .isa import FilterProgram, MapDecl, MapKind
from .state import stateful

EPERM = errno.EPERM
ENOENT = errno.ENOENT
E2BIG = errno.E2BIG
EFAULT = errno.EFAULT
EINVAL = errno.EINVAL


@stateful(value="name kind key_size value_size max_entries fd_open",
          aliased="_array _table _programs")
class PolicyMap:
    """One instantiated map. See the module docstring for semantics."""

    def __init__(self, decl: MapDecl):
        decl.validate()
        self.name = decl.name
        self.kind = decl.kind
        self.key_size = decl.key_size
        self.value_size = decl.value_size
        self.max_entries = decl.max_entries
        self.fd_open = True
        self._array: list[bytearray] | None = None
        self._table: dict[bytes, bytearray] = {}
        self._programs: dict[int, tuple[FilterProgram, list]] = {}
        if self.kind == MapKind.ARRAY:
            self._array = [bytearray(self.value_size)
                           for _ in range(self.max_entries)]
        for key, value in sorted(decl.initial_entries.items()):
            self.update(key, value)     # validate() proved each one fits
        for idx, prog in sorted(decl.initial_programs.items()):
            # validate() proved each index fits, too
            self.set_program(idx, prog, instantiate(prog))

    # -- data plane ----------------------------------------------------

    def _array_index(self, key: bytes) -> int:
        return int.from_bytes(key, "little")

    def lookup(self, key: bytes) -> bytearray | None:
        """Live value storage, or None when absent / out of range."""
        if self.kind == MapKind.PROG_ARRAY:
            raise TypeError("program arrays hold programs, not values")
        if len(key) != self.key_size:
            return None
        if self.kind == MapKind.ARRAY:
            idx = self._array_index(key)
            if idx >= self.max_entries:
                return None
            return self._array[idx]
        return self._table.get(bytes(key))

    def update(self, key: bytes, value: bytes, flags: int = 0) -> int:
        """0 on success, negated errno on failure. `flags` is reserved."""
        if self.kind == MapKind.PROG_ARRAY:
            raise TypeError("program arrays hold programs, not values")
        if len(key) != self.key_size or len(value) != self.value_size:
            return -EINVAL
        if self.kind == MapKind.ARRAY:
            idx = self._array_index(key)
            if idx >= self.max_entries:
                return -E2BIG
            self._array[idx][:] = value
            return 0
        key = bytes(key)
        if key not in self._table and len(self._table) >= self.max_entries:
            return -E2BIG
        if key in self._table:
            self._table[key][:] = value
        else:
            self._table[key] = bytearray(value)
        return 0

    def delete(self, key: bytes) -> int:
        if self.kind == MapKind.PROG_ARRAY:
            raise TypeError("program arrays hold programs, not values")
        if self.kind == MapKind.ARRAY:
            return -EINVAL
        if self._table.pop(bytes(key), None) is None:
            return -ENOENT
        return 0

    # task storage reuses the hash plane with the leader id as key

    def storage_key(self, leader_tid: int) -> bytes:
        return leader_tid.to_bytes(self.key_size, "little")

    def storage_get(self, leader_tid: int, create: bool) -> bytearray | None:
        key = self.storage_key(leader_tid)
        value = self._table.get(key)
        if value is None and create and len(self._table) < self.max_entries:
            value = self._table[key] = bytearray(self.value_size)
        return value

    def storage_delete(self, leader_tid: int) -> int:
        return self.delete(self.storage_key(leader_tid))

    # -- program plane ---------------------------------------------------

    def set_program(self, idx: int, prog: FilterProgram, maps: list) -> int:
        """Enter `prog` at `idx`; a handoff to it runs on `maps`."""
        if self.kind != MapKind.PROG_ARRAY:
            raise TypeError(f"map {self.name} is not a program array")
        if idx < 0 or idx >= self.max_entries:
            return -E2BIG
        if not prog.verified:
            raise ValueError("only verified programs may enter a program array")
        self._programs[idx] = (prog, maps)
        return 0

    def get_program(self, idx: int) -> tuple[FilterProgram, list] | None:
        """The (program, maps) pair at `idx`, or None."""
        if self.kind != MapKind.PROG_ARRAY:
            raise TypeError(f"map {self.name} is not a program array")
        return self._programs.get(idx)

    # -- introspection ---------------------------------------------------

    def items(self):
        """Snapshot of (key, value bytes) pairs in canonical order."""
        if self.kind == MapKind.ARRAY:
            return [(i.to_bytes(8, "little"), bytes(v))
                    for i, v in enumerate(self._array)]
        if self.kind == MapKind.PROG_ARRAY:
            raise TypeError("program arrays hold programs, not values")
        return sorted((k, bytes(v)) for k, v in self._table.items())

    def __repr__(self):
        return (f"PolicyMap({self.name!r}, {self.kind.name.lower()}, "
                f"fd={'open' if self.fd_open else 'closed'})")


def instantiate(program: FilterProgram) -> list[PolicyMap]:
    """Fresh live maps for `program`, in declaration order."""
    return [PolicyMap(decl) for decl in program.map_refs]
