"""Sparse model of a process address space.

Memory exists in 4096-byte pages mapped on demand.  Each page carries
three permissions:

  writable          page-table write permission; read-only pages
                    (argument staging regions) refuse all stores
  user_accessible   readable through the user-access helpers
  may_write         whether simulated application writers may target
                    the page; cleared on pages the snapshot layer owns

Writes report a status instead of raising, because the interesting
outcomes are the non-OK ones: a STALL means the page is currently
write-protected by an in-progress argument snapshot and the writer must
retry after release, which is exactly the window a time-of-check attack
needs closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .state import stateful

PAGE_SIZE = 4096


class WriteStatus(Enum):
    OK = "ok"
    STALL = "stall"
    DENIED = "denied"


@stateful(value="writable user_accessible may_write data")
@dataclass(slots=True)
class _Page:
    writable: bool = True
    user_accessible: bool = True
    may_write: bool = True
    data: bytearray = field(default_factory=lambda: bytearray(PAGE_SIZE))


def page_base(addr: int) -> int:
    return addr & ~(PAGE_SIZE - 1)


def _pieces(addr: int, size: int):
    """(page base, offset in the page, offset in the access, length) of
    each one-page piece of [addr, addr+size)."""
    pos = addr
    end = addr + size
    while pos < end:
        off = pos % PAGE_SIZE
        chunk = min(end - pos, PAGE_SIZE - off)
        yield pos - off, off, pos - addr, chunk
        pos += chunk


def pages_spanning(addr: int, size: int):
    """Bases of every page touched by [addr, addr+size)."""
    if size <= 0:
        return []
    first = page_base(addr)
    last = page_base(addr + size - 1)
    return list(range(first, last + 1, PAGE_SIZE))


@stateful(owned="_pages", value="_protected")
class UserMemory:
    def __init__(self):
        self._pages: dict[int, _Page] = {}
        self._protected: dict[int, int] = {}    # page base -> holds

    # -- mapping -------------------------------------------------------

    def map_region(self, addr: int, size: int, writable=True,
                   user_accessible=True, may_write=True):
        for base in pages_spanning(addr, size):
            if base not in self._pages:
                self._pages[base] = _Page(writable, user_accessible, may_write)

    def runs(self, addr: int, size: int):
        """Contiguous (addr, size, mapped) spans covering [addr, addr+size)."""
        out = []
        for base, _, start, chunk in _pieces(addr, size):
            mapped = base in self._pages
            if out and out[-1][2] == mapped:
                prev = out[-1]
                out[-1] = (prev[0], prev[1] + chunk, mapped)
            else:
                out.append((addr + start, chunk, mapped))
        return out

    # -- access --------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes | None:
        """None if any byte is unmapped or not user-accessible."""
        out = bytearray()
        for base, off, _, chunk in _pieces(addr, size):
            page = self._pages.get(base)
            if page is None or not page.user_accessible:
                return None
            out += page.data[off:off + chunk]
        return bytes(out)

    def write(self, addr: int, data: bytes) -> WriteStatus:
        """Apply a store, mapping the pages it touches that are not mapped
        yet, or report why it cannot happen (atomically: a refused
        multi-page store changes nothing, and maps nothing)."""
        bases = pages_spanning(addr, len(data))
        for base in bases:
            page = self._pages.get(base)
            if page is not None and not (page.writable and page.may_write):
                return WriteStatus.DENIED
        for base in bases:
            if base in self._protected:
                return WriteStatus.STALL
        for base in bases:
            if base not in self._pages:
                self._pages[base] = _Page()
        self.poke(addr, data)
        return WriteStatus.OK

    def poke(self, addr: int, data: bytes):
        """Privileged store for the snapshot layer; target must be mapped."""
        for base, off, start, chunk in _pieces(addr, len(data)):
            self._pages[base].data[off:off + chunk] = data[start:start + chunk]

    # -- write protection ------------------------------------------------

    def protect(self, addr: int, size: int, held=()) -> tuple[int, ...]:
        """Add one write-protect hold to each mapped page of the range
        that is not in `held` (the pages the caller already holds);
        returns the page bases that gained a hold."""
        bases = tuple(b for b in pages_spanning(addr, size)
                      if b in self._pages and b not in held)
        for base in bases:
            self._protected[base] = self._protected.get(base, 0) + 1
        return bases

    def unprotect(self, bases) -> None:
        """Drop one hold from each page; a page stays protected until
        every holder has let go."""
        for base in bases:
            holds = self._protected.pop(base, 0) - 1
            if holds > 0:
                self._protected[base] = holds

    def is_protected(self, addr: int, size: int = 1) -> bool:
        return any(b in self._protected for b in pages_spanning(addr, size))
