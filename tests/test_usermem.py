"""Address-space model: page math, write statuses, protection."""

from __future__ import annotations

import random
from copy import deepcopy

from sfvm.usermem import (
    PAGE_SIZE,
    UserMemory,
    WriteStatus,
    page_base,
    pages_spanning,
)


def test_page_math():
    assert page_base(0) == 0
    assert page_base(PAGE_SIZE - 1) == 0
    assert page_base(PAGE_SIZE) == PAGE_SIZE
    assert pages_spanning(0, 0) == []
    assert pages_spanning(10, 1) == [0]
    assert pages_spanning(PAGE_SIZE - 1, 2) == [0, PAGE_SIZE]
    assert pages_spanning(0, 3 * PAGE_SIZE) == [0, PAGE_SIZE, 2 * PAGE_SIZE]


def test_pages_spanning_matches_naive_enumeration():
    rng = random.Random(11)
    for _ in range(200):
        addr = rng.randrange(0, 1 << 20)
        size = rng.randrange(0, 3 * PAGE_SIZE)
        want = sorted({page_base(a) for a in range(addr, addr + size)})
        assert pages_spanning(addr, size) == want


def test_read_write_round_trip():
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    assert mem.write(0x1010, b"hello") == WriteStatus.OK
    assert mem.read(0x1010, 5) == b"hello"
    assert mem.read(0x100F, 7) == b"\x00hello\x00"


def test_unmapped_access():
    mem = UserMemory()
    assert mem.read(0x5000, 4) is None
    assert mem.write(0x5000, b"\x01") == WriteStatus.OK
    assert mem.read(0x5000, 1) == b"\x01"


def test_cross_page_write_is_atomic():
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    mem.map_region(0x2000, PAGE_SIZE, writable=False)
    assert mem.write(0x2000 - 2, b"abcd") == WriteStatus.DENIED
    assert mem.read(0x2000 - 2, 4) == bytes(4)   # nothing partial landed
    # a refused store maps none of the pages it would have mapped
    assert mem.write(0x3000 - 2, b"abcd") == WriteStatus.DENIED
    assert mem.read(0x3000, 1) is None


def test_readonly_page_denies_stores():
    mem = UserMemory()
    mem.map_region(0x2000, PAGE_SIZE, writable=False)
    assert mem.write(0x2000, b"x") == WriteStatus.DENIED
    mem.poke(0x2000, b"x")              # privileged path ignores permissions
    assert mem.read(0x2000, 1) == b"x"


def test_may_write_gate():
    mem = UserMemory()
    mem.map_region(0x3000, PAGE_SIZE, may_write=False)
    assert mem.write(0x3000, b"x") == WriteStatus.DENIED


def test_not_user_accessible_blocks_reads():
    mem = UserMemory()
    mem.map_region(0x4000, PAGE_SIZE, user_accessible=False)
    assert mem.read(0x4000, 1) is None


def test_protection_stalls_writers():
    mem = UserMemory()
    mem.map_region(0x6000, 2 * PAGE_SIZE)
    bases = mem.protect(0x6000, 10)
    assert bases == (0x6000,)
    assert mem.is_protected(0x6000)
    assert mem.write(0x6004, b"zz") == WriteStatus.STALL
    # other pages are unaffected
    assert mem.write(0x6000 + PAGE_SIZE, b"zz") == WriteStatus.OK
    mem.unprotect(bases)
    assert not mem.is_protected(0x6000)
    assert mem.write(0x6004, b"zz") == WriteStatus.OK


def test_protect_skips_unmapped_pages():
    mem = UserMemory()
    assert mem.protect(0x7000, PAGE_SIZE) == ()


def test_runs_coalesces_spans():
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    mem.map_region(0x3000, PAGE_SIZE)
    spans = mem.runs(0x1800, 0x3000)
    assert spans == [
        (0x1800, 0x0800, True),
        (0x2000, 0x1000, False),
        (0x3000, 0x1000, True),
        (0x4000, 0x0800, False),
    ]


def test_state_key_and_deepcopy():
    mem = UserMemory()
    mem.map_region(0x1000, PAGE_SIZE)
    mem.write(0x1000, b"seed")
    clone = deepcopy(mem)
    assert clone.state_key() == mem.state_key()
    clone.write(0x1000, b"diff")
    assert clone.state_key() != mem.state_key()
    assert mem.read(0x1000, 4) == b"seed"
