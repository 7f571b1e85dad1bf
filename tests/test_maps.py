"""Map state tables: kinds, errno contracts, lifetime."""

from __future__ import annotations

import pytest

from sfvm.asm import assemble
from sfvm.isa import MapDecl, MapKind
from sfvm.maps import E2BIG, EINVAL, ENOENT, PolicyMap
from sfvm.verifier import verify


def k8(n: int) -> bytes:
    return n.to_bytes(8, "little")


def test_array_is_preallocated_and_zeroed():
    pmap = PolicyMap(MapDecl("a", MapKind.ARRAY, 8, 8, 4))
    for i in range(4):
        assert pmap.lookup(k8(i)) == bytearray(8)
    assert pmap.lookup(k8(4)) is None


def test_array_update_and_bounds():
    pmap = PolicyMap(MapDecl("a", MapKind.ARRAY, 8, 16, 2))
    assert pmap.update(k8(1), b"x" * 16) == 0
    assert bytes(pmap.lookup(k8(1))) == b"x" * 16
    assert pmap.update(k8(2), b"y" * 16) == -E2BIG
    assert pmap.update(k8(0), b"short") == -EINVAL
    assert pmap.delete(k8(1)) == -EINVAL   # array entries cannot be deleted


def test_hash_grows_to_capacity():
    pmap = PolicyMap(MapDecl("h", MapKind.HASH, 8, 8, 2))
    assert pmap.lookup(k8(5)) is None
    assert pmap.update(k8(5), k8(50)) == 0
    assert pmap.update(k8(6), k8(60)) == 0
    assert pmap.update(k8(7), k8(70)) == -E2BIG
    # overwriting an existing key is not an insert
    assert pmap.update(k8(5), k8(55)) == 0
    assert pmap.delete(k8(5)) == 0
    assert pmap.delete(k8(5)) == -ENOENT
    assert pmap.update(k8(7), k8(70)) == 0


def test_lookup_hands_out_live_storage():
    pmap = PolicyMap(MapDecl("h", MapKind.HASH, 8, 8, 2))
    pmap.update(k8(1), k8(10))
    value = pmap.lookup(k8(1))
    value[0] = 0xFF
    assert pmap.lookup(k8(1))[0] == 0xFF


def test_initial_entries_are_installed():
    decl = MapDecl("h", MapKind.HASH, 8, 8, 4,
                   initial_entries={k8(3): k8(30), k8(4): k8(40)})
    pmap = PolicyMap(decl)
    assert bytes(pmap.lookup(k8(3))) == k8(30)
    assert pmap.items() == [(k8(3), k8(30)), (k8(4), k8(40))]


def test_initial_entries_overflow_is_rejected():
    decl = MapDecl("h", MapKind.HASH, 8, 8, 1,
                   initial_entries={k8(1): k8(1), k8(2): k8(2)})
    with pytest.raises(ValueError):
        PolicyMap(decl)


def test_task_storage_is_per_leader():
    pmap = PolicyMap(MapDecl("s", MapKind.TASK_STORAGE, 8, 8, 8))
    assert pmap.storage_get(100, create=False) is None
    slot = pmap.storage_get(100, create=True)
    slot[:] = k8(7)
    assert pmap.storage_get(200, create=True) == bytearray(8)
    assert bytes(pmap.storage_get(100, create=False)) == k8(7)
    assert pmap.storage_delete(100) == 0
    assert pmap.storage_get(100, create=False) is None
    assert pmap.storage_delete(100) == -ENOENT


def test_task_storage_capacity():
    pmap = PolicyMap(MapDecl("s", MapKind.TASK_STORAGE, 8, 8, 1))
    assert pmap.storage_get(1, create=True) is not None
    assert pmap.storage_get(2, create=True) is None


def test_prog_array_holds_only_verified_programs():
    prog = assemble("section seccomp\n    mov r0, 0\n    exit\n")
    pmap = PolicyMap(MapDecl("p", MapKind.PROG_ARRAY, 8, 8, 2))
    with pytest.raises(ValueError):
        pmap.set_program(0, prog, [])
    verify(prog)
    assert pmap.set_program(0, prog, []) == 0
    assert pmap.set_program(5, prog, []) == -E2BIG
    assert pmap.get_program(0) == (prog, [])
    assert pmap.get_program(1) is None


def _array_with_a_stateful_target():
    inner = assemble("section seccomp\n    map last array 8 8 1\n"
                     "    mov r0, 0\n    exit\n")
    verify(inner)
    return PolicyMap(MapDecl("p", MapKind.PROG_ARRAY, 8, 8, 2,
                             initial_programs={1: inner}))


def test_prog_array_owns_its_targets_maps():
    from copy import deepcopy
    pmap = _array_with_a_stateful_target()
    prog, (last,) = pmap.get_program(1)
    assert last.name == "last" and last.kind == MapKind.ARRAY
    before = pmap.state_key()
    last.update(k8(0), k8(7))
    assert pmap.state_key() != before     # target state is array state
    clone = deepcopy(pmap)
    assert clone.state_key() == pmap.state_key()
    clone_prog, (clone_last,) = clone.get_program(1)
    assert clone_prog is prog and clone_last is not last
    clone_last.update(k8(0), k8(9))
    assert bytes(last.lookup(k8(0))) == k8(7)


def test_handoff_cycles_have_a_finite_fingerprint():
    pmap = _array_with_a_stateful_target()
    prog, maps = pmap.get_program(1)
    pmap.set_program(0, prog, [pmap])     # entry 0 runs on this array
    key = pmap.state_key()
    assert key == pmap.state_key()


def test_prog_array_rejects_value_operations():
    pmap = PolicyMap(MapDecl("p", MapKind.PROG_ARRAY, 8, 8, 2))
    with pytest.raises(TypeError):
        pmap.lookup(k8(0))
    with pytest.raises(TypeError):
        pmap.update(k8(0), k8(0))
    with pytest.raises(TypeError):
        pmap.delete(k8(0))


def test_state_key_tracks_content():
    pmap = PolicyMap(MapDecl("h", MapKind.HASH, 8, 8, 4))
    before = pmap.state_key()
    assert pmap.state_key() == before
    pmap.update(k8(1), k8(1))
    assert pmap.state_key() != before


def test_deepcopy_detaches_storage():
    from copy import deepcopy
    pmap = PolicyMap(MapDecl("h", MapKind.HASH, 8, 8, 4))
    pmap.update(k8(1), k8(10))
    clone = deepcopy(pmap)
    clone.lookup(k8(1))[0] = 0xEE
    assert pmap.lookup(k8(1))[0] == 10
