"""Return-value encoding and chain resolution."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from sfvm import actions
from sfvm.actions import (
    ALLOW,
    ActionKind,
    KILL_PROCESS,
    KILL_THREAD,
    LOG,
    PRECEDENCE,
    RET_ALLOW,
    RET_ERRNO,
    RET_KILL_PROCESS,
    RET_KILL_THREAD,
    RET_LOG,
    RET_TRAP,
    ResolvedAction,
    TRAP,
    errno_action,
    resolve,
)

ALL_KINDS = list(ActionKind)


def random_vote(rng):
    kind = rng.choice(ALL_KINDS)
    if kind is ActionKind.ERRNO:
        return errno_action(rng.randrange(1, 4096))
    return ResolvedAction(kind)


def test_raw_encodings_match_linux():
    assert RET_KILL_PROCESS == 0x80000000
    assert RET_KILL_THREAD == 0x00000000
    assert RET_TRAP == 0x00030000
    assert RET_ERRNO == 0x00050000
    assert RET_LOG == 0x7FFC0000
    assert RET_ALLOW == 0x7FFF0000


def test_raw_round_trip_all_kinds():
    for kind in ALL_KINDS:
        act = errno_action(17) if kind is ActionKind.ERRNO \
            else ResolvedAction(kind)
        back = ResolvedAction.from_raw(act.raw)
        assert back == act


def test_errno_lives_in_low_16_bits():
    act = errno_action(0x1234)
    assert act.raw == RET_ERRNO | 0x1234
    assert ResolvedAction.from_raw(act.raw).errno == 0x1234


def test_only_errno_carries_data():
    with pytest.raises(ValueError):
        ResolvedAction(ActionKind.ALLOW, errno=5)
    with pytest.raises(ValueError):
        errno_action(0x10000)


def test_unknown_action_bits_resolve_to_kill_process():
    # bogus filter returns are treated as harshly as the kernel treats them
    for raw in (0x00010000, 0x12340000, 0x7FFE0000, 0xFFFF0001):
        assert ResolvedAction.from_raw(raw).kind is ActionKind.KILL_PROCESS


def test_from_raw_masks_to_32_bits():
    act = ResolvedAction.from_raw((1 << 40) | RET_ALLOW)
    assert act.kind is ActionKind.ALLOW


def test_precedence_total_order():
    order = [ALLOW, LOG, errno_action(1), TRAP, KILL_THREAD, KILL_PROCESS]
    for weaker, stronger in zip(order, order[1:]):
        assert weaker.precedence < stronger.precedence


def test_executes_flag():
    assert ALLOW.executes and LOG.executes
    for act in (errno_action(1), TRAP, KILL_THREAD, KILL_PROCESS):
        assert not act.executes


def test_empty_chain_allows():
    assert resolve([]) == ALLOW


def test_resolution_picks_most_restrictive():
    votes = [ALLOW, LOG, errno_action(13), ALLOW]
    assert resolve(votes) == errno_action(13)
    assert resolve(votes + [KILL_PROCESS]) == KILL_PROCESS


def test_errno_tie_goes_to_earliest_installed():
    votes = [ALLOW, errno_action(5), errno_action(9)]
    assert resolve(votes).errno == 5
    votes = [errno_action(9), LOG, errno_action(5)]
    assert resolve(votes).errno == 9


def test_resolution_matches_precedence_max():
    rng = random.Random(0xACCE55)
    for _ in range(500):
        votes = [random_vote(rng) for _ in range(rng.randrange(1, 8))]
        best = resolve(votes)
        assert best.precedence == max(v.precedence for v in votes)
        # the winner is always one of the votes, never synthesized
        assert best in votes


@given(st.lists(st.sampled_from([k for k in ALL_KINDS
                                 if k is not ActionKind.ERRNO]),
                min_size=1, max_size=10))
def test_kind_permutation_invariance(kinds):
    votes = [ResolvedAction(k) for k in kinds]
    baseline = resolve(votes)
    assert resolve(list(reversed(votes))) == baseline
    assert resolve(sorted(votes, key=lambda v: v.precedence)) == baseline


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1,
                max_size=6))
def test_errno_ties_depend_only_on_order_of_maxima(codes):
    votes = [errno_action(c) for c in codes]
    assert resolve(votes).errno == codes[0]


def test_precedence_map_covers_every_kind():
    assert set(PRECEDENCE) == set(ActionKind)


# -- shared actions -------------------------------------------------------------

RAW_BITS = {ActionKind.KILL_PROCESS: RET_KILL_PROCESS,
            ActionKind.KILL_THREAD: RET_KILL_THREAD,
            ActionKind.TRAP: RET_TRAP, ActionKind.ERRNO: RET_ERRNO,
            ActionKind.LOG: RET_LOG, ActionKind.ALLOW: RET_ALLOW}


def fresh_action(raw: int) -> ResolvedAction:
    """The action a raw filter return means, built anew from the enum."""
    raw &= 0xFFFFFFFF
    kind = {bits: kind for kind, bits in RAW_BITS.items()}.get(
        raw & 0xFFFF0000, ActionKind.KILL_PROCESS)
    return ResolvedAction(kind, raw & 0xFFFF if kind is ActionKind.ERRNO
                          else 0)


def raw_corpus():
    rng = random.Random(0x5EC0)
    yield from (rng.getrandbits(32) for _ in range(10_000))
    for bits in RAW_BITS.values():
        yield from (bits, bits | 1, bits | 0xFFFF)
    yield from (0x00010000, 0x7FFE0000, 0xFFFF0000, 0x80010000, 0xFFFFFFFF,
                (1 << 40) | RET_ERRNO | 7, -1)


def test_from_raw_agrees_with_a_fresh_action_field_by_field():
    for raw in raw_corpus():
        got, want = ResolvedAction.from_raw(raw), fresh_action(raw)
        assert (got.kind, got.errno) == (want.kind, want.errno), hex(raw)
        assert (got.name, got.precedence, got.raw, got.executes) == \
            (want.name, want.precedence, want.raw, want.executes), hex(raw)
        kind = got.kind
        assert got.name == kind.value
        assert got.precedence == PRECEDENCE[kind]
        assert got.raw == RAW_BITS[kind] | got.errno
        assert got.executes == (kind in (ActionKind.ALLOW, ActionKind.LOG))


def test_from_raw_returns_shared_actions():
    for action in (ALLOW, LOG, TRAP, KILL_THREAD, KILL_PROCESS):
        assert ResolvedAction.from_raw(action.raw | 0x1234) is action
    assert ResolvedAction.from_raw(RET_ERRNO | 0) is \
        ResolvedAction.from_raw(RET_ERRNO | 0)
    assert ResolvedAction.from_raw(RET_ERRNO | 0xFFFF) is \
        ResolvedAction.from_raw((1 << 33) | RET_ERRNO | 0xFFFF)
    assert ResolvedAction.from_raw(0x12340000) is KILL_PROCESS


def test_the_intern_table_holds_only_errnos():
    for raw in raw_corpus():
        ResolvedAction.from_raw(raw)
    table = actions._ERRNOS
    assert 0 in table and 0xFFFF in table
    assert len(table) <= 1 << 16
    for errno, action in table.items():
        assert type(errno) is int and 0 <= errno <= 0xFFFF
        assert action == errno_action(errno)
    before = dict(table)
    for raw in (0x00010000, 0x7FFE0000, 0xFFFF0000, RET_ALLOW | 5):
        ResolvedAction.from_raw(raw)
    assert table == before


def test_derived_fields_are_not_part_of_equality_or_construction():
    assert errno_action(3) == ResolvedAction.from_raw(RET_ERRNO | 3)
    assert hash(errno_action(3)) == hash(ResolvedAction.from_raw(
        RET_ERRNO | 3))
    assert repr(errno_action(3)) == \
        "ResolvedAction(kind=<ActionKind.ERRNO: 'errno'>, errno=3)"
    with pytest.raises(TypeError):
        ResolvedAction(ActionKind.ALLOW, 0, "allow")
    with pytest.raises(AttributeError):
        ALLOW.precedence = 9
