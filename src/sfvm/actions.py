"""Filter return values and chain resolution.

A filter leaves its verdict in r0 using the Linux seccomp return
encoding: the high 16 bits select the action, the low 16 bits carry
data (the errno for ERRNO).  When several filters are installed on one
task, every filter runs and the most restrictive verdict wins; two
ERRNO verdicts with different codes tie-break to the filter installed
earliest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

RET_KILL_PROCESS = 0x80000000
RET_KILL_THREAD = 0x00000000
RET_TRAP = 0x00030000
RET_ERRNO = 0x00050000
RET_LOG = 0x7FFC0000
RET_ALLOW = 0x7FFF0000

_ACTION_MASK = 0xFFFF0000
_DATA_MASK = 0x0000FFFF


class ActionKind(Enum):
    KILL_PROCESS = "kill_process"
    KILL_THREAD = "kill_thread"
    TRAP = "trap"
    ERRNO = "errno"
    LOG = "log"
    ALLOW = "allow"


# higher value = more restrictive = wins resolution
PRECEDENCE = {
    ActionKind.ALLOW: 0,
    ActionKind.LOG: 1,
    ActionKind.ERRNO: 2,
    ActionKind.TRAP: 3,
    ActionKind.KILL_THREAD: 4,
    ActionKind.KILL_PROCESS: 5,
}

_RAW_BY_KIND = {
    ActionKind.KILL_PROCESS: RET_KILL_PROCESS,
    ActionKind.KILL_THREAD: RET_KILL_THREAD,
    ActionKind.TRAP: RET_TRAP,
    ActionKind.ERRNO: RET_ERRNO,
    ActionKind.LOG: RET_LOG,
    ActionKind.ALLOW: RET_ALLOW,
}
_KIND_BY_ACTION_BITS = {raw: kind for kind, raw in _RAW_BY_KIND.items()}


@dataclass(frozen=True)
class ResolvedAction:
    kind: ActionKind
    errno: int = 0

    def __post_init__(self):
        if self.kind is not ActionKind.ERRNO and self.errno:
            raise ValueError("only ERRNO carries an errno")
        if not 0 <= self.errno <= 0xFFFF:
            raise ValueError("errno must fit in 16 bits")

    @property
    def raw(self) -> int:
        return _RAW_BY_KIND[self.kind] | self.errno

    @property
    def precedence(self) -> int:
        return PRECEDENCE[self.kind]

    @property
    def executes(self) -> bool:
        """Whether the syscall goes on to run under this verdict."""
        return self.kind in (ActionKind.ALLOW, ActionKind.LOG)

    @classmethod
    def from_raw(cls, raw: int) -> "ResolvedAction":
        raw &= 0xFFFFFFFF
        kind = _KIND_BY_ACTION_BITS.get(raw & _ACTION_MASK)
        if kind is None:
            # unrecognized action values are treated as the harshest kill,
            # mirroring how the kernel handles bogus filter returns
            return cls(ActionKind.KILL_PROCESS)
        if kind is ActionKind.ERRNO:
            return cls(kind, errno=raw & _DATA_MASK)
        return cls(kind)


ALLOW = ResolvedAction(ActionKind.ALLOW)
LOG = ResolvedAction(ActionKind.LOG)
TRAP = ResolvedAction(ActionKind.TRAP)
KILL_THREAD = ResolvedAction(ActionKind.KILL_THREAD)
KILL_PROCESS = ResolvedAction(ActionKind.KILL_PROCESS)


def errno_action(code: int) -> ResolvedAction:
    return ResolvedAction(ActionKind.ERRNO, errno=code)


def resolve(votes) -> ResolvedAction:
    """Most restrictive verdict; first-installed wins among equal ERRNOs.

    An empty vote list (no filters installed) resolves to ALLOW.
    """
    votes = list(votes)
    if not votes:
        return ALLOW
    best = votes[0]
    for vote in votes[1:]:
        if vote.precedence > best.precedence:
            best = vote
    return best
