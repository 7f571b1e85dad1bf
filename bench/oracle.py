"""Independent oracle for every workload's outputs.

Nothing here runs the VM, the verifier or the simulator.  Verdicts come
from the policies' meaning: set membership for the stateless chain,
counts, token buckets, phases and transition states replayed over the
trace for the stateful chain, a known accept/reject answer for each
load, and a combinatorial schedule count for explorations.  Each check
returns (attempted, failed).
"""

from __future__ import annotations

from functools import lru_cache

ENTRY_KINDS = ("syscall_enter", "phase_marker")
U64 = (1 << 64) - 1
NANOS_PER_TOKEN = 1_000_000_000

# most restrictive wins; equal ERRNOs go to the earliest filter
_PRECEDENCE = {"allow": 0, "log": 1, "errno": 2, "trap": 3,
               "kill_thread": 4, "kill_process": 5}
ALLOW = ("allow", 0)


def errno(code: int):
    return ("errno", code)


def resolve(votes) -> tuple:
    best = ALLOW
    for vote in votes:
        if _PRECEDENCE[vote[0]] > _PRECEDENCE[best[0]]:
            best = vote
    return best


def _compare(expected: dict, entries) -> tuple:
    """Match each task's decisions, in order, against the expected
    verdicts.  Errors and deadlocks count as failures."""
    got: dict = {}
    failed = 0
    for e in entries:
        if e["kind"] == "decision":
            got.setdefault(e["task"], []).append((e["action"], e["errno"]))
        elif e["kind"] in ("error", "deadlock", "skipped"):
            failed += 1
    attempted = 0
    for tid, want in expected.items():
        have = got.get(tid, [])
        attempted += len(want)
        failed += sum(1 for i, w in enumerate(want)
                      if i >= len(have) or have[i] != w)
        failed += max(0, len(have) - len(want))
    return max(attempted, 1), failed


def _args(ev) -> list:
    args = list(ev.get("args", []))
    return args + [0] * (6 - len(args))


# -- replay-stateless -------------------------------------------------------

def check_stateless(inputs: dict, sim) -> tuple:
    expected = {}
    for tid, queue in sim.trace.queues.items():
        want = expected.setdefault(tid, [])
        for ev in queue:
            if ev.kind != "syscall_enter":
                continue
            nr = ev["nr"]
            want.append(resolve([
                ALLOW if nr in inputs["allowed"] else errno(1),
                errno(13) if nr in inputs["denied"] else ALLOW,
            ]))
    return _compare(expected, sim.entries)


# -- replay-stateful ----------------------------------------------------------

class StatefulChain:
    """The seven filters of the stateful workload, as plain Python state.

    Chain order: temporal, count_limit, rate_limit, flow_integrity,
    validation_cache, the path filter, serialization.  Every filter but
    the last finishes in the step that enters the syscall, so processing
    entries in step order replays the filters' own order.
    """

    def __init__(self, inputs: dict):
        self.profile = inputs["profile"]
        self.phase = 0
        self.count = 0
        self.count_max = inputs["count_max"]
        self.count_rule = inputs["count_rule"]
        self.rate = inputs["rate_rule"]
        self.bucket = None                      # [last_ns, nanotokens]
        self.governed = set(inputs["governed"])
        self.forbidden = inputs["forbidden"]
        self.flow: dict = {}                    # tgid -> last allowed nr
        self.rules = inputs["validation_rules"]
        self.bad_prefix = inputs["bad_path"][:8]
        self.path_len = inputs["path_len"]

    def _temporal(self, nr):
        p = self.profile
        if self.phase == 0:
            if nr == p.marker_nr:
                self.phase = 1
                return ALLOW
            return ALLOW if nr in p.s_init else errno(1)
        return ALLOW if nr in p.s_serv else errno(1)

    def _count_limit(self, nr, args):
        rule = self.count_rule
        if nr != rule["nr"] or args[rule["arg_index"]] != rule["arg_value"]:
            return ALLOW
        if self.count >= self.count_max:
            return errno(2)
        self.count += 1
        return ALLOW

    def _rate_limit(self, nr, clock):
        if nr != self.rate["nr"]:
            return ALLOW
        cap = self.rate["capacity"] * NANOS_PER_TOKEN
        if self.bucket is None:
            self.bucket = [clock, cap]
        last, tokens = self.bucket
        tokens = (tokens + ((clock - last) & U64) * self.rate["rate"]) & U64
        tokens = min(tokens, cap)
        if tokens < NANOS_PER_TOKEN:
            self.bucket = [clock, tokens]
            return errno(11)
        self.bucket = [clock, tokens - NANOS_PER_TOKEN]
        return ALLOW

    def _flow(self, nr, tgid):
        if nr not in self.governed:
            return errno(38)
        prev = self.flow.get(tgid)
        if prev is not None and (prev, nr) in self.forbidden:
            return errno(38)
        self.flow[tgid] = nr
        return ALLOW

    def _validation(self, nr, args):
        for idx, allowed in self.rules.get(nr, {}).items():
            if args[idx] not in allowed:
                return errno(22)
        return ALLOW

    def _path(self, nr, args, memory):
        if nr not in (2, 257):
            return ALLOW
        data = memory.get(args[0] if nr == 2 else args[1])
        if data is None:
            return ALLOW                        # unreadable: zeros compared
        text = data[:self.path_len].split(b"\x00", 1)[0]
        if len(text) >= self.path_len:
            text = text[:self.path_len - 1]
        head = (text + bytes(8))[:8]
        return errno(13) if head == self.bad_prefix else ALLOW

    def verdict(self, nr, args, tgid, clock, memory):
        return resolve([
            self._temporal(nr),
            self._count_limit(nr, args),
            self._rate_limit(nr, clock),
            self._flow(nr, tgid),
            self._validation(nr, args),
            self._path(nr, args, memory),
            ALLOW,                              # serialization never denies
        ])


def check_stateful(inputs: dict, sim, steps_log) -> tuple:
    """Replay the pass in step order: memory stores and forks as they
    were consumed, each syscall's filters at the step that entered it,
    with the engine clock of that step."""
    chain = StatefulChain(inputs)
    queues = sim.trace.queues
    tgid_of = {1: 1}
    spaces = {1: dict(inputs["memory"])}
    expected = {tid: [] for tid in queues}
    for tid, p, p_after, was_in, clock in steps_log:
        if was_in:
            continue                # resuming a parked entry: no new votes
        ev = queues[tid][p]
        tgid = tgid_of[tid]
        if ev.kind in ENTRY_KINDS:
            expected[tid].append(chain.verdict(ev["nr"], _args(ev), tgid,
                                               clock, spaces[tgid]))
        elif p_after > p:
            if ev.kind == "mem_write":
                spaces[tgid][ev["addr"]] = bytes.fromhex(ev["data_hex"])
            elif ev.kind == "spawn":
                spaces[ev["tid"]] = dict(spaces[tgid])
                tgid_of[ev["tid"]] = ev["tid"]
            elif ev.kind == "spawn_thread":
                tgid_of[ev["tid"]] = tgid
    return _compare(expected, sim.entries)


# -- explore-races ---------------------------------------------------------

def count_schedules(trace) -> int:
    """Schedules of a trace whose every event takes one step (no filter
    ever parks a task): the linear extensions of the task queues, where a
    task's events follow the event that spawned it."""
    tids = sorted(trace.queues)
    queues = [trace.queues[t] for t in tids]
    roots = frozenset(ev["tid"] for ev in trace.setup)

    @lru_cache(maxsize=None)
    def count(pos: tuple) -> int:
        spawned = set(roots)
        for q, n in zip(queues, pos):
            spawned.update(ev["tid"] for ev in q[:n]
                           if ev.kind in ("spawn", "spawn_thread"))
        total = 0
        runnable = False
        for i, t in enumerate(tids):
            if t in spawned and pos[i] < len(queues[i]):
                runnable = True
                total += count(pos[:i] + (pos[i] + 1,) + pos[i + 1:])
        return total if runnable else 1

    return count(tuple(0 for _ in tids))


def check_explore(stripped_counts: list, verdicts) -> tuple:
    failed = 0
    for want, result in zip(stripped_counts, verdicts):
        got = result.metrics.get("stripped_schedules", 0)
        if not result.passed or (got and got != want):
            failed += 1
    return len(verdicts), failed


# -- load-churn ------------------------------------------------------------

def check_loads(items: list, outcomes: list) -> tuple:
    failed = abs(len(items) - len(outcomes))
    for (_, _, want), (kind, detail) in zip(items, outcomes):
        ok = kind == want[0]
        if ok and kind == "reject":
            ok = want[1] in detail
        failed += not ok
    return len(items), failed
