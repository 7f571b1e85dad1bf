"""Budgeted and rate-limited filters holding state across calls.

A count limit spends a fixed budget and then starts failing the call;
a token bucket refills with the clock, so backing off earns the budget
back. Both run against a live kernel model, not a bare interpreter.
"""

from sfvm.engine import Engine
from sfvm.isa import SyscallContext
from sfvm.policies import build_program

NR_KEYCTL = 250
NR_CONNECT = 42


def fresh_task(engine, program):
    tid = engine.spawn(nnp=True)
    engine.install(tid, engine.load(tid, program))
    return tid


def one_call(engine, tid, nr):
    record = engine.run_syscall(tid, SyscallContext(nr=nr))
    if record["action"] in ("allow", "log"):
        engine.syscall_exit(tid)
    else:
        engine.task(tid).denied_enter = False
    return record


def main():
    engine = Engine()
    budget = build_program({
        "generator": "count_limit", "nr": NR_KEYCTL, "max": 3,
        "deny": "errno:1",
    })
    tid = fresh_task(engine, budget)
    print(f"count limit: 3 calls of syscall {NR_KEYCTL} allowed per task")
    for i in range(5):
        record = one_call(engine, tid, NR_KEYCTL)
        suffix = f" (errno {record['errno']})" if record["errno"] else ""
        print(f"  call {i + 1}: {record['action']}{suffix}")

    print()
    engine = Engine()
    bucket = build_program({
        "generator": "rate_limit", "nr": NR_CONNECT, "rate": 2,
        "capacity": 2, "deny": "errno:11",
    })
    tid = fresh_task(engine, bucket)
    print(f"rate limit: syscall {NR_CONNECT} at 2 per second, burst of 2")
    script = [
        ("burst 1", 0),
        ("burst 2", 0),
        ("burst 3", 0),
        ("after 500ms", 500_000_000),
        ("immediately", 0),
        ("after 1s", 1_000_000_000),
    ]
    for label, dt in script:
        engine.clock_ns += dt
        record = one_call(engine, tid, NR_CONNECT)
        print(f"  {label:>12}: {record['action']}")


if __name__ == "__main__":
    main()
