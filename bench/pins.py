"""Golden pins: behaviour digests that every later change must keep.

    python3 bench/pins.py          # compute and compare with pins.json
    python3 bench/pins.py --print  # print the current values as JSON

Pinned at the default seed:
  workloads          the digest of one full-size pass of each workload
                     (the decision log for the replays, the verdicts
                     for explore-races, the load outcomes for load-churn)
  scenarios          `log_digest` of every bundled run-mode scenario
  explore_sets       for each bundled explore scenario, the number of
                     schedules and a digest over the sorted set of
                     per-schedule `log_digest`s of `explore_interleavings`
  fuzz_outcomes      a digest over the outcomes of 10^4 runs of
                     criterion 5's fuzz corpus (100 programs x 100
                     contexts, generator seeded 31337)
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")


def _sha(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def workload_digests(seed: int) -> dict:
    import workloads
    out = {}
    for name, wl in sorted(workloads.WORKLOADS.items()):
        out[name] = wl.run_pass(wl.setup(seed, False)).digest
    return out


def scenario_pins() -> tuple:
    from sfvm import scenarios, sim, trace
    import workloads
    desc = workloads.bundled_descriptors()
    runs, sets = {}, {}
    for name in scenarios.bundled_scenario_names():
        spec = scenarios.load_bundled_scenario(name)
        if spec.get("mode", "run") == "run":
            result = scenarios.run_scenario(spec, descriptors=desc)
            runs[name] = result.metrics["digest"]
        else:
            tr = trace.parse_trace(workloads._spec_events(spec["trace"]))
            explored = sim.explore_interleavings(
                tr, descriptors=desc, max_steps=spec.get("max_steps", 14))
            digests = sorted({sim.log_digest(e) for _, e in explored})
            sets[name] = {"schedules": len(explored),
                          "outcomes": len(digests),
                          "digest": _sha(digests)}
    return runs, sets


def fuzz_outcomes_digest() -> str:
    from sfvm import asm, verifier, vm
    import workloads
    rng = random.Random(31337)
    sources = [workloads.fuzz_source(rng) for _ in range(1000)]
    contexts = [workloads.fuzz_context(rng) for _ in range(1000)]
    env = vm.RuntimeEnv()
    lines = []
    for src in sources[:100]:
        program = asm.assemble(src)
        if not verifier.verify(program).accepted:
            lines.append("rejected")
            continue
        for ctx in contexts[:100]:
            thread = vm.VmThread(program, [], ctx)
            thread.run(env)
            out = thread.outcome
            lines.append(f"{out.raw_action} {out.steps_executed} "
                         f"{out.helper_calls} {int(out.faulted)}")
    return _sha(lines)


def compute(seed: int) -> dict:
    runs, sets = scenario_pins()
    return {"seed": seed, "workloads": workload_digests(seed),
            "scenarios": runs, "explore_sets": sets,
            "fuzz_outcomes": fuzz_outcomes_digest()}


def load() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(pinned: dict, current: dict) -> list:
    """Every pinned value that differs, as readable lines."""
    out = []
    for key in ("workloads", "scenarios", "explore_sets"):
        for name, want in sorted(pinned[key].items()):
            got = current[key].get(name)
            if got != want:
                out.append(f"{key}/{name}: pinned {want}, got {got}")
    if pinned["fuzz_outcomes"] != current["fuzz_outcomes"]:
        out.append(f"fuzz_outcomes: pinned {pinned['fuzz_outcomes']}, "
                   f"got {current['fuzz_outcomes']}")
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    sys.path.insert(0, HERE)
    if "--print" in sys.argv[1:]:
        from run import DEFAULT_SEED
        print(json.dumps(compute(DEFAULT_SEED), indent=2, sort_keys=True))
        return 0
    pinned = load()
    current = compute(pinned["seed"])
    bad = mismatches(pinned, current)
    for line in bad:
        print(line)
    print("pins: " + ("MISMATCH" if bad else "all match"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
