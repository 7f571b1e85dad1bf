"""Replayable incident scenarios and their pass criteria.

A scenario bundles a trace (with inline policy specs), a run mode, and
a list of checks.  Modes:

  run       single scheduled run (seeded); checks look at its log
  explore   every interleaving; checks quantify over all schedules

The interesting explore check is `no_overlap`: across every schedule,
two syscall numbers are never simultaneously between an allowed entry
and its exit.  Its counterpart `overlap_without_policy` re-runs the
same exploration with every loaded policy swapped for allow-all and
demands that at least one schedule does overlap, proving the window
exists and the policy is what closes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .engine import EngineConfig
from .sim import MAX_EXPLORE_STEPS, Simulator, explore_interleavings
from .snapshot import DescriptorTable
from .trace import Trace, parse_trace


class ScenarioError(ValueError):
    """A scenario spec that cannot be run as written."""


@dataclass
class CheckResult:
    description: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioResult:
    name: str
    title: str
    passed: bool
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def _trace_from_spec(events: list) -> Trace:
    return parse_trace("\n".join(json.dumps(e) for e in events))


def _strip_policies(events: list) -> list:
    out = []
    for ev in events:
        if ev.get("event") == "load":
            ev = dict(ev)
            ev.pop("program_hex", None)
            ev["policy"] = {"generator": "allow_all"}
        out.append(ev)
    return out


def decision_windows_overlap(entries, pair) -> bool:
    """True if the two syscall numbers were ever simultaneously inside
    allowed (entered, not yet exited) invocations.  An allowed phase
    marker opens no window, so the exit logged after it closes none."""
    a, b = pair
    open_counts = {a: 0, b: 0}
    markers = set()     # (task, nr) of allowed markers not yet exited
    for entry in entries:
        kind = entry.get("kind")
        nr = entry.get("nr")
        if nr not in open_counts:
            continue
        if kind == "decision" and entry["action"] in ("allow", "log"):
            if entry.get("marker"):
                markers.add((entry["task"], nr))
                continue
            open_counts[nr] += 1
            if open_counts[a] > 0 and open_counts[b] > 0:
                return True
        elif kind == "exit":
            if (entry["task"], nr) in markers:
                markers.remove((entry["task"], nr))
            else:
                open_counts[nr] -= 1
    return False


def _decision_actions(entries, task=None, nr=None):
    out = []
    for entry in entries:
        if entry.get("kind") != "decision":
            continue
        if task is not None and entry["task"] != task:
            continue
        if nr is not None and entry["nr"] != nr:
            continue
        out.append(entry["action"])
    return out


# check kind -> the fields a check of that kind must give
_REQUIRED_FIELDS = {
    "decision_sequence": ("actions",),
    "action_count": ("action",),
    "no_overlap": ("pair",),
    "overlap_without_policy": ("pair",),
    "schedule_count": ("count",),
}


def _eval_run_check(check: dict, entries) -> CheckResult:
    kind = check["check"]
    if kind == "decision_sequence":
        got = _decision_actions(entries, check.get("task"), check.get("nr"))
        want = check["actions"]
        return CheckResult(
            f"decisions for task {check.get('task')} nr {check.get('nr')} "
            f"are {want}",
            got == want, f"got {got}")
    if kind == "denied":
        got = _decision_actions(entries, check.get("task"), check.get("nr"))
        hit = [a for a in got if a not in ("allow", "log")]
        return CheckResult(
            f"task {check.get('task')} nr {check.get('nr')} denied "
            f"at least once", bool(hit), f"actions {got}")
    if kind == "allowed":
        got = _decision_actions(entries, check.get("task"), check.get("nr"))
        return CheckResult(
            f"task {check.get('task')} nr {check.get('nr')} always allowed",
            bool(got) and all(a in ("allow", "log") for a in got),
            f"actions {got}")
    if kind == "action_count":
        got = _decision_actions(entries, check.get("task"), check.get("nr"))
        hits = sum(1 for a in got if a == check["action"])
        ok = hits >= check.get("min", 1) and hits <= check.get("max", 10 ** 9)
        return CheckResult(
            f"{check['action']} count for nr {check.get('nr')}",
            ok, f"{hits} occurrences")
    raise ScenarioError(f"unknown run check {kind!r}")


def _eval_explore_check(check: dict, runs, stripped_runs) -> CheckResult:
    kind = check["check"]
    if kind == "no_overlap":
        pair = tuple(check["pair"])
        bad = sum(1 for _, entries in runs
                  if decision_windows_overlap(entries, pair))
        return CheckResult(
            f"syscalls {pair[0]} and {pair[1]} never overlap in any of "
            f"{len(runs)} schedules", bad == 0, f"{bad} overlapping")
    if kind == "overlap_without_policy":
        pair = tuple(check["pair"])
        hits = sum(1 for _, entries in stripped_runs
                   if decision_windows_overlap(entries, pair))
        need = check.get("min_schedules", 1)
        return CheckResult(
            f"without the policy, syscalls {pair[0]} and {pair[1]} overlap "
            f"in at least {need} schedule(s)", hits >= need,
            f"{hits} of {len(stripped_runs)} schedules overlap")
    if kind == "schedule_count":
        want = check["count"]
        return CheckResult(f"exploration finds {want} schedules",
                           len(runs) == want, f"found {len(runs)}")
    raise ScenarioError(f"unknown explore check {kind!r}")


def run_scenario(spec: dict, config: EngineConfig | None = None,
                 descriptors: DescriptorTable | None = None) -> ScenarioResult:
    """Run a scenario spec; a spec that cannot run raises ScenarioError,
    and a trace that does not parse raises TraceError."""
    if not isinstance(spec, dict):
        raise ScenarioError("a scenario must be a JSON object")
    for key in ("name", "trace"):
        if key not in spec:
            raise ScenarioError(f"scenario is missing {key!r}")
    name = spec["name"]
    mode = spec.get("mode", "run")
    if mode not in ("run", "explore"):
        raise ScenarioError(f"scenario {name}: unknown mode {mode!r}")
    events = spec["trace"]
    if not isinstance(events, list):
        raise ScenarioError(f"scenario {name}: trace must be a list")
    wanted = spec.get("checks", [])
    if not isinstance(wanted, list) or not all(
            isinstance(c, dict) and "check" in c for c in wanted):
        raise ScenarioError(f"scenario {name}: checks must be a list of "
                            f"objects that name their check")
    for check in wanted:
        kind = check["check"]
        # an unknown kind, even an unhashable one, fails when it is run
        for key in _REQUIRED_FIELDS.get(kind, ()) if type(kind) is str else ():
            if key not in check:
                raise ScenarioError(f"scenario {name}: check {kind!r} is "
                                    f"missing its field {key!r}")
    checks = []
    metrics: dict = {}

    if mode == "run":
        sim = Simulator(_trace_from_spec(events), config=config,
                        descriptors=descriptors,
                        seed=spec.get("seed", 0)).run()
        metrics = sim.metrics()
        for check in wanted:
            checks.append(_eval_run_check(check, sim.entries))
    else:
        max_steps = spec.get("max_steps", MAX_EXPLORE_STEPS)
        runs = explore_interleavings(_trace_from_spec(events), config=config,
                                     descriptors=descriptors,
                                     max_steps=max_steps)
        needs_stripped = any(c["check"] == "overlap_without_policy"
                             for c in wanted)
        stripped_runs = []
        if needs_stripped:
            stripped_runs = explore_interleavings(
                _trace_from_spec(_strip_policies(events)), config=config,
                descriptors=descriptors, max_steps=max_steps)
        metrics = {"schedules": len(runs),
                   "stripped_schedules": len(stripped_runs)}
        for check in wanted:
            checks.append(_eval_explore_check(check, runs, stripped_runs))

    return ScenarioResult(name=name, title=spec.get("title", name),
                          passed=all(c.passed for c in checks),
                          checks=checks, metrics=metrics)


def load_scenario(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bundled_scenario_names() -> list[str]:
    from importlib.resources import files
    base = files("sfvm") / "data" / "scenarios"
    return sorted(p.name[:-len(".json")] for p in base.iterdir()
                  if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> dict:
    from importlib.resources import files
    path = files("sfvm") / "data" / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


def run_bundled(name: str, config: EngineConfig | None = None,
                descriptors: DescriptorTable | None = None) -> ScenarioResult:
    return run_scenario(load_bundled_scenario(name), config=config,
                        descriptors=descriptors)
