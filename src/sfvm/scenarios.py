"""Replayable incident scenarios and their pass criteria.

A scenario bundles a trace (with inline policy specs), a run mode, and
a list of checks.  Modes:

  run       single scheduled run (seeded); checks look at its log
  explore   every interleaving; checks quantify over all schedules

An explore scenario is judged on the deduplicated graph that
`sim.explore_graph` returns, never on a list of per-schedule logs: the
graph carries its schedule count, and the overlap checks count the
schedules that never overlap with `sim.count_schedules`, carrying
`window_step`'s state along each edge, and subtract them from it.
`decision_windows_overlap` folds that one step over a single log.

A scenario and each of its checks declare their fields in the `vocab`
vocabulary: `FIELDS` gives each check field and scenario key its one
type, `SCENARIO` the keys of a scenario, and `CHECKS` each check kind its
mode, its fields and its judge.  `MODES` gives the key that only a
scenario of that mode may carry.  `run_scenario` refuses a spec that
breaks them before anything runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import vocab
from .engine import EngineConfig
from .sim import MAX_EXPLORE_STEPS, Graph, Simulator, count_schedules, \
    explore_graph
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


# the overlap scanner's state: the open (allowed, not yet exited) counts
# of the pair's two numbers, and the (task, nr) of allowed phase markers
# not yet exited
WINDOWS_CLOSED = (0, 0, frozenset())


def window_step(pair):
    """The overlap scanner's step for `pair`: the state after one log
    entry, or None once the two numbers are simultaneously inside
    allowed (entered, not yet exited) invocations.  An allowed phase
    marker opens no window, so the exit logged after it closes none."""
    a, b = pair

    def step(state, entry):
        nr = entry.get("nr")
        if nr != a and nr != b:
            return state
        open_a, open_b, markers = state
        kind = entry.get("kind")
        if kind == "decision" and entry["action"] in ("allow", "log"):
            if entry.get("marker"):
                return open_a, open_b, markers | {(entry["task"], nr)}
            open_a += nr == a       # with a == b, both count the one nr
            open_b += nr == b
            if open_a > 0 and open_b > 0:
                return None
            return open_a, open_b, markers
        if kind == "exit":
            if (entry["task"], nr) in markers:
                return open_a, open_b, markers - {(entry["task"], nr)}
            return open_a - (nr == a), open_b - (nr == b), markers
        return state

    return step


def decision_windows_overlap(entries, pair) -> bool:
    """True if the two syscall numbers were ever simultaneously inside
    allowed invocations: `window_step` folded over the log."""
    step, state = window_step(pair), WINDOWS_CLOSED
    for entry in entries:
        state = step(state, entry)
        if state is None:
            return True
    return False


def overlapping_schedules(graph: Graph, pair) -> int:
    """The schedules of `graph` whose log overlaps `pair`'s windows."""
    return graph.schedules - count_schedules(
        graph.root, window_step(pair), WINDOWS_CLOSED)


def _decision_actions(entries, check: dict) -> list:
    """The actions decided for the check's task and nr, in log order."""
    task, nr = check.get("task"), check.get("nr")
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


def _decision_sequence(check: dict, got: list) -> CheckResult:
    want = check["actions"]
    return CheckResult(
        f"decisions for task {check.get('task')} nr {check.get('nr')} "
        f"are {want}", got == want, f"got {got}")


def _denied(check: dict, got: list) -> CheckResult:
    return CheckResult(
        f"task {check.get('task')} nr {check.get('nr')} denied "
        f"at least once", any(a not in ("allow", "log") for a in got),
        f"actions {got}")


def _allowed(check: dict, got: list) -> CheckResult:
    return CheckResult(
        f"task {check.get('task')} nr {check.get('nr')} always allowed",
        bool(got) and all(a in ("allow", "log") for a in got),
        f"actions {got}")


def _action_count(check: dict, got: list) -> CheckResult:
    hits = got.count(check["action"])
    ok = check.get("min", 1) <= hits <= check.get("max", 10 ** 9)
    return CheckResult(f"{check['action']} count for nr {check.get('nr')}",
                       ok, f"{hits} occurrences")


def _no_overlap(check: dict, graph: Graph) -> CheckResult:
    a, b = check["pair"]
    bad = overlapping_schedules(graph, (a, b))
    return CheckResult(
        f"syscalls {a} and {b} never overlap in any of "
        f"{graph.schedules} schedules", bad == 0, f"{bad} overlapping")


def _overlap_without_policy(check: dict, graph: Graph) -> CheckResult:
    """`_no_overlap`'s counterpart: some schedule without the policy
    overlaps, so the window exists and the policy is what closes it."""
    a, b = check["pair"]
    hits = overlapping_schedules(graph, (a, b))
    need = check.get("min_schedules", 1)
    return CheckResult(
        f"without the policy, syscalls {a} and {b} overlap "
        f"in at least {need} schedule(s)", hits >= need,
        f"{hits} of {graph.schedules} schedules overlap")


def _schedule_count(check: dict, graph: Graph) -> CheckResult:
    return CheckResult(f"exploration finds {check['count']} schedules",
                       graph.schedules == check["count"],
                       f"found {graph.schedules}")


# check field or scenario key -> its type; a name has this one type
# wherever it appears
FIELDS = {
    **dict.fromkeys(("task", "nr", "count", "min", "max", "min_schedules",
                     "seed", "max_steps"), vocab.INT),
    **dict.fromkeys(("check", "action", "name", "title", "description",
                     "mode"), vocab.STR),
    "actions": vocab.STRS,
    "pair": vocab.Type("two integers", lambda v: type(v) is list
                       and len(v) == 2 and all(type(n) is int for n in v)),
    "trace": vocab.LIST,
    "checks": vocab.Type("a list of objects that name their check",
                         lambda v: type(v) is list and all(
                             type(c) is dict and "check" in c for c in v)),
}


class Check(NamedTuple):
    """A check kind: the scenario mode it belongs to, its shape, and its
    judge.  A run judge gets the actions decided for the check's task and
    nr, an explore judge the explored graph, or with `stripped` the graph
    explored without the policies."""
    mode: str
    shape: vocab.Shape
    judge: Callable
    stripped: bool = False


def _check(mode: str, required: str, optional: str, judge: Callable,
           stripped: bool = False) -> Check:
    """A check kind from the fields it must and may give besides "check"."""
    return Check(mode, vocab.shape(
        FIELDS, f"check {required}", optional,
        missing="{where} is missing its field {key!r}"), judge, stripped)


CHECKS = {
    "decision_sequence": _check("run", "actions", "task nr",
                                _decision_sequence),
    "denied": _check("run", "", "task nr", _denied),
    "allowed": _check("run", "", "task nr", _allowed),
    "action_count": _check("run", "action", "task nr min max",
                           _action_count),
    "no_overlap": _check("explore", "pair", "", _no_overlap),
    "overlap_without_policy": _check("explore", "pair", "min_schedules",
                                     _overlap_without_policy, stripped=True),
    "schedule_count": _check("explore", "count", "", _schedule_count),
}

# mode -> the key that only a scenario of that mode may carry
MODES = {"run": "seed", "explore": "max_steps"}
SCENARIO = vocab.shape(
    FIELDS, "name trace", "title description mode checks seed max_steps",
    missing="scenario is missing {key!r}")


def _check_spec(spec) -> None:
    """Refuse a spec that breaks `SCENARIO`, `MODES` or `CHECKS`."""
    if not isinstance(spec, dict):
        raise ScenarioError("a scenario must be a JSON object")
    where = f"scenario {spec['name']}" if "name" in spec else "scenario"
    vocab.check(spec, SCENARIO, where, ScenarioError)
    mode = spec.get("mode", "run")
    if mode not in MODES:
        raise ScenarioError(f"{where}: unknown mode {mode!r}")
    for other, key in MODES.items():
        if other != mode and key in spec:
            raise ScenarioError(f"{where}: {key!r} is for {other} "
                                f"scenarios only")
    for check in spec.get("checks", []):
        kind = check["check"]
        entry = CHECKS.get(kind) if type(kind) is str else None
        if entry is None or entry.mode != mode:
            raise ScenarioError(f"{where}: unknown {mode} check {kind!r}")
        vocab.check(check, entry.shape, f"{where}: check {kind!r}",
                    ScenarioError)


def run_scenario(spec: dict, config: EngineConfig | None = None,
                 descriptors: DescriptorTable | None = None) -> ScenarioResult:
    """Run a scenario spec; a spec that cannot run raises ScenarioError
    before anything runs, and a trace that does not parse raises
    TraceError."""
    _check_spec(spec)
    name, events = spec["name"], spec["trace"]
    wanted = [(CHECKS[c["check"]], c) for c in spec.get("checks", [])]
    if spec.get("mode", "run") == "run":
        sim = Simulator(_trace_from_spec(events), config=config,
                        descriptors=descriptors,
                        seed=spec.get("seed", 0)).run()
        metrics = sim.metrics()
        checks = [kind.judge(check, _decision_actions(sim.entries, check))
                  for kind, check in wanted]
    else:
        def explore(events):
            return explore_graph(
                _trace_from_spec(events), config=config,
                descriptors=descriptors,
                max_steps=spec.get("max_steps", MAX_EXPLORE_STEPS))
        graph = explore(events)
        stripped = any(kind.stripped for kind, _ in wanted)
        stripped_graph = explore(_strip_policies(events)) if stripped \
            else None
        metrics = {"schedules": graph.schedules,
                   "stripped_schedules": stripped_graph.schedules
                   if stripped else 0}
        checks = [kind.judge(check, stripped_graph if kind.stripped
                             else graph)
                  for kind, check in wanted]
    return ScenarioResult(name=name, title=spec.get("title", name),
                          passed=all(c.passed for c in checks),
                          checks=checks, metrics=metrics)


def load_scenario(path) -> dict:
    return json.loads(vocab.read_text(path, ScenarioError))


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
