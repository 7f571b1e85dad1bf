"""Bundled incident scenarios and the checks that judge them."""

from __future__ import annotations

import copy
import random
import time

import pytest

from sfvm.scenarios import (
    CHECKS,
    MODES,
    SCENARIO,
    ScenarioError,
    _strip_policies,
    bundled_scenario_names,
    decision_windows_overlap,
    load_bundled_scenario,
    run_bundled,
    run_scenario,
)
from sfvm.trace import parse_trace

from . import fuzz_inputs
from .helpers import (
    bundled_descriptors,
    linear_extensions,
    reference_explore,
    serialization_chain,
    trace_text,
)

EXPECTED = [
    "busybox-9071",
    "cve-2016-0728",
    "cve-2016-5195",
    "cve-2017-5123",
    "cve-2017-7533",
    "cve-2018-18281",
    "cve-2019-11487",
]


def test_bundle_inventory():
    assert bundled_scenario_names() == EXPECTED


@pytest.mark.parametrize("name", EXPECTED)
def test_bundled_scenario_passes(name):
    result = run_bundled(name, descriptors=bundled_descriptors())
    for check in result.checks:
        assert check.passed, f"{name}: {check.description} ({check.detail})"
    assert result.passed


@pytest.mark.parametrize("name", EXPECTED)
def test_bundled_scenario_structure(name):
    spec = load_bundled_scenario(name)
    assert spec["name"] == name
    assert spec["title"]
    assert spec.get("mode", "run") in ("run", "explore")
    assert spec["checks"], "a scenario must judge something"
    kinds = {c["check"] for c in spec["checks"]}
    if spec.get("mode") == "explore":
        # the overlap claim must come with its counterfactual
        assert "no_overlap" not in kinds or "overlap_without_policy" in kinds


def test_tampered_expectation_fails():
    spec = copy.deepcopy(load_bundled_scenario("cve-2016-0728"))
    for check in spec["checks"]:
        if check["check"] == "decision_sequence":
            check["actions"] = ["allow"] * len(check["actions"])
            break
    else:
        pytest.fail("scenario has no decision_sequence check to tamper with")
    result = run_scenario(spec, descriptors=bundled_descriptors())
    assert not result.passed


def test_unknown_mode_and_check_are_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        run_scenario({"name": "x", "mode": "simulate", "trace": []})
    spec = {"name": "x", "mode": "run",
            "trace": [{"event": "spawn", "tid": 1}],
            "checks": [{"check": "entropy"}]}
    with pytest.raises(ValueError, match="unknown run check"):
        run_scenario(spec)
    spec["checks"] = [{"check": ["entropy"]}]      # not even hashable
    with pytest.raises(ValueError, match="unknown run check"):
        run_scenario(spec)


# (test id, scenario mode, keys put into the spec, what it is told)
MALFORMED = [
    ("decision_sequence-actions",
     "run", {"checks": [{"check": "decision_sequence", "task": 1}]},
     "check 'decision_sequence' is missing its field 'actions'"),
    ("action_count-action",
     "run", {"checks": [{"check": "action_count", "nr": 1}]},
     "check 'action_count' is missing its field 'action'"),
    ("no_overlap-pair",
     "explore", {"checks": [{"check": "no_overlap"}]},
     "check 'no_overlap' is missing its field 'pair'"),
    ("overlap_without_policy-pair",
     "explore", {"checks": [{"check": "overlap_without_policy"}]},
     "check 'overlap_without_policy' is missing its field 'pair'"),
    ("schedule_count-count",
     "explore", {"checks": [{"check": "schedule_count"}]},
     "check 'schedule_count' is missing its field 'count'"),
    ("unknown-kind-after-valid",
     "explore", {"checks": [{"check": "overlap_without_policy",
                             "pair": [1, 2]}, {"check": "entropy"}]},
     "unknown explore check 'entropy'"),
    ("run-kind-in-explore",
     "explore", {"checks": [{"check": "allowed", "task": 1}]},
     "unknown explore check 'allowed'"),
    ("min-string",
     "run", {"checks": [{"check": "action_count", "action": "allow",
                         "min": "1"}]},
     "check 'action_count': min must be an integer"),
    ("pair-integer",
     "explore", {"checks": [{"check": "no_overlap", "pair": 5}]},
     "check 'no_overlap': pair must be two integers"),
    ("pair-one",
     "explore", {"checks": [{"check": "no_overlap", "pair": [1]}]},
     "check 'no_overlap': pair must be two integers"),
    ("min_schedules-string",
     "explore", {"checks": [{"check": "overlap_without_policy",
                             "pair": [1, 2], "min_schedules": "x"}]},
     "check 'overlap_without_policy': min_schedules must be an integer"),
    ("count-string",
     "explore", {"checks": [{"check": "schedule_count", "count": "3"}]},
     "check 'schedule_count': count must be an integer"),
    ("actions-string",
     "run", {"checks": [{"check": "decision_sequence", "actions": "allow"}]},
     "check 'decision_sequence': actions must be a list of strings"),
    ("task-array",
     "run", {"checks": [{"check": "allowed", "task": [1]}]},
     "check 'allowed': task must be an integer"),
    ("unknown-check-field",
     "run", {"checks": [{"check": "denied", "why": "x"}]},
     "check 'denied': unknown field 'why'"),
    ("unknown-scenario-key",
     "run", {"sed": 1}, "unknown field 'sed'"),
    ("max_steps-string",
     "explore", {"max_steps": "x"}, "max_steps must be an integer"),
    ("max_steps-boolean",
     "explore", {"max_steps": True}, "max_steps must be an integer"),
    ("seed-string",
     "run", {"seed": "x"}, "seed must be an integer"),
    ("seed-number",
     "run", {"seed": 1.5}, "seed must be an integer"),
    ("seed-in-explore",
     "explore", {"seed": 1}, "'seed' is for run scenarios only"),
    ("max_steps-in-run",
     "run", {"max_steps": 16}, "'max_steps' is for explore scenarios only"),
    ("title-integer",
     "run", {"title": 5}, "title must be a string"),
    ("mode-integer", "run", {"mode": 1}, "mode must be a string"),
]


@pytest.mark.parametrize("mode,change,message",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_a_malformed_spec_is_refused_before_the_run(
        monkeypatch, mode, change, message):
    def never(*args, **kwargs):
        raise AssertionError("the scenario ran")
    monkeypatch.setattr("sfvm.scenarios.Simulator", never)
    monkeypatch.setattr("sfvm.scenarios.explore_graph", never)
    spec = {"name": "x", "mode": mode,
            "trace": [{"event": "spawn", "tid": 1}], **change}
    with pytest.raises(ScenarioError) as refused:
        run_scenario(spec)
    assert str(refused.value) == f"scenario x: {message}"


# -- the overlap judgment -----------------------------------------------------


def test_the_fuzz_harness_starts_from_every_check_kind():
    assert list(fuzz_inputs.FULL_CHECKS) == list(CHECKS)
    for kind, entry in CHECKS.items():
        # every field and every key, so each is swapped and taken out
        spec = fuzz_inputs.full_scenario(kind)
        assert set(spec) == set(SCENARIO.types) - {
            MODES[mode] for mode in MODES if mode != entry.mode}
        assert set(spec["checks"][0]) == set(entry.shape.types)
        assert len(run_scenario(spec).checks) == 1, kind


def test_fuzz_scenarios_finds_no_crash():
    # the scenario slice of `python -m tests.fuzz_inputs`
    assert fuzz_inputs.fuzz("scenario", random.Random(1)) == 0


def dec(nr, action="allow", marker=False, task=1):
    entry = {"kind": "decision", "task": task, "nr": nr, "action": action}
    if marker:
        entry["marker"] = True
    return entry


def ex(nr, task=1):
    return {"kind": "exit", "task": task, "nr": nr}


def test_overlap_detects_interleaved_windows():
    assert decision_windows_overlap(
        [dec(1), dec(2), ex(1), ex(2)], (1, 2))
    assert decision_windows_overlap(
        [dec(2), dec(1)], (1, 2))              # never-exited still counts


def test_no_overlap_when_windows_are_disjoint():
    assert not decision_windows_overlap(
        [dec(1), ex(1), dec(2), ex(2)], (1, 2))
    assert not decision_windows_overlap(
        [dec(2), ex(2), dec(1), ex(1)], (1, 2))


def test_denied_entries_open_no_window():
    assert not decision_windows_overlap(
        [dec(1), dec(2, action="errno"), ex(1)], (1, 2))
    assert not decision_windows_overlap(
        [dec(1), dec(2, action="kill_process"), ex(1)], (1, 2))


def test_markers_open_no_window():
    assert not decision_windows_overlap(
        [dec(1), dec(2, marker=True), ex(1)], (1, 2))


def test_a_markers_exit_closes_no_other_window():
    # task 1's marker exits right after its decision; task 2's nr 10
    # stays open when task 3 enters nr 11
    assert decision_windows_overlap(
        [dec(10, task=2), dec(10, marker=True), ex(10), dec(11, task=3)],
        (10, 11))


def test_no_overlap_counts_schedules_past_an_allowed_marker():
    trace = [{"event": "spawn", "tid": 1},
             {"event": "spawn", "task": 1, "tid": 2},
             {"event": "spawn", "task": 1, "tid": 3},
             {"event": "syscall_enter", "task": 2, "nr": 10},
             {"event": "phase_marker", "task": 1, "nr": 10},
             {"event": "syscall_enter", "task": 3, "nr": 11},
             {"event": "syscall_exit", "task": 3},
             {"event": "syscall_exit", "task": 2}]
    result = run_scenario({"name": "marker", "mode": "explore",
                           "trace": trace, "checks": [
                               {"check": "no_overlap", "pair": [10, 11]}]})
    assert result.metrics["schedules"] == 45
    assert result.checks[0].detail == "28 overlapping"


def test_unrelated_syscalls_are_ignored():
    assert not decision_windows_overlap(
        [dec(1), dec(9), dec(7), ex(9), ex(1)], (1, 2))


def test_log_opens_a_window():
    assert decision_windows_overlap(
        [dec(1, action="log"), dec(2)], (1, 2))


# -- judged on the explored graph ---------------------------------------------


def test_a_serialization_chain_is_judged_on_its_graph():
    # 66,512,160 schedules without the filter: only the graph can hold them
    spec = serialization_chain(3)
    start = time.perf_counter()
    result = run_scenario(spec, descriptors=bundled_descriptors())
    assert time.perf_counter() - start < 2
    assert result.metrics["stripped_schedules"] == \
        linear_extensions(spec["trace"]) == 66_512_160
    assert [c.passed for c in result.checks] == [True, True, True]


def test_a_short_chain_counts_as_the_reference_does():
    spec = serialization_chain(1)
    result = run_scenario(spec, descriptors=bundled_descriptors())
    runs, stripped = (
        reference_explore(parse_trace(trace_text(events)),
                          descriptors=bundled_descriptors())
        for events in (spec["trace"], _strip_policies(spec["trace"])))
    assert result.metrics == {"schedules": len(runs),
                              "stripped_schedules": len(stripped)}
    overlapping = [sum(decision_windows_overlap(entries, check["pair"])
                       for _, entries in pool)
                   for check, pool in zip(spec["checks"],
                                          (runs, runs, stripped))]
    assert [c.detail for c in result.checks] == [
        f"{overlapping[0]} overlapping", f"{overlapping[1]} overlapping",
        f"{overlapping[2]} of {len(stripped)} schedules overlap"]
