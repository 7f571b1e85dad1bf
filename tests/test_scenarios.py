"""Bundled incident scenarios and the checks that judge them."""

from __future__ import annotations

import copy

import pytest

from sfvm.scenarios import (
    ScenarioError,
    bundled_scenario_names,
    decision_windows_overlap,
    load_bundled_scenario,
    run_bundled,
    run_scenario,
)

from .helpers import bundled_descriptors

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


@pytest.mark.parametrize("mode,check,field", [
    ("run", {"check": "decision_sequence", "task": 1}, "actions"),
    ("run", {"check": "action_count", "nr": 1}, "action"),
    ("explore", {"check": "no_overlap"}, "pair"),
    ("explore", {"check": "overlap_without_policy"}, "pair"),
    ("explore", {"check": "schedule_count"}, "count"),
])
def test_a_check_missing_its_field_is_refused_before_the_run(
        monkeypatch, mode, check, field):
    def never(*args, **kwargs):
        raise AssertionError("the scenario ran")
    monkeypatch.setattr("sfvm.scenarios.Simulator", never)
    monkeypatch.setattr("sfvm.scenarios.explore_interleavings", never)
    spec = {"name": "x", "mode": mode,
            "trace": [{"event": "spawn", "tid": 1}],
            "checks": [check]}
    with pytest.raises(ScenarioError,
                       match=f"scenario x: check '{check['check']}' is "
                             f"missing its field '{field}'"):
        run_scenario(spec)


# -- the overlap judgment -----------------------------------------------------


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
