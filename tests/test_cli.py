"""Command-line interface, driven in process through main()."""

from __future__ import annotations

import json

import pytest

from sfvm.cli import build_parser, main
from sfvm.isa import PROGRAM_MAGIC
from sfvm.policies import GENERATORS

from .helpers import trace_text

GOOD_ASM = (
    "section seccomp\n"
    "    ld_ctx r1, 0\n"
    "    jeq r1, 1, deny\n"
    "    ld_imm64 r0, 0x7fff0000\n"
    "    exit\n"
    "deny:\n"
    "    mov r0, 0x5000d\n"
    "    exit\n")

BAD_ASM = "section seccomp\n    mov r0, r9\n    exit\n"

TRACE = [
    {"event": "spawn", "tid": 1, "nnp": True},
    {"event": "spawn", "tid": 2, "nnp": True},
    {"event": "load", "task": 1, "handle": 1,
     "policy": {"generator": "allow_all"}},
    {"event": "install", "task": 1, "handle": 1},
    {"event": "syscall_enter", "task": 1, "nr": 0},
    {"event": "syscall_exit", "task": 1},
    {"event": "syscall_enter", "task": 2, "nr": 1},
    {"event": "syscall_exit", "task": 2},
]


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "filter.s"
    path.write_text(GOOD_ASM)
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "workload.jsonl"
    path.write_text(trace_text(TRACE))
    return str(path)


def test_asm_round_trip(tmp_path, asm_file, capsys):
    binary = tmp_path / "filter.bin"
    assert main(["asm", asm_file, "-o", str(binary)]) == 0
    blob = binary.read_bytes()
    assert blob[:4] == PROGRAM_MAGIC

    listing = tmp_path / "filter.dis"
    assert main(["asm", str(binary), "-o", str(listing)]) == 0
    text = listing.read_text()
    assert "section seccomp" in text and "ld_ctx" in text

    # without -o, a binary result prints as hex
    assert main(["asm", asm_file]) == 0
    out = capsys.readouterr().out.strip()
    assert bytes.fromhex(out) == blob


def test_asm_reports_errors(tmp_path, capsys):
    path = tmp_path / "broken.s"
    path.write_text("section seccomp\n    launch r1\n    exit\n")
    assert main(["asm", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_accept_and_reject(tmp_path, asm_file, capsys):
    assert main(["verify", asm_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] is True
    # the asm file is loop-free: one joined pass proves it, no walk
    assert (report["joined_states"], report["walked_states"]) == (1, 0)

    bad = tmp_path / "bad.s"
    bad.write_text(BAD_ASM)
    assert main(["verify", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] is False
    assert "uninitialized" in report["reason"]


def test_run_with_seed_and_schedule(trace_file, capsys):
    assert main(["run", trace_file, "--schedule", "seed:7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    metrics = json.loads(lines[-1])
    assert metrics["decisions"] == 2
    schedule = ",".join(str(t) for t in metrics["schedule"])

    assert main(["run", trace_file, "--schedule", schedule, "--json"]) == 0
    replay = json.loads(capsys.readouterr().out)
    assert replay["metrics"]["digest"] == metrics["digest"]
    assert {e["kind"] for e in replay["log"]} == {"decision", "exit"}


def test_run_rejects_bad_traces(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event": "warp"}\n')
    for command in ("run", "explore"):
        assert main([command, str(path)]) == 2, command
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "explore", "scenario"])
@pytest.mark.parametrize("text,message", [
    ("not json", "descriptor table: bad JSON"),
    ("[1]", "descriptor table: must be a JSON object"),
    ('{"1": {"argz": {}}}', "syscall 1: unknown field 'argz'"),
])
def test_a_bad_descriptors_file_is_exit_2(tmp_path, trace_file, capsys,
                                          command, text, message):
    path = tmp_path / "descriptors.json"
    path.write_text(text)
    target = "cve-2016-0728" if command == "scenario" else trace_file
    assert main([command, target, "--descriptors", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: --descriptors {path}: {message}")


@pytest.mark.parametrize("argv,file", [
    (["run", "{bad}"], "{bad}"),
    (["explore", "{bad}"], "{bad}"),
    (["scenario", "{bad}"], "{bad}"),
    (["run", "{trace}", "--descriptors", "{bad}"], "--descriptors {bad}"),
])
def test_a_file_that_is_not_utf8_is_exit_2(tmp_path, trace_file, capsys,
                                           argv, file):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    argv = [arg.format(bad=bad, trace=trace_file) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {file.format(bad=bad)}: not UTF-8 text "
        f"(byte 0: invalid start byte)\n")


@pytest.mark.parametrize("command", ["asm", "verify"])
@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe", "not UTF-8 text (byte 0: invalid start byte)"),
    (PROGRAM_MAGIC + b"\x01", "truncated program file"),
    (b"section seccomp\n    frob r0\n", "line 2: unknown mnemonic 'frob'"),
])
def test_a_bad_program_file_names_its_path(tmp_path, capsys, command,
                                           content, message):
    path = tmp_path / "bad.prog"
    path.write_bytes(content)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["asm", "{missing}"],
    ["verify", "{missing}"],
    ["run", "{missing}"],
    ["explore", "{missing}"],
    ["run", "{trace}", "--descriptors", "{missing}"],
    ["explore", "{trace}", "--descriptors", "{missing}"],
    ["scenario", "cve-2016-0728", "--descriptors", "{missing}"],
    ["report", "attack-surface", "--profiles", "{missing}"],
])
def test_a_missing_file_is_exit_2(tmp_path, trace_file, capsys, argv):
    missing = str(tmp_path / "missing")
    argv = [arg.format(missing=missing, trace=trace_file) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {missing}: [Errno 2] No such file or directory: "
        f"{missing!r}\n")


@pytest.mark.parametrize("schedule,message", [
    ("seed:abc", "invalid literal"),
    ("1,x", "invalid literal"),
    ("3", "schedule picks task 3, which is not runnable"),
])
def test_run_with_a_bad_schedule_is_exit_2(trace_file, capsys, schedule,
                                           message):
    assert main(["run", trace_file, "--schedule", schedule]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --schedule {schedule}: ") and message in err


def test_explore_counts_schedules(trace_file, capsys):
    assert main(["explore", trace_file]) == 0
    out = capsys.readouterr().out
    assert "schedules: 15" in out
    assert "distinct outcomes: 6" in out


def test_explore_refusal_is_exit_2(trace_file, capsys):
    assert main(["explore", trace_file, "--max-steps", "3"]) == 2
    err = capsys.readouterr().err
    assert "capped at 3" in err


def test_scenario_by_name(capsys):
    assert main(["scenario", "cve-2016-0728"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] cve-2016-0728")


def test_scenario_all(capsys):
    assert main(["scenario", "--all"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7 and "[FAIL]" not in out


def test_scenario_usage_errors(capsys):
    assert main(["scenario"]) == 2
    assert "--all" in capsys.readouterr().err
    assert main(["scenario", "cve-1999-0000"]) == 2
    assert "no bundled scenario" in capsys.readouterr().err


def test_scenario_from_file(tmp_path, capsys):
    spec = {
        "name": "local", "title": "a local spec", "mode": "run",
        "trace": [
            {"event": "spawn", "tid": 1, "nnp": True},
            {"event": "load", "task": 1, "handle": 1,
             "policy": {"generator": "denylist", "denied": [2]}},
            {"event": "install", "task": 1, "handle": 1},
            {"event": "syscall_enter", "task": 1, "nr": 2},
        ],
        "checks": [{"check": "denied", "task": 1, "nr": 2}],
    }
    path = tmp_path / "local.json"
    path.write_text(json.dumps(spec))
    assert main(["scenario", str(path)]) == 0
    assert "[PASS] local" in capsys.readouterr().out


@pytest.mark.parametrize("change,message", [
    ({"trace": [{"event": "warp"}]}, "line 1: unknown event kind 'warp'"),
    ({"checks": [{"check": "faster"}]}, "unknown run check 'faster'"),
    ({"mode": "replay"}, "unknown mode 'replay'"),
    ({"name": None}, "missing 'name'"),
    ({"trace": None}, "missing 'trace'"),
    ({"checks": [{"check": "action_count", "nr": 1}]},
     "check 'action_count' is missing its field 'action'"),
    ({"mode": "explore", "max_steps": 3, "trace": TRACE,
      "checks": [{"check": "schedule_count", "count": 1}]}, "capped at 3"),
])
def test_a_malformed_scenario_file_is_exit_2(tmp_path, capsys, change,
                                             message):
    spec = {"name": "local", "mode": "run",
            "trace": [{"event": "spawn", "tid": 1, "nnp": True}],
            "checks": [{"check": "allowed", "task": 1, "nr": 2}], **change}
    spec = {key: value for key, value in spec.items() if value is not None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("profiles,message", [
    ({"app": {"init": [[0, 3]], "serv": [[2, 4]]}}, "missing 'marker'"),
    ({"app": {"init": 5, "serv": [], "marker": 9}}, "init must be"),
    ({"app": {"init": [], "serv": [], "marker": 9, "x": 1}},
     "unknown key 'x'"),
    ([1], "JSON object"),
])
def test_report_with_malformed_profiles_is_exit_2(tmp_path, capsys,
                                                  profiles, message):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(profiles))
    assert main(["report", "attack-surface", "--profiles", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_report_with_a_profiles_file(tmp_path, capsys):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"app": {"init": [[0, 3]], "serv": [[2, 6]],
                                        "marker": 9}}))
    assert main(["report", "attack-surface", "--profiles", str(path),
                 "--json"]) == 0
    assert "app" in capsys.readouterr().out


def test_run_help_lists_every_generator_and_field(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    out = capsys.readouterr().out
    for name, (_, summary, shape) in GENERATORS.items():
        assert f"  {name:<18} {summary}\n" in out
        for key in shape.types.keys() - {"generator"}:
            assert f"      {key:<14} " in out, (name, key)
    assert 'deny           an action, default "errno:1"' in out


def test_report_table_and_json(capsys):
    assert main(["report", "attack-surface"]) == 0
    table = capsys.readouterr().out
    assert "application" in table and "httpd" in table

    assert main(["report", "attack-surface", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    import jsonschema
    from sfvm.reporting import load_report_schema
    jsonschema.validate(report, load_report_schema())


def test_usage_errors_are_exit_2(capsys):
    assert main(["report", "weather"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_privileged_only_env_gates_attaches(trace_file, monkeypatch,
                                            capsys):
    monkeypatch.setenv("SFVM_PRIVILEGED_ONLY", "1")
    assert main(["run", trace_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    entries = [json.loads(line) for line in lines[:-1]]
    errors = [e for e in entries if e["kind"] == "error"]
    assert errors and "restricted" in errors[0]["error"]
