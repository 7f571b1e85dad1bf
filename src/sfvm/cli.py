"""Command-line front end.

Exit codes: 0 success, 1 the operation ran but reported failure (a
rejected program, a failing scenario), 2 bad usage (a file that cannot be
read, or a trace, schedule, scenario or descriptor table that cannot be
used as written) or a refused exploration.  Program file arguments
accept either the binary container or assembly text; the magic bytes
decide which.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .asm import AsmError, assemble, disassemble
from .engine import EngineConfig
from .isa import PROGRAM_MAGIC, decode_program, encode_program
from .policies import describe_generators, load_profiles
from .reporting import attack_surface_report, render_table
from .sim import ExplorationLimit, MAX_EXPLORE_STEPS, Simulator, \
    explore_graph, log_digest, schedules
from .snapshot import MODES, DescriptorError, DescriptorTable
from .trace import TraceError, load_trace
from .vocab import decode_text, read_text
from .verifier import verify


def _read_program(path: str):
    """(program, whether the file held the binary container)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(PROGRAM_MAGIC)] == PROGRAM_MAGIC:
        return decode_program(raw), True
    return assemble(decode_text(raw, ValueError)), False


def _engine_config(args) -> EngineConfig:
    kwargs = {}
    if os.environ.get("SFVM_PRIVILEGED_ONLY") == "1":
        kwargs["privileged_only"] = True
    mode = getattr(args, "mode", None)
    if mode:
        kwargs["snapshot_mode"] = mode
    return EngineConfig(**kwargs)


def _descriptors(args) -> DescriptorTable:
    path = getattr(args, "descriptors", None)
    if path:
        return DescriptorTable.from_json(read_text(path, DescriptorError))
    from importlib.resources import files
    return DescriptorTable.from_json(
        (files("sfvm") / "data" / "descriptors.json").read_text())


def _parse_schedule(text: str):
    """Either seed:<n> for a seeded run or a comma list of task ids."""
    if text.startswith("seed:"):
        return int(text[len("seed:"):]), None
    return None, [int(t) for t in text.split(",") if t.strip()]


def cmd_asm(args) -> int:
    try:
        program, binary = _read_program(args.input)
        out = disassemble(program).encode("utf-8") if binary \
            else encode_program(program)
    except (AsmError, ValueError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(out)
    else:
        sys.stdout.buffer.write(out if binary else out.hex().encode() + b"\n")
    return 0


def cmd_verify(args) -> int:
    try:
        program, _ = _read_program(args.program)
    except (AsmError, ValueError) as exc:
        print(f"error: {args.program}: {exc}", file=sys.stderr)
        return 1
    report = verify(program)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.accepted else 1


def cmd_run(args) -> int:
    try:
        trace = load_trace(args.trace)
    except TraceError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    seed, schedule = 0, None
    if args.schedule:
        try:
            seed, schedule = _parse_schedule(args.schedule)
        except ValueError as exc:
            print(f"error: --schedule {args.schedule}: {exc}",
                  file=sys.stderr)
            return 2
        seed = seed or 0
    sim = Simulator(trace, config=_engine_config(args),
                    descriptors=_descriptors(args), seed=seed,
                    schedule=schedule)
    try:
        sim.run()
    except TraceError as exc:       # it picks a task that cannot run
        print(f"error: --schedule {args.schedule}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"log": sim.entries, "metrics": sim.metrics()},
                         indent=2))
    else:
        for entry in sim.entries:
            print(json.dumps(entry))
        print(json.dumps(sim.metrics()))
    return 0


def cmd_explore(args) -> int:
    try:
        trace = load_trace(args.trace)
    except TraceError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    try:
        graph = explore_graph(trace, config=_engine_config(args),
                              descriptors=_descriptors(args),
                              max_steps=args.max_steps)
    except ExplorationLimit as exc:
        # refusal, not failure: the trace is fine but too big to walk
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # one log at a time; the list is kept only for --json
    runs, digests = [], {}
    for run in schedules(graph):
        digest = log_digest(run[1])
        digests[digest] = digests.get(digest, 0) + 1
        if args.json:
            runs.append(run)
    print(f"schedules: {graph.schedules}")
    print(f"distinct outcomes: {len(digests)}")
    for digest, count in sorted(digests.items()):
        print(f"  {digest[:16]}  x{count}")
    if args.json:
        print(json.dumps([{"schedule": sched, "log": entries}
                          for sched, entries in runs], indent=2))
    return 0


def cmd_scenario(args) -> int:
    from .scenarios import ScenarioError, bundled_scenario_names, \
        load_scenario, run_bundled, run_scenario
    config = _engine_config(args)
    descriptors = _descriptors(args)
    if args.all:
        names = bundled_scenario_names()
        results = [run_bundled(n, config, descriptors) for n in names]
    elif args.name is None:
        print("error: give a scenario name/path or --all", file=sys.stderr)
        return 2
    elif os.path.exists(args.name):
        try:
            results = [run_scenario(load_scenario(args.name), config,
                                    descriptors)]
        except (ScenarioError, TraceError, ExplorationLimit,
                json.JSONDecodeError) as exc:
            print(f"error: {args.name}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            results = [run_bundled(args.name, config, descriptors)]
        except FileNotFoundError:
            print(f"error: no bundled scenario named {args.name!r}",
                  file=sys.stderr)
            return 2
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.title}")
        for check in res.checks:
            mark = "ok" if check.passed else "FAILED"
            print(f"    {mark:<6} {check.description} ({check.detail})")
        failed += 0 if res.passed else 1
    return 0 if failed == 0 else 1


def cmd_report(args) -> int:
    profiles = None
    if args.profiles:
        try:
            profiles = load_profiles(args.profiles)
        except (OSError, ValueError) as exc:
            print(f"error: {args.profiles}: {exc}", file=sys.stderr)
            return 2
    report = attack_surface_report(profiles)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfvm",
        description="assemble, verify, and simulate syscall filters")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble text, or disassemble a binary")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("verify", help="run the verifier on a program")
    p.add_argument("program")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "run", help="run a trace under one schedule",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog='a load event\'s "policy" is {"generator": NAME, FIELD: '
               'VALUE, ...}:\n' + describe_generators())
    p.add_argument("trace")
    p.add_argument("--schedule",
                   help="seed:<n> or a comma-separated task id list")
    p.add_argument("--mode", choices=sorted(MODES))
    p.add_argument("--descriptors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("explore", help="run a trace under every schedule")
    p.add_argument("trace")
    p.add_argument("--max-steps", type=int, default=MAX_EXPLORE_STEPS)
    p.add_argument("--mode", choices=sorted(MODES))
    p.add_argument("--descriptors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("scenario", help="replay a bundled incident scenario")
    p.add_argument("name", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--mode", choices=sorted(MODES))
    p.add_argument("--descriptors")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("report", help="summary reports")
    p.add_argument("kind", choices=["attack-surface"])
    p.add_argument("--profiles")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DescriptorError as exc:  # only `_descriptors` raises it
        print(f"error: --descriptors {args.descriptors}: {exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:          # a file named on the command line
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
