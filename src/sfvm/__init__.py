"""Userspace model of an extended seccomp filter stack: a register VM
with verified programs, stateful policy maps, argument snapshotting,
and a deterministic multi-task scheduler for probing filter behaviour
under adversarial interleavings."""

from .actions import (ALLOW, KILL_PROCESS, KILL_THREAD, LOG, TRAP,
                      ResolvedAction, errno_action, resolve)
from .asm import AsmError, assemble, disassemble
from .engine import Credentials, Engine, EngineConfig, EngineError
from .isa import (FilterProgram, Instruction, MapDecl, MapKind,
                  SyscallContext, decode_program, encode_program)
from .maps import PolicyMap
from .policies import (GENERATORS, PhaseProfile, PolicySpecError,
                       build_program, gen_allow_all, gen_allowlist,
                       gen_count_limit, gen_denylist, gen_flow_integrity,
                       gen_phase_baseline, gen_rate_limit, gen_serialization,
                       gen_temporal, gen_validation_cache, load_profiles)
from .reporting import attack_surface_report, render_table
from .scenarios import run_bundled, run_scenario
from .sim import Simulator, explore_interleavings, log_digest
from .snapshot import DescriptorTable, Snapshotter
from .trace import Trace, TraceError, load_trace, parse_trace
from .usermem import UserMemory
from .verifier import VerifierReport, verify
from .vm import VmFault, VmThread

__version__ = "0.1.0"

__all__ = [
    "ALLOW", "KILL_PROCESS", "KILL_THREAD", "LOG", "TRAP",
    "ResolvedAction", "errno_action", "resolve",
    "AsmError", "assemble", "disassemble",
    "Credentials", "Engine", "EngineConfig", "EngineError",
    "FilterProgram", "Instruction", "MapDecl", "MapKind",
    "SyscallContext", "decode_program", "encode_program",
    "PolicyMap",
    "GENERATORS", "PhaseProfile", "PolicySpecError", "build_program",
    "gen_allow_all", "gen_allowlist",
    "gen_count_limit", "gen_denylist", "gen_flow_integrity",
    "gen_phase_baseline", "gen_rate_limit", "gen_serialization",
    "gen_temporal", "gen_validation_cache", "load_profiles",
    "attack_surface_report", "render_table",
    "run_bundled", "run_scenario",
    "Simulator", "explore_interleavings", "log_digest",
    "DescriptorTable", "Snapshotter",
    "Trace", "TraceError", "load_trace", "parse_trace",
    "UserMemory",
    "VerifierReport", "verify",
    "VmFault", "VmThread",
    "__version__",
]
