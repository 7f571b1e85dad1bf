"""Run-time span tracing of sfvm's public functions, from outside `src/`.

The tracer replaces functions and methods with timing wrappers for the
duration of a `with Tracer():` block and puts the originals back on
exit.  A module-level function is wrapped under every name a caller
looks it up by (`sfvm.engine.verify` as well as `sfvm.verifier.verify`);
`_check_complete` fails loudly if some sfvm module still holds an
unwrapped reference, so a new import elsewhere cannot silently escape
the trace.

Every wrapped call is a span with a layer name.  A span's self time is
its duration minus the time covered by the spans it called; the sum of
self times plus the untraced remainder ("other") is the traced wall
time.  Besides time, a few wrappers record deterministic counts taken
from arguments and results (abstract steps, map hits, snapshot bytes,
distinct exploration states, ...), so counts are measured where the
work happens.
"""

from __future__ import annotations

import gc
import sys
import time

import sfvm.asm
import sfvm.engine
import sfvm.isa
import sfvm.maps
import sfvm.policies
import sfvm.scenarios
import sfvm.sim
import sfvm.snapshot
import sfvm.trace
import sfvm.usermem
import sfvm.verifier
import sfvm.vm

_now = time.perf_counter_ns

# module-level functions: (layer, defining module, name)
FUNCTIONS = [
    ("trace.parse", sfvm.trace, "parse_trace"),
    ("policies", sfvm.policies, "build_program"),
    ("policies", sfvm.policies, "gen_allow_all"),
    ("policies", sfvm.policies, "gen_allowlist"),
    ("policies", sfvm.policies, "gen_denylist"),
    ("policies", sfvm.policies, "gen_count_limit"),
    ("policies", sfvm.policies, "gen_rate_limit"),
    ("policies", sfvm.policies, "gen_temporal"),
    ("policies", sfvm.policies, "gen_flow_integrity"),
    ("policies", sfvm.policies, "gen_serialization"),
    ("policies", sfvm.policies, "gen_validation_cache"),
    ("asm", sfvm.asm, "assemble"),
    ("codec", sfvm.isa, "decode_program"),
    ("codec", sfvm.isa, "encode_program"),
    ("verifier", sfvm.verifier, "verify"),
    ("explore.materialize", sfvm.sim, "explore_interleavings"),
    ("scenarios", sfvm.scenarios, "run_scenario"),
]

# methods: (layer, class, name)
METHODS = [
    ("engine.load", sfvm.engine.Engine, "load"),
    ("engine.load", sfvm.engine.Engine, "install"),
    ("engine.load", sfvm.engine.Engine, "install_classic"),
    ("engine.syscall", sfvm.engine.Engine, "start_syscall"),
    ("engine.syscall", sfvm.engine.Engine, "resume_syscall"),
    ("engine.syscall", sfvm.engine.Engine, "syscall_exit"),
    ("engine.syscall", sfvm.engine.Engine, "run_syscall"),
    ("engine.syscall", sfvm.engine.Engine, "service_fault"),
    ("vm", sfvm.vm.VmThread, "run"),
    ("snapshot.capture", sfvm.snapshot.Snapshotter, "snapshot"),
    ("snapshot.release", sfvm.snapshot.Snapshotter, "release"),
    ("snapshot.read", sfvm.snapshot.ArgSnapshot, "read"),
    ("snapshot.read", sfvm.snapshot.ArgSnapshot, "service_fault"),
    ("usermem", sfvm.usermem.UserMemory, "write"),
    ("maps", sfvm.maps.PolicyMap, "lookup"),
    ("maps", sfvm.maps.PolicyMap, "update"),
    ("maps", sfvm.maps.PolicyMap, "delete"),
    ("maps", sfvm.maps.PolicyMap, "storage_get"),
    ("maps", sfvm.maps.PolicyMap, "storage_delete"),
    ("maps", sfvm.maps.PolicyMap, "get_program"),
    ("sim", sfvm.sim.Simulator, "step"),
    ("sim", sfvm.sim.Simulator, "runnable_tasks"),
    ("explore.state_key", sfvm.sim.Simulator, "state_key"),
    ("explore.deepcopy", sfvm.sim.Simulator, "__deepcopy__"),
]



def _sfvm_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "sfvm" or name.startswith("sfvm.")]


class Tracer:
    """Collects self time and call counts per layer, plus counters."""

    def __init__(self):
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.states: set = set()
        self.outcomes: set = set()
        self.bookkeeping_ns = 0
        self._stack: list[list] = []     # [start_ns, child_ns]
        self._undo: list = []

    # -- spans ----------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, layer: str, fn, after=None):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        def wrapper(*args, **kwargs):
            frame = [_now(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - frame[0]
                self_ns[layer] = self_ns.get(layer, 0) + dur - frame[1]
                calls[layer] = calls.get(layer, 0) + 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                # counting is tracer work: keep it out of every span
                after(args, result)
                spent = _now() - end
                self.bookkeeping_ns += spent
                if stack:
                    stack[-1][1] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- counting hooks ---------------------------------------------------

    def _after_hooks(self):
        def verify_done(args, report):
            self.count("verifier.abstract_steps", report.abstract_steps)
            self.count("verifier.programs")

        def assembled(args, program):
            self.count("asm.instructions", len(program.instructions))

        def lookup_done(args, result):
            self.count("maps.ops")
            self.count("maps.lookups")
            if result is not None:
                self.count("maps.hits")

        def update_done(args, result):
            self.count("maps.ops")

        def resumed(args, result):
            if result[0] == "blocked":
                self.count("engine.blocks")
            else:
                self.count("engine.decisions")

        def released(args, result):
            snap = args[2]
            self.count("snapshot.bytes", sum(r.size for r in snap.ranges))

        def read_done(args, result):
            self.count("snapshot.reads")

        def wrote(args, status):
            if status == sfvm.usermem.WriteStatus.STALL:
                self.count("usermem.stalls")

        def keyed(args, key):
            self.count("explore.state_keys")
            self.states.add(hash(key))

        def explored(args, runs):
            # the memo lives for one exploration: count its states, reset
            self.count("explore.states", len(self.states))
            self.states.clear()
            self.count("explore.schedules", len(runs))
            for _, entries in runs:
                self.outcomes.add(sfvm.sim.log_digest(entries))

        def vm_ran(args, status):
            if status == "done":
                thread = args[0]
                self.count("vm.steps", thread.steps)
                self.count("vm.helper_calls", thread.helper_calls)

        def stepped(args, result):
            self.count("sim.steps")

        def loaded(args, handle):
            self.count("engine.loads")

        return {
            "verify": verify_done,
            "assemble": assembled,
            "lookup": lookup_done,
            "storage_get": lookup_done,
            "get_program": lookup_done,
            "update": update_done,
            "delete": update_done,
            "storage_delete": update_done,
            "resume_syscall": resumed,
            "release": released,
            "read": read_done,
            "write": wrote,
            "state_key": keyed,
            "explore_interleavings": explored,
            "run": vm_ran,
            "step": stepped,
            "load": loaded,
        }

    # -- install / uninstall ------------------------------------------------

    def __enter__(self):
        hooks = self._after_hooks()
        for layer, module, name in FUNCTIONS:
            original = getattr(module, name)
            wrapper = self._wrap(layer, original, hooks.get(name))
            # every module that imported the function by name
            for mod in _sfvm_modules():
                if getattr(mod, name, None) is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        for layer, cls, name in METHODS:
            original = cls.__dict__[name]
            hook = hooks.get(name)
            self._undo.append((cls, name, original))
            setattr(cls, name, self._wrap(layer, original, hook))
        self._check_complete()
        # collections the harness forces between operations are tracer
        # bookkeeping too, not unattributed program time
        collect = gc.collect

        def timed_collect(*args):
            t0 = _now()
            try:
                return collect(*args)
            finally:
                spent = _now() - t0
                self.bookkeeping_ns += spent
                if self._stack:
                    self._stack[-1][1] += spent

        self._undo.append((gc, "collect", collect))
        gc.collect = timed_collect
        self.wall_start = _now()
        return self

    def __exit__(self, *exc):
        self.wall_ns = _now() - self.wall_start
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def _check_complete(self):
        wrapped = {id(orig) for _, _, orig in self._undo}
        for mod in _sfvm_modules():
            for attr, value in vars(mod).items():
                if id(value) in wrapped and not hasattr(value, "__wrapped__"):
                    raise RuntimeError(
                        f"{mod.__name__}.{attr} escaped the tracer")

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        """Deterministic work counts of the traced block."""
        out = dict(self.counts)
        out["explore.deepcopies"] = self.calls.get("explore.deepcopy", 0)
        out["explore.outcomes"] = len(self.outcomes)
        return out

    @property
    def traced_ns(self) -> int:
        """Wall time of the traced block, less the tracer's own counting."""
        return self.wall_ns - self.bookkeeping_ns
