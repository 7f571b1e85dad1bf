"""Attack-surface accounting for phase-split policies.

Compares each profile's initialization-phase allowlist with the classic
whole-lifetime union.  `reduction` is the early-execution reduction:
the percentage of union syscalls a phase-aware policy keeps blocked
until initialization ends, because only the serving phase uses them.
"""

from __future__ import annotations

import json

from .policies import SWEEP_DOMAIN, PhaseProfile, load_profiles


def surface_row(name: str, profile: PhaseProfile) -> dict:
    return {
        "name": name,
        "init_size": len(profile.s_init),
        "serv_size": len(profile.s_serv),
        "common_size": profile.common_size,
        "union_size": profile.union_size,
        "reduction_pct": profile.reduction_pct,
        "marker_nr": profile.marker_nr,
    }


def attack_surface_report(profiles: dict | None = None) -> dict:
    if profiles is None:
        profiles = load_profiles()
    return {
        "domain": {"start": SWEEP_DOMAIN.start, "stop": SWEEP_DOMAIN.stop},
        "applications": [surface_row(name, prof)
                         for name, prof in sorted(profiles.items())],
    }


def render_table(report: dict) -> str:
    header = f"{'application':<12} {'init':>5} {'serv':>5} {'common':>6} " \
             f"{'union':>5} {'reduction':>9}"
    lines = [header, "-" * len(header)]
    for row in report["applications"]:
        lines.append(
            f"{row['name']:<12} {row['init_size']:>5} {row['serv_size']:>5} "
            f"{row['common_size']:>6} {row['union_size']:>5} "
            f"{row['reduction_pct']:>8.1f}%")
    return "\n".join(lines)


def load_report_schema() -> dict:
    from importlib.resources import files
    path = files("sfvm") / "data" / "report.schema.json"
    return json.loads(path.read_text())
