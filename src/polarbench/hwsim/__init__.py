"""Cycle-accurate decoder models and their closed-form resource checks."""

from __future__ import annotations

from ..kernels import code_depth
from .bp_line import BpLineRun, run_bp_line
from .core import (
    CycleReport,
    HwRun,
    TraceLog,
    formulas_bp_line,
    formulas_general_line,
    formulas_sc_limited,
    formulas_sc_line,
    formulas_sc_multi,
    formulas_sc_pipeline,
    general_line_true_cycles,
)
from .general_line import run_general_line
from .sc_arch import PartialSumMismatch, ScMultiRun, run_sc, run_sc_multi

SC_ARCHS = ("sc_pipeline", "sc_line", "sc_limited")


def check_formulas(report: CycleReport) -> list[str]:
    """Counted-vs-closed-form comparison; returns one line per mismatch."""
    n = report.n
    if report.arch == "sc_pipeline":
        want = formulas_sc_pipeline(n)
    elif report.arch == "sc_line":
        want = formulas_sc_line(n)
    elif report.arch == "sc_limited":
        want = formulas_sc_limited(n, report.extra["i"])
    elif report.arch == "sc_multi":
        want = formulas_sc_multi(n, report.codewords)
    elif report.arch == "bp_line":
        want = formulas_bp_line(n, report.iterations)
    elif report.arch == "general_line":
        ell = report.extra["ell"]
        want = formulas_general_line(ell, code_depth(n, ell))
    else:
        raise ValueError(f"no closed forms for arch {report.arch!r}")

    mismatches = []
    for key, value in want.items():
        counted = report.extra[key] if key in report.extra else getattr(report, key)
        if counted != value:
            mismatches.append(f"{key}: counted {counted}, formula {value}")
    return mismatches


__all__ = [
    "BpLineRun",
    "CycleReport",
    "HwRun",
    "PartialSumMismatch",
    "SC_ARCHS",
    "ScMultiRun",
    "TraceLog",
    "check_formulas",
    "formulas_bp_line",
    "formulas_general_line",
    "formulas_sc_limited",
    "formulas_sc_line",
    "formulas_sc_multi",
    "formulas_sc_pipeline",
    "general_line_true_cycles",
    "run_bp_line",
    "run_general_line",
    "run_sc",
    "run_sc_multi",
]
