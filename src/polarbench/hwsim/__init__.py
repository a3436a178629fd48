"""Cycle-accurate decoder models and their closed-form resource checks."""

from __future__ import annotations

from .bp_line import BpLineRun, run_bp_line
from .core import (
    CycleReport,
    HwRun,
    TraceLog,
    check_formulas,
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
