"""Shared pieces of the cycle-accurate decoder models: resource report,
trace collection, and the closed-form resource/latency expressions the
simulators are checked against.

Each model stores its own closed form in the report it returns
(CycleReport.closed_form), so check_formulas compares counted against
predicted figures without knowing which model made the report."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CycleReport:
    """Resources and latency of one simulated run.

    Counted by the run: cycles, cycles_per_iteration (bp_line), contention
    and sc_multi's instances_d* and pe_count, which come from its
    schedule. ps_flops and mem_cells are the sizes of the partial-sum banks
    and BP message arrays the model holds. pe_count and llr_regs of
    sc_pipeline, sc_line, sc_limited and general_line, and units of
    bp_line, are set from the same expressions as their closed forms, so
    check_formulas compares them with themselves. sc_multi's llr_regs is
    set too, and in no closed form.
    """

    arch: str
    n: int
    cycles: int
    pe_count: int = 0
    llr_regs: int = 0
    ps_flops: int = 0
    mem_cells: int = 0
    units: int = 0
    codewords: int = 1
    iterations: int = 0
    contention: int = 0
    extra: dict = field(default_factory=dict)
    # the model's closed form: report field or extra key -> predicted value
    closed_form: dict[str, int] | None = None

    def to_text(self) -> str:
        pairs = [("arch", self.arch), ("n", self.n), ("cycles", self.cycles)]
        for k in ("pe_count", "llr_regs", "ps_flops", "mem_cells", "units"):
            v = getattr(self, k)
            if v:
                pairs.append((k, v))
        if self.codewords != 1:
            pairs.append(("codewords", self.codewords))
        if self.iterations:
            pairs.append(("iterations", self.iterations))
        if self.arch == "sc_multi":
            pairs.append(("contention", self.contention))
        pairs.extend(sorted(self.extra.items()))
        return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"


def check_formulas(report: CycleReport) -> list[str]:
    """Counted-vs-closed-form comparison; returns one line per mismatch, in
    the closed form's key order. A report without a closed form is a
    ValueError."""
    if report.closed_form is None:
        raise ValueError(f"no closed forms for arch {report.arch!r}")
    counted = {**vars(report), **report.extra}  # an extra key names a counted figure too
    return [f"{key}: counted {counted[key]}, formula {value}"
            for key, value in report.closed_form.items() if counted[key] != value]


class TraceLog:
    """Optional per-cycle activity log: cycle,unit,op,inputs,outputs."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.rows: list[tuple] = []

    def fire(self, cycle: int, unit: str, op: str, inputs, outputs):
        if self.enabled:
            self.rows.append((cycle, unit, op, _fmt(inputs), _fmt(outputs)))

    def to_text(self) -> str:
        lines = ["cycle,unit,op,inputs,outputs"]
        for row in self.rows:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


@dataclass
class HwRun:
    """Decisions of one frame with the report and trace of the model run."""

    u_hat: np.ndarray
    x_hat: np.ndarray
    report: CycleReport
    trace: TraceLog


def _fmt(values) -> str:
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(f"{v:.6g}")
        else:
            out.append(str(v))
    return ";".join(out)


# closed forms -----------------------------------------------------------
# The simulators count their own cycles and units; these expressions are
# what those counts are compared against. The general-line cycle count
# below follows the per-level recursion only for log_ell(N) <= 2; the
# simulator's true schedule is ell*(N-1)/(ell-1) cycles, so the check is
# expected to flag larger depths.


def formulas_sc_pipeline(n: int) -> dict[str, int]:
    return {"cycles": 2 * n - 2, "pe_count": n - 1, "llr_regs": 2 * n - 2}


def formulas_sc_line(n: int) -> dict[str, int]:
    return {"cycles": 2 * n - 2, "pe_count": n // 2, "llr_regs": n - 1, "ps_flops": n - 2}


def formulas_sc_limited(n: int, i: int) -> dict[str, int]:
    return {"cycles": 2 * n + (i - 2) * 2**i, "pe_count": n // 2**i}


def formulas_sc_multi(n: int, p: int) -> dict[str, int]:
    return {"cycles": 2 * n - 2 + (p - 1)}


def formulas_bp_line(n: int, iterations: int = 1) -> dict[str, int]:
    m = n.bit_length() - 1
    per_iter = (11 * n - 14) // 2  # 5.5*N - 7, integral for N >= 2
    return {
        "cycles": iterations * per_iter,
        "cycles_per_iteration": per_iter,
        "mem_cells": (n // 2) * m,
        "units": m,
    }


def formulas_general_line(ell: int, m: int) -> dict[str, int]:
    n = ell**m
    return {
        "cycles": n + ell * (m - 1),
        "pe_count": n // ell,
        "llr_regs": (n - ell) // (ell - 1),
    }


def general_line_true_cycles(ell: int, m: int) -> int:
    """What the dependency-faithful schedule actually needs."""
    n = ell**m
    return ell * (n - 1) // (ell - 1)
