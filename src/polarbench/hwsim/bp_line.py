"""Cycle model of a folded line of belief-propagation units.

One unit per tree depth, each owning the persistent child-1 message bank
for its level (N/2 cells, so (N/2) log2 N total): mu_v is the only part
of BP's state that persists across sweeps. A sweep walks the tree
exactly like the software pass; the size-2 base step is an atomic
four-cycle quantum, every other node spends 2 + 2 + 3 cycles around its
child visits, which telescopes to (11N - 14)/2 cycles per iteration.

Units are addressed in the trace as u<depth>.r<id> where a node's id is
2 * parent_id + (0 for the check-side child, 1 for the variable-side one).
The model has no sweep of its own: it is the tick hook of the software
sweep (bp_iteration), which reports each message operation in order, and
it spends one cycle per operation. Where the sweep takes an f update by an
exact node identity (a copy, or +0.0) it still reports that operation, so
the hook sees every one. The model runs BP's state as a batch
of one frame, the one shape the software decoder has, so after any number
of iterations that state matches the software decoder run with stopping
disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bp import BpState, bp_decisions, bp_iteration, bp_state, channel_llr
from ..kernels import CodeSpec
from .core import CycleReport, HwRun, TraceLog, formulas_bp_line


@dataclass
class BpLineRun(HwRun):
    """HwRun with BP's contradiction flag and its state after the last sweep."""

    contradiction: bool
    state: BpState


class _BpLineEngine:
    def __init__(self, spec: CodeSpec, min_sum: bool, trace: bool):
        self.state = bp_state(spec, min_sum=min_sum)
        self.cycle = 0
        self.trace = TraceLog(trace)

    def tick(self, d: int, r: int, op: str, outs):
        if self.trace.enabled:
            self.trace.fire(self.cycle, f"u{d}.r{r}", op, [], np.ravel(outs))
        self.cycle += 1


def run_bp_line(
    spec: CodeSpec,
    llr: np.ndarray,
    iterations: int = 10,
    min_sum: bool = False,
    trace: bool = False,
) -> BpLineRun:
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = spec.n
    lam = channel_llr(spec, llr)[None]
    mask, vals = spec.frozen_arrays()

    eng = _BpLineEngine(spec, min_sum=min_sum, trace=trace)
    st = eng.state
    per_iter = None
    for _ in range(iterations):
        start = eng.cycle
        bp_iteration(st, lam, tick=eng.tick)
        took = eng.cycle - start
        if per_iter is None:
            per_iter = took
        elif took != per_iter:
            raise AssertionError("iteration cycle count drifted")

    u_hat, x_hat = bp_decisions(st, lam, mask, vals)

    report = CycleReport(
        arch="bp_line",
        n=n,
        cycles=eng.cycle,
        mem_cells=sum(v.shape[-1] for v in st.mu_v),
        units=spec.m,
        iterations=iterations,
        extra={"cycles_per_iteration": per_iter},
        closed_form=formulas_bp_line(n, iterations),
    )
    return BpLineRun(u_hat[0], x_hat[0], report, eng.trace, bool(st.contradiction[0]), st)
