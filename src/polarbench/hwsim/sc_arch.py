"""Cycle-accurate SC decoder models over the binary butterfly schedule.

All variants execute the same activation sequence (STEP I / STEP III of
every tree node, depth-first); they differ in how many processing elements
serve an activation and in where intermediate values live:

  sc_pipeline  one PE bank per depth, every activation is a single cycle
  sc_line      a single bank of N/2 PEs; partial codewords live in per-depth
               flip-flop banks updated incrementally from each bit decision
  sc_limited   the line schedule with N/2**i PEs; wide activations run as
               several one-cycle sub-passes
  sc_multi     p <= N-1 staggered codewords sharing PE instances keyed by
               (depth, cycle mod (N-1)); contention is counted, not assumed.
               All p codewords go through one batched decode with the
               pipeline engine as its hook; the engine sizes each
               activation by the last axis, so it counts one codeword's
               schedule, which every codeword shares

No model has a recursion of its own. Each engine is the schedule hook of
the software decoder, decode_sc_arikan: the decoder computes every value
and the engine counts cycles and processing elements for each activation
it reports. The line models also keep the per-depth partial-sum flip-flop
banks, updated from the leaf decisions alone and checked at every STEP III
against the re-encoded left half the decoder used. Decisions match the
software decoder bit for bit because they are its decisions. Each engine
picks its architecture's closed form with its resources, and the report
carries it for check_formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ..kernels import CodeSpec, encode_unchecked, kernel_arikan
from ..llrops import LlrContradiction
from ..sc import decode_sc_arikan
from .core import (CycleReport, HwRun, TraceLog, formulas_sc_limited, formulas_sc_line,
                   formulas_sc_multi, formulas_sc_pipeline)


@cache
def _arikan_gmat(width: int) -> np.ndarray:
    """Rows of the width x width encode matrix, used as update indicators."""
    return encode_unchecked(kernel_arikan(), np.eye(width, dtype=np.int64))


class PartialSumMismatch(AssertionError):
    """A flip-flop bank disagreed with the re-encoded left half."""


class _ScEngine:
    def __init__(self, spec: CodeSpec, arch: str, i_param: int = 1, trace: bool = False):
        if not spec.kernel.is_arikan:
            raise ValueError("SC hardware models cover the (u+v, v) kernel")
        self.n = spec.n
        self.m = spec.m
        self.arch = arch
        self.trace = TraceLog(trace)
        self.cycle = 0
        self.sched: list[tuple[int, int]] = []  # (depth, cycle) per sub-pass
        if arch == "sc_pipeline":
            self.pe_limit = None
            self.pe_count = self.n - 1
            self.llr_regs = 2 * (self.n - 1)
            self.banks = {}
            self.closed_form = formulas_sc_pipeline(self.n)
        elif arch in ("sc_line", "sc_limited"):
            i = 1 if arch == "sc_line" else i_param
            if not 1 <= i <= self.m:
                raise ValueError(f"i must be in [1, {self.m}]")
            self.pe_limit = self.n // 2**i
            self.pe_count = self.pe_limit
            self.llr_regs = self.n - 1
            self.closed_form = (formulas_sc_line(self.n) if arch == "sc_line"
                                else formulas_sc_limited(self.n, i))
            # per-depth partial codeword storage for nodes of size >= 4
            self.banks = {
                d: np.zeros(2 ** (self.m - d - 1), dtype=np.int64)
                for d in range(self.m - 1)
            }
        else:
            raise ValueError(f"unknown arch {arch!r}")
        self.ps_flops = sum(len(b) for b in self.banks.values())
        self.left_phase: list[tuple[int, int, int]] = []  # (depth, start, width)

    # one STEP activation; returns nothing but advances the clock
    def _fire(self, depth: int, op: str, inputs, outputs):
        width = outputs.shape[-1]
        limit = width if self.pe_limit is None else self.pe_limit
        passes = max(1, math.ceil(width / limit))
        unit = f"pe{depth}" if self.arch == "sc_pipeline" else "pe"
        for k in range(passes):
            self.sched.append((depth, self.cycle))
            if self.trace.enabled:
                lo, hi = k * limit, min((k + 1) * limit, width)
                op_k = op if passes == 1 else f"{op}.{k}"
                self.trace.fire(
                    self.cycle, unit, op_k,
                    [v for arr in inputs for v in arr[lo:hi]],
                    list(outputs[lo:hi]),
                )
            self.cycle += 1

    # schedule hook of decode_sc_arikan
    def f(self, off: int, width: int, inputs, out):
        depth = self.m + 1 - width.bit_length()
        self._fire(depth, "f", inputs, out)
        if depth in self.banks:
            self.left_phase.append((depth, off, width // 2))

    def g(self, off: int, width: int, inputs, out, x0):
        depth = self.m + 1 - width.bit_length()
        if depth in self.banks:
            self.left_phase.pop()
            if not np.array_equal(self.banks[depth][: width // 2], x0):
                raise PartialSumMismatch(f"depth {depth} bank diverged from re-encode")
            self.banks[depth][:] = 0  # release for the next node at this depth
        self._fire(depth, "g", inputs, out)

    def decide(self, off: int, u, llr):
        # a decision of 1 flips every open bank where its encode row is 1;
        # only the line models open banks, and they decode one frame
        if self.left_phase and u[0]:
            for depth, start, width in self.left_phase:
                self.banks[depth][:width] ^= _arikan_gmat(width)[off - start]


def run_sc(
    spec: CodeSpec,
    llr: np.ndarray,
    arch: str = "sc_line",
    i_param: int = 1,
    min_sum: bool = False,
    trace: bool = False,
) -> HwRun:
    eng = _ScEngine(spec, arch, i_param=i_param, trace=trace)
    lam = np.asarray(llr, dtype=np.float64)
    if lam.shape != (spec.n,):
        raise ValueError(f"llr must have length {spec.n}")
    res = decode_sc_arikan(spec, lam, min_sum=min_sum, hook=eng)
    extra = {}
    if arch == "sc_limited":
        extra["i"] = i_param
        extra["root_passes"] = max(1, (spec.n // 2) // eng.pe_limit)
    report = CycleReport(
        arch=arch,
        n=spec.n,
        cycles=eng.cycle,
        pe_count=eng.pe_count,
        llr_regs=eng.llr_regs,
        ps_flops=eng.ps_flops,
        extra=extra,
        closed_form=eng.closed_form,
    )
    return HwRun(res.u_hat, res.x_hat, report, eng.trace)


def _contention(inst_ids: np.ndarray, cycles: np.ndarray, p: int, total: int) -> int:
    """Slots (instance, absolute cycle) fired more than once when p codewords
    run the schedule, activation j on instance inst_ids[j] at cycle
    cycles[j], one cycle apart; absolute cycles lie below total."""
    slots = (inst_ids[:, None] * total + cycles[:, None] + np.arange(p)).ravel()
    # sorted in place, a slot fired again sits next to its earlier firing;
    # only those repeats go to np.unique, whose counts would cost more
    # memory than the dense grid at p = N - 1
    slots.sort()
    return len(np.unique(slots[1:][slots[1:] == slots[:-1]]))


@dataclass
class ScMultiRun:
    results: list  # (u_hat, x_hat) per codeword
    report: CycleReport
    trace: TraceLog


def run_sc_multi(
    spec: CodeSpec,
    llr_list,
    min_sum: bool = False,
    trace: bool = False,
) -> ScMultiRun:
    """p codewords enter one cycle apart and share PE instances.

    An activation of codeword c at schedule cycle t fires the instance
    (depth, t mod (N-1)) at absolute cycle t + c. The (instance, cycle)
    slots fired more than once are counted as contention, to show that no
    instance double-fires. Every codeword must have length N; a codeword
    whose evidence contradicts itself raises LlrContradiction for the
    whole run.
    """
    n = spec.n
    p = len(llr_list)
    if not 1 <= p <= n - 1:
        raise ValueError("codeword count must be in [1, N-1]")
    words = [np.asarray(llr, dtype=np.float64) for llr in llr_list]
    if any(w.shape != (n,) for w in words):
        raise ValueError(f"every codeword's llr must have length {n}")

    # The schedule is input-independent: the engine counts it once while
    # the decoder walks all p codewords together.
    eng = _ScEngine(spec, "sc_pipeline")
    res = decode_sc_arikan(spec, np.stack(words), min_sum=min_sum, hook=eng)
    if res.failed.any():
        bad = np.flatnonzero(res.failed).tolist()
        raise LlrContradiction(f"evidence of codewords {bad} contradicts itself")
    results = list(zip(res.u_hat, res.x_hat))

    tl = TraceLog(trace)
    if tl.enabled:
        for c in range(p):
            for depth, t in eng.sched:
                tl.fire(t + c, f"inst{depth}.{t % (n - 1)}", "act", [c], [])

    # instance (depth, t mod (N-1)) as one key; unique keys sort by depth first
    depths, cycles = np.array(eng.sched).T
    keys, inst_ids = np.unique(depths * (n - 1) + cycles % (n - 1), return_inverse=True)
    inst_depth = keys // (n - 1)
    total_cycles = int(cycles.max()) + p
    contention = _contention(inst_ids, cycles, p, total_cycles)
    pe_count = p + int((n >> (inst_depth + 1)).sum())

    report = CycleReport(
        arch="sc_multi",
        n=n,
        cycles=total_cycles,
        pe_count=pe_count,
        llr_regs=p * (n - 1),
        codewords=p,
        contention=contention,
        extra={f"instances_d{d}": int(c) for d, c in enumerate(np.bincount(inst_depth))},
        closed_form=formulas_sc_multi(n, p),
    )
    return ScMultiRun(results, report, tl)
