"""Line decoder for codes built from one linear kernel over GF(q).

The schedule is the natural generalization of the binary line: every tree
node issues one preparation cycle per outer stage and a base block spends
one decision cycle per coordinate, giving ell*(N-1)/(ell-1) cycles total.

The model has no recursion of its own. The engine is the schedule hook of
the software decoder, decode_sc_general: the decoder computes every value
and the engine counts one cycle for each stage preparation it reports (on
the processing element of that node's depth) and for each decision (on
pe0). Decisions match the software decoder bit for bit because they are
its decisions.

Preparation hardware holds only the zero-prefix marginalization tables in
ROM and conditions on decided outer codewords through coset accumulators:
each kernel instance keeps the running combination sum_r x_r[i] * G[r] of
its decided rows. The accumulators are now the model's check, not its
arithmetic: at every node the engine combines the outer codewords (at a
base block, the decisions) through the generator and raises
PartialSumMismatch unless the result is the codeword the decoder
re-encoded through the kernel table.
"""

from __future__ import annotations

import numpy as np

from ..kernels import CodeSpec
from ..sc import UnsupportedCodeError, decode_sc_general
from .core import CycleReport, HwRun, TraceLog, formulas_general_line
from .sc_arch import PartialSumMismatch

class _GeneralLineEngine:
    def __init__(self, spec: CodeSpec, trace: bool):
        kernel = spec.kernel
        if kernel.generator is None:
            raise UnsupportedCodeError("the line model needs a linear kernel")
        if any(len(g) > 1 for g in kernel.glue):
            raise UnsupportedCodeError("joint glue groups have no line schedule")
        alph = kernel.alph
        self.ell = ell = kernel.ell
        self.add_table = alph.add_table
        # coset contribution s * G[r] of symbol s on input r, indexed [r, s]
        self.gmul = alph.mul_table[:, kernel.generator].swapaxes(0, 1)
        # the open base block's ell accumulators live in a Python list: a
        # decision updates a few symbols, too few to pay for a numpy call
        self.gmul_rows = self.gmul.tolist()
        self.add_rows = alph.add_table.tolist()
        self.base: list[int] = []
        self.depth = {ell**k: spec.m - k for k in range(1, spec.m + 1)}
        self.acc: dict[int, np.ndarray] = {}  # depth -> accumulators of its open node
        self.trace = TraceLog(trace)
        self.cycle = 0

    def _tick(self, depth: int, op: str, outs):
        if self.trace.enabled:
            self.trace.fire(self.cycle, f"pe{depth}", op, [], np.asarray(outs).ravel())
        self.cycle += 1

    # schedule hook of decode_sc_general
    def prep(self, off: int, width: int, r: int, w_r):
        self._tick(self.depth[width], f"prep{r}", w_r)

    def decide(self, i: int, u, llr):
        c = i % self.ell
        row = self.gmul_rows[c][u[0]]
        self.base = row if c == 0 else [self.add_rows[a][b] for a, b in zip(self.base, row)]
        self._tick(0, f"dec{c}", llr)

    def node(self, off: int, x):
        width = len(x)
        depth = self.depth[width]
        if width == self.ell:
            if self.base != x.tolist():
                raise PartialSumMismatch("base coset accumulator diverged from the kernel map")
        elif (self.acc.pop(depth) != x).any():
            raise PartialSumMismatch(f"depth {depth} coset accumulators diverged")
        if depth:
            # one vector update of the parent's accumulators: row r is decided
            r = off // width % self.ell
            contrib = self.gmul[r][x].reshape(-1)
            self.acc[depth - 1] = contrib if r == 0 else self.add_table[self.acc[depth - 1], contrib]


def run_general_line(spec: CodeSpec, rows: np.ndarray, trace: bool = False) -> HwRun:
    n, ell = spec.n, spec.kernel.ell
    eng = _GeneralLineEngine(spec, trace)
    res = decode_sc_general(spec, rows, hook=eng)
    report = CycleReport(
        arch="general_line",
        n=n,
        cycles=eng.cycle,
        pe_count=n // ell,
        llr_regs=(n - ell) // (ell - 1),
        extra={"ell": ell},
        closed_form=formulas_general_line(ell, spec.m),
    )
    return HwRun(res.u_hat, res.x_hat, report, eng.trace)
