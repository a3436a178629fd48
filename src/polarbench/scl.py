"""Successive-cancellation list decoding over the recursive construction.

The list state is a likelihood matrix per candidate: Pi[b, i, j] is the
(rescaled) likelihood that output position j of the current node carries
symbol b, under candidate i's conditioning. A node recursion returns, per
surviving candidate, the source candidate it extends, the decoded input
block, and the partial codeword; parents re-prepare evidence for the next
outer code conditioned on those partial codewords.

Selection happens at base nodes (one kernel block): each candidate splits
over the free values of a glue group, and the min(candidates, M) best
splits survive. Every prepared evidence matrix is rescaled by a per-column
factor common to all candidates, so comparisons between candidates are
unaffected. The final ranking re-scores each survivor against the original
channel evidence, which absorbs any frozen-group likelihood the selection
steps skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import check_likelihood_rows, likelihood_rows_binary
from .kernels import CodeSpec, Kernel, _unpack
from .llrops import LlrContradiction
from .sc import UnsupportedCodeError, conditioned_scores


@dataclass(frozen=True)
class Crc:
    """Bitwise CRC, MSB-first, no reflection, zero init."""

    width: int = 8
    poly: int = 0x07

    def compute(self, bits) -> list[int]:
        mask = (1 << self.width) - 1
        reg = 0
        for b in bits:
            fb = ((reg >> (self.width - 1)) & 1) ^ int(b)
            reg = (reg << 1) & mask
            if fb:
                reg ^= self.poly
        return [(reg >> (self.width - 1 - k)) & 1 for k in range(self.width)]

    def attach(self, data_bits) -> np.ndarray:
        data = [int(b) for b in data_bits]
        return np.array(data + self.compute(data), dtype=np.int64)

    def check(self, payload_bits) -> bool:
        p = [int(b) for b in payload_bits]
        if len(p) < self.width:
            return False
        return self.compute(p[: -self.width]) == p[-self.width :]


@dataclass
class SclResult:
    """Survivors ordered best-first by exact full-evidence log score."""

    u_list: np.ndarray  # (rho, N)
    x_list: np.ndarray  # (rho, N)
    log_scores: np.ndarray  # (rho,)
    probs: np.ndarray  # softmax of log_scores over the list
    best: int  # row index after CRC filtering (0 without CRC)
    ops: int

    @property
    def u_hat(self) -> np.ndarray:
        return self.u_list[self.best]

    @property
    def x_hat(self) -> np.ndarray:
        return self.x_list[self.best]


@dataclass
class _Ctx:
    kernel: Kernel
    m_list: int
    mask: np.ndarray
    vals: np.ndarray
    ops: int = 0


def _normalize_columns(p: np.ndarray) -> np.ndarray:
    """Divide each output column by its max over (symbol, candidate)."""
    peak = p.max(axis=(0, 1))
    if (peak <= 0.0).any():
        raise LlrContradiction("every list path is impossible at some position")
    return p / peak[None, None, :]


def _prep_outer_list(
    ctx: _Ctx, pi: np.ndarray, src: np.ndarray, xcols: np.ndarray, r: int
) -> np.ndarray:
    """Evidence for outer code r, per candidate, from the node evidence pi.

    pi: (q, n_in, Nd) where n_in covers this node's incoming candidates.
    src: current candidate -> incoming candidate. xcols: (rho, Nd/ell, r)
    partial codewords of outer codes 0..r-1, already reindexed to current
    candidates. Scores carry a 1/q prior for the prepared symbol, then get
    rescaled per column.
    """
    kernel = ctx.kernel
    q = kernel.q
    ell = kernel.ell
    rho = len(src)
    blk = pi.shape[2] // ell
    if kernel.is_arikan:
        a = pi[:, src, :]
        e, o = a[:, :, 0::2], a[:, :, 1::2]
        if r == 0:
            out = 0.5 * np.stack([e[0] * o[0] + e[1] * o[1], e[1] * o[0] + e[0] * o[1]])
        else:
            x0 = xcols[:, :, 0]
            exb = np.where(x0 == 0, e[0], e[1])  # evidence at even slot for x0 ^ b = x0
            exb1 = np.where(x0 == 0, e[1], e[0])
            out = 0.5 * np.stack([exb * o[0], exb1 * o[1]])
        ctx.ops += 4 * rho * blk
        return _normalize_columns(out)

    a = np.moveaxis(pi[:, src, :], 0, 2).reshape(rho * blk, ell, q)
    scores = conditioned_scores(kernel, a, xcols.reshape(rho * blk, r), r)
    ctx.ops += rho * blk * q ** (ell - r) * ell
    out = np.moveaxis(scores.reshape(rho, blk, q), 2, 0)
    return _normalize_columns(out / q)


def _base_node(ctx: _Ctx, pi: np.ndarray, off: int, rho: int):
    """Joint decode of one kernel block, glue group by glue group."""
    kernel = ctx.kernel
    q = kernel.q
    ell = kernel.ell
    u_blk = np.zeros((rho, ell), dtype=np.int64)
    src = np.arange(rho)
    for grp in kernel.glue:
        c, width = grp[0], len(grp)
        pins = {
            d: int(ctx.vals[off + c + d])
            for d in range(width)
            if ctx.mask[off + c + d]
        }
        cand_ts = [
            t
            for t in range(q**width)
            if all(_unpack(t, q, width)[d] == v for d, v in pins.items())
        ]
        if len(cand_ts) == 1:
            for d, sym in enumerate(_unpack(cand_ts[0], q, width)):
                u_blk[:, c + d] = sym
            continue
        rows = np.moveaxis(pi, 0, 2)  # (rho, ell, q)
        scores = conditioned_scores(kernel, rows, u_blk[:, :c], c)[:, cand_ts]
        ctx.ops += rho * len(cand_ts)
        if scores.max() <= 0.0:
            raise LlrContradiction("no surviving list path at a selection step")
        new_rho = min(rho * len(cand_ts), ctx.m_list)
        ranked = sorted(
            ((-scores[i, k], i, cand_ts[k]) for i in range(rho) for k in range(len(cand_ts))),
        )[:new_rho]
        pick_i = np.array([i for (_, i, _) in ranked])
        pick_t = [t for (_, _, t) in ranked]
        u_blk = u_blk[pick_i]
        for row, t in enumerate(pick_t):
            for d, sym in enumerate(_unpack(t, q, width)):
                u_blk[row, c + d] = sym
        pi = pi[:, pick_i, :]
        src = src[pick_i]
        rho = new_rho
    packed = u_blk @ (q ** np.arange(ell - 1, -1, -1, dtype=np.int64))
    x_blk = kernel.table[packed]
    return src, u_blk, x_blk, rho


def _rec_list(ctx: _Ctx, pi: np.ndarray, off: int, rho: int):
    kernel = ctx.kernel
    ell = kernel.ell
    nd = pi.shape[2]
    if nd == ell:
        return _base_node(ctx, pi, off, rho)
    blk = nd // ell
    src = np.arange(rho)
    xcols = np.empty((rho, blk, ell), dtype=np.int64)  # outer codeword r in [..., r]
    u_node = np.empty((rho, nd), dtype=np.int64)
    for r in range(ell):
        p_r = _prep_outer_list(ctx, pi, src, xcols[:, :, :r], r)
        s_r, u_r, x_r, rho = _rec_list(ctx, p_r, off + r * blk, rho)
        xcols = xcols[s_r]
        u_node = u_node[s_r]
        src = src[s_r]
        xcols[:, :, r] = x_r
        u_node[:, r * blk : (r + 1) * blk] = u_r
    x_node = kernel.map_columns(xcols.reshape(-1, ell)).reshape(rho, nd)
    return src, u_node, x_node, rho


def decode_scl(
    spec: CodeSpec,
    rows: np.ndarray,
    list_size: int,
    crc: Crc | None = None,
) -> SclResult:
    """List decoding from per-position likelihood rows of shape (N, q)."""
    kernel = spec.kernel
    q = kernel.q
    n = spec.n
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    rows = check_likelihood_rows(rows, n, q)
    if spec.m > 1 and any(len(g) > 1 for g in kernel.glue):
        raise UnsupportedCodeError("joint glue groups are only decoded at depth m = 1")
    peak = rows.max(axis=1)
    if (peak <= 0.0).any():
        raise LlrContradiction("evidence rules out every symbol at some position")
    rows = rows / peak[:, None]

    mask, vals = spec.frozen_arrays()
    ctx = _Ctx(kernel=kernel, m_list=list_size, mask=mask, vals=vals)
    pi0 = np.ascontiguousarray(rows.T)[:, None, :]  # (q, 1, N)
    s, u_list, x_list, rho = _rec_list(ctx, pi0, 0, 1)

    # exact full-evidence scores; selection-time rescaling cancels here
    with np.errstate(divide="ignore"):
        logrows = np.log(rows)
    log_scores = logrows[np.arange(n)[None, :], x_list].sum(axis=1)
    order = np.argsort(-log_scores, kind="stable")
    u_list, x_list, log_scores = u_list[order], x_list[order], log_scores[order]

    top = log_scores.max()
    if top == -np.inf:
        raise LlrContradiction("every surviving path has zero likelihood")
    w = np.exp(log_scores - top)
    probs = w / w.sum()

    best = 0
    if crc is not None:
        if q != 2:
            raise ValueError("CRC filtering needs a binary alphabet")
        info = spec.info_indices()
        for i in range(rho):
            if crc.check(u_list[i, info]):
                best = i
                break
    return SclResult(u_list, x_list, log_scores, probs, best, ctx.ops)


def decode_scl_arikan(
    spec: CodeSpec,
    llr: np.ndarray,
    list_size: int,
    crc: Crc | None = None,
) -> SclResult:
    if not spec.kernel.is_arikan:
        raise ValueError("decode_scl_arikan requires the (u+v, v) kernel")
    return decode_scl(spec, likelihood_rows_binary(llr), list_size, crc=crc)
