"""Successive-cancellation list decoding over the recursive construction.

The list state is a likelihood array per frame and candidate:
Pi[b, f, i, j] is the (rescaled) likelihood that output position j of the
current node carries symbol b in frame f, under candidate i's conditioning.
One frame is a batch of one, so a single frame and a whole batch walk the
same recursion. Every frame holds the same number of candidates, because
that number depends only on the frozen set and the list size. A node
recursion returns, per frame and surviving candidate, the source candidate
it extends, the decoded input block, and the partial codeword; parents
re-prepare evidence for the next outer code conditioned on those partial
codewords.

Selection happens at base nodes (one kernel block): each candidate splits
over the free values of a glue group, and the min(candidates, M) best
splits survive, ties going to the lower candidate, then the lower value.
Every prepared evidence matrix is rescaled by a per-column factor common
to all candidates of a frame, so comparisons between candidates are
unaffected. The final ranking re-scores each survivor against the original
channel evidence, which absorbs any frozen-group likelihood the selection
steps skipped.

A rate-0 node, wider than one kernel block and with every input frozen
(the code's node plan, CodeSpec.node_plan, says which), has nothing left
to choose: its walk keeps the candidates in place, and its u and x are
the frozen values and their encoding. So such a node is returned without
walking it once its evidence passes a guard, one minimum over the batch,
under which the walk provably marks no frame either (see _rec_list);
below the guard it walks, and its children check their own guards. ops
still counts the work the walk would have done, so every field of a
result, ops included, is what the full walk gives.

A candidate gather is one flat-index take: with the frame and candidate
axes merged, candidate sel[f] of frame f sits at f * n_in + sel[f]. What a
code's frozen set decides per kernel block, the values each glue group may
take there, is derived once per code (CodeSpec.cached), as is the parity
matrix that tests every survivor against a CRC in one GF(2) product.

Batch contract of decode_scl: a frame for which no list path stays
possible is marked where that is found, and its evidence is replaced by
ones from then on, so it walks on to the end without putting a NaN or a
warning into the rest of the batch; every other frame's result equals a
single-frame call on its rows. A batch, shape (B, N, q), reports the marks
in SclResult.failed. One frame, rows of shape (N, q), is a batch of one,
and decode_scl raises LlrContradiction for it once, after the walk, with
the message of the first failure found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import check_likelihood_rows
from .kernels import CodeSpec, Kernel, code_depth, encode_unchecked
from .llrops import LlrContradiction
from .sc import conditioned_scores, glue_values


@dataclass(frozen=True)
class Crc:
    """Bitwise CRC, MSB-first, no reflection, zero init."""

    width: int = 8
    poly: int = 0x07

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"Crc width must be >= 1, got {self.width}")
        if self.poly < 0:
            raise ValueError(f"Crc poly must be >= 0, got {self.poly}")

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
    """Survivors ordered best-first by exact full-evidence log score.

    Shapes are for one frame; a batch of B frames puts a leading B axis on
    u_list, x_list, log_scores, probs and best.
    """

    u_list: np.ndarray  # (rho, N)
    x_list: np.ndarray  # (rho, N)
    log_scores: np.ndarray  # (rho,)
    probs: np.ndarray  # softmax of log_scores over the list
    best: int | np.ndarray  # row index after CRC filtering (0 without CRC)
    ops: int  # per frame
    # (B,) for batch input: True where no list path stayed possible, and
    # that frame's other fields are meaningless; None for one frame
    failed: np.ndarray | None = None

    @property
    def u_hat(self) -> np.ndarray:
        return _pick(self.u_list, self.best)

    @property
    def x_hat(self) -> np.ndarray:
        return _pick(self.x_list, self.best)


def _pick(lists: np.ndarray, best) -> np.ndarray:
    """Row best of a (rho, N) list, or row best[f] of frame f of a (B, rho, N) list."""
    idx = np.asarray(best)[..., None, None]
    return np.take_along_axis(lists, idx, axis=-2)[..., 0, :]


@dataclass
class _Ctx:
    kernel: Kernel
    m_list: int
    groups: list  # sc.glue_values of the code
    failed: np.ndarray  # (B,) bool, one entry per frame of the walk
    ops: int = 0
    reason: str | None = None  # message of the first failure
    spec: CodeSpec | None = None  # the code, whose node plan marks rate-0 nodes; None walks every node
    choices: list | None = None  # _block_choices(groups), derived from groups when not given

    def __post_init__(self):
        self.choices = _block_choices(self.groups) if self.choices is None else self.choices

    def fail(self, dead: np.ndarray, msg: str) -> None:
        """Mark the frames `dead` (B,), which lost every path."""
        self.failed |= dead
        if self.reason is None:
            self.reason = msg


def _block_choices(groups: list) -> list:
    """Per kernel block, per glue group: (c, width, cand, vals), the group's
    first input and width, the values its frozen pins allow and their
    symbols, (len(cand), width). Blocks with the same pins share entries."""
    per_group = []
    for c, width, syms, allowed in groups:
        pats, inv = np.unique(allowed, axis=0, return_inverse=True)
        opts = [(c, width, np.flatnonzero(pat), syms[pat]) for pat in pats]
        per_group.append([opts[i] for i in inv.ravel()])
    return list(zip(*per_group))


def _code_tables(spec: CodeSpec, key) -> tuple[list, list]:
    """The glue groups of spec and their _block_choices, for CodeSpec.cached."""
    groups = glue_values(spec.kernel, *spec.frozen_arrays())
    return groups, _block_choices(groups)


def _dead_frames(peak: np.ndarray) -> np.ndarray | None:
    """Per frame (axis 0 of peak), whether some peak is <= 0; None where no
    frame has one, which one minimum tells in the common case."""
    if peak.min() > 0.0:
        return None
    dead = (peak <= 0.0).reshape(len(peak), -1).any(axis=1)
    return dead if dead.any() else None


def _normalize_columns(ctx: _Ctx, p: np.ndarray) -> np.ndarray:
    """Divide each output column by its max over (symbol, candidate), per frame.

    p: (q, B, rho, Nd), freshly computed: it is overwritten and returned.
    """
    peak = np.maximum.reduce(p, axis=0).max(axis=1)
    dead = _dead_frames(peak)
    if dead is not None:
        ctx.fail(dead, "every list path is impossible at some position")
        p[:, dead] = 1.0
        peak[dead] = 1.0
    return np.divide(p, peak[:, None, :], out=p)


def _gather(a: np.ndarray, sel: np.ndarray | None, axis: int = 1) -> np.ndarray:
    """The candidates sel, (B, rho), of each frame f: a[f, sel[f]] when the
    candidate axis is 1, a[:, f, sel[f]] when it is 2; None keeps them all.

    One take on the frame and candidate axes merged, at f * n_in + sel[f].
    """
    if sel is None:
        return a
    nb, n_in = len(sel), a.shape[axis]
    flat = sel + np.arange(0, nb * n_in, n_in)[:, None]
    return a.reshape(a.shape[: axis - 1] + (nb * n_in,) + a.shape[axis + 1 :]).take(flat, axis=axis - 1)


def _chain(src: np.ndarray | None, sel: np.ndarray | None) -> np.ndarray | None:
    """The candidate map src followed by the selection sel; None keeps every candidate."""
    if sel is None:
        return src
    return sel if src is None else _gather(src, sel)


# No value that a walked rate-0 subtree computes may fall below this: 10
# bits above the least normal double, which covers every rounding on the way.
_RATE0_LOW = 2.0**-1012


def _rate0_floor(kernel: Kernel, nd: int) -> float:
    """Least evidence entry at which a rate-0 node of width nd is returned
    without walking it; the bound is derived in _rec_list."""
    return (kernel.q * _RATE0_LOW) ** (kernel.ell / nd)


def _prep_ops(kernel: Kernel, rho: int, blk: int, r: int) -> int:
    """Ops counted for preparing outer code r on blk columns of rho candidates."""
    if kernel.is_arikan:
        return 4 * rho * blk
    return rho * blk * kernel.q ** (kernel.ell - r) * kernel.ell


def _uv_planes(a: np.ndarray, x0: np.ndarray | None) -> np.ndarray:
    """Scores of symbol b, (2, ...), for the (u+v, v) kernel's outer code 0
    (x0 None) or 1, from evidence a, (2, ..., 2 * blk): code 0 sums
    e[b ^ t] * o[t] over t, code 1 takes e[x0 ^ b] * o[b] at the decided x0,
    with e and o the even and odd slots. A fresh array."""
    e, o = a[..., 0::2], a[..., 1::2]
    if x0 is None:
        out = np.multiply(e, o[0])
        out += e[::-1] * o[1]
    else:
        out = np.where(x0 == 0, e, e[::-1])
        out *= o
    return out


def _prep_outer_list(
    ctx: _Ctx, pi: np.ndarray, src: np.ndarray | None, xcols: np.ndarray, r: int
) -> np.ndarray:
    """Evidence for outer code r, per frame and candidate, from the node evidence pi.

    pi: (q, B, n_in, Nd) where n_in covers this node's incoming candidates.
    src: (B, rho), current candidate -> incoming candidate, or None when
    the candidates are the incoming ones. xcols: (B, rho, Nd/ell, r)
    partial codewords of outer codes 0..r-1, already reindexed to current
    candidates. Scores carry a 1/q prior for the prepared symbol, then get
    rescaled per column.
    """
    kernel = ctx.kernel
    q, ell = kernel.q, kernel.ell
    a = _gather(pi, src, axis=2)
    nb, rho, blk = a.shape[1], a.shape[2], a.shape[3] // ell
    ctx.ops += _prep_ops(kernel, rho, blk, r)
    if kernel.is_arikan:
        out = _uv_planes(a, None if r == 0 else xcols[..., 0])
        return _normalize_columns(ctx, np.multiply(out, 0.5, out=out))

    # every (frame, candidate, column) is one kernel instance
    a = a.transpose(1, 2, 3, 0).reshape(nb * rho * blk, ell, q)
    scores = conditioned_scores(kernel, a, xcols.reshape(nb * rho * blk, r), r)
    out = scores.reshape(nb, rho, blk, q).transpose(3, 0, 1, 2)
    return _normalize_columns(ctx, out / q)


def _base_node(ctx: _Ctx, pi: np.ndarray, off: int, rho: int):
    """Joint decode of one kernel block per frame, glue group by glue group."""
    kernel = ctx.kernel
    q, ell = kernel.q, kernel.ell
    nb = pi.shape[1]
    u_blk = np.zeros((nb, rho, ell), dtype=np.int64)
    src = None
    for c, width, cand, vals in ctx.choices[off // ell]:
        if len(cand) == 1:
            u_blk[..., c : c + width] = vals[0]
            continue
        a = _gather(pi, src, axis=2)
        # per frame, candidates flattened in (i, ascending t) order: a stable
        # sort keeps that order among equal scores
        if kernel.is_arikan:
            # both values are allowed; conditioned_scores' sums in closed form,
            # P0(u0 ^ t) * P1(t) summed over u0 for group 0 and taken at the
            # decided u0 for group 1, the same products added in the same order
            planes = _uv_planes(a, None if c == 0 else u_blk[..., :1])
            scores = planes.transpose(1, 2, 3, 0).reshape(nb, 2 * rho)
        else:
            rows = a.transpose(1, 2, 3, 0).reshape(nb * rho, ell, q)
            scores = conditioned_scores(kernel, rows, u_blk[..., :c].reshape(nb * rho, c), c)
            scores = scores[:, cand].reshape(nb, rho * len(cand))
        ctx.ops += rho * len(cand)
        dead = _dead_frames(scores.max(axis=1))
        if dead is not None:
            ctx.fail(dead, "no surviving list path at a selection step")
            scores[dead] = 1.0
        rho = min(rho * len(cand), ctx.m_list)
        pick_i, pick_k = np.divmod(np.argsort(-scores, axis=1, kind="stable")[:, :rho], len(cand))
        u_blk = _gather(u_blk, pick_i)
        u_blk[..., c : c + width] = vals[pick_k]
        src = _chain(src, pick_i)
    return src, u_blk, kernel.map_columns(u_blk), rho


def _rec_list(ctx: _Ctx, pi: np.ndarray, off: int, rho: int):
    """Decode the node at `off` from its evidence pi, (q, B, rho, Nd).

    Returns src, (B, rho') surviving candidate -> incoming candidate (None
    when every incoming candidate survives in place), the decoded inputs
    and the node codeword, each (B, rho', Nd), and rho'.
    """
    kernel = ctx.kernel
    ell = kernel.ell
    nb, nd = pi.shape[1], pi.shape[3]
    if nd == ell:
        return _base_node(ctx, pi, off, rho)
    blk = nd // ell
    all_frozen = ctx.spec is not None and ctx.spec.node_plan(nd)[0][off // nd] == nd
    if all_frozen and pi.min() >= _rate0_floor(kernel, nd):
        # A rate-0 node without its walk. Below it every base node has one
        # allowed value per glue group, so the walk selects and counts
        # nothing there: it returns src None, u = vals, x = their encoding
        # and rho unchanged.
        # The one other thing it could do is mark a frame whose prepared
        # column has peak 0, and the guard rules that out. Evidence entries
        # are <= 1 (normalized), and say >= t. A prep sums q**(ell-r-1)
        # products of ell entries, times 1/q: so its raw values lie in
        # [q**(ell-r-2) t**ell, q**(ell-r-2)], and after dividing by the
        # column peak in [t**ell, 1]. Depth k below this node the evidence is
        # then >= t**(ell**k), and the least value the walk computes is a
        # raw prep output at width ell**2, >= t**(nd/ell) / q (partial
        # products and sums are larger). With t >= _rate0_floor that is
        # >= _RATE0_LOW: normal, > 0, with margin for rounding. So nothing
        # dies; ops gets what the node's log_ell(nd) - 1 inner levels count,
        # each preparing nd/ell columns per outer code.
        ctx.ops += (code_depth(nd, ell) - 1) * sum(_prep_ops(kernel, rho, blk, r) for r in range(ell))
        vals = ctx.spec.frozen_arrays()[1][off : off + nd]
        shape, x = (nb, rho, nd), encode_unchecked(kernel, vals)
        return None, np.broadcast_to(vals, shape), np.broadcast_to(x, shape), rho
    src = None
    xcols = np.empty((nb, rho, blk, 0), dtype=np.int64)  # none yet; outer codeword r goes to [..., r]
    for r in range(ell):
        p_r = _prep_outer_list(ctx, pi, src, xcols[..., :r], r)
        s_r, u_r, x_r, rho = _rec_list(ctx, p_r, off + r * blk, rho)
        if r == 0:  # nothing decoded yet to carry over to the survivors
            xcols = np.empty((nb, rho, blk, ell), dtype=np.int64)
            u_node = np.empty((nb, rho, nd), dtype=np.int64)
        else:
            xcols, u_node = _gather(xcols, s_r), _gather(u_node, s_r)
        src = _chain(src, s_r)
        xcols[..., r] = x_r
        u_node[..., r * blk : (r + 1) * blk] = u_r
    x_node = kernel.map_columns(xcols.reshape(-1, ell)).reshape(nb, rho, nd)
    return src, u_node, x_node, rho


def _crc_parity(spec: CodeSpec, crc: Crc) -> np.ndarray:
    """(K, W) parity matrix H of crc on the K >= W information bits of
    spec, for CodeSpec.cached: bits pass crc.check exactly when bits @ H is
    0 mod 2. A zero-init CRC is linear, so H stacks the CRC of each unit
    data vector over the identity of the W check bits. float64 holds every
    such count exactly, so that the product runs in BLAS."""
    units = np.eye(spec.k_info - crc.width, dtype=np.int8)
    return np.array([crc.compute(e) for e in units] + np.eye(crc.width).tolist(), dtype=np.float64)


def _crc_best(spec: CodeSpec, crc: Crc, u_list: np.ndarray) -> np.ndarray:
    """Per frame, the first row of u_list, (B, rho, N), whose information
    bits pass crc, or 0 where none does (always when K < W)."""
    if spec.k_info < crc.width:
        return np.zeros(len(u_list), dtype=np.int64)
    bits = u_list[..., spec.info_indices()].astype(np.float64)
    passed = ~((bits @ spec.cached(crc, _crc_parity)) % 2).any(axis=2)
    return passed.argmax(axis=1)


def decode_scl(
    spec: CodeSpec,
    rows: np.ndarray,
    list_size: int,
    crc: Crc | None = None,
) -> SclResult:
    """List decoding from likelihood rows of shape (N, q), or (B, N, q) for B frames.

    Outputs take the shape of the input (see SclResult); ops counts the
    work of one frame. Rows must be finite and nonnegative (a ValueError
    names the first bad position). Evidence that leaves no list path
    possible is marked in SclResult.failed for a batch and raises
    LlrContradiction for one frame (see the module docstring).
    """
    kernel = spec.kernel
    q = kernel.q
    n = spec.n
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    if crc is not None and q != 2:
        raise ValueError("CRC filtering needs a binary alphabet")
    rows = check_likelihood_rows(rows, n, q)
    single = rows.ndim == 2
    if single:
        rows = rows[None]
    nb = len(rows)

    groups, choices = spec.cached("scl_choices", _code_tables)
    ctx = _Ctx(kernel, list_size, groups, np.zeros(nb, dtype=bool), spec=spec, choices=choices)
    peak = rows.max(axis=2)
    dead = _dead_frames(peak)
    if dead is not None:
        ctx.fail(dead, "evidence rules out every symbol at some position")
        rows = np.where(dead[:, None, None], 1.0, rows)
        peak[dead] = 1.0
    rows = rows / peak[:, :, None]

    pi0 = np.ascontiguousarray(np.moveaxis(rows, 2, 0))[:, :, None, :]  # (q, B, 1, N)
    _, u_list, x_list, _ = _rec_list(ctx, pi0, 0, 1)

    # exact full-evidence scores; selection-time rescaling cancels here
    with np.errstate(divide="ignore"):
        logrows = np.log(rows).reshape(nb, 1, n * q)
    log_scores = np.take_along_axis(logrows, x_list + q * np.arange(n), axis=2).sum(axis=2)
    order = np.argsort(-log_scores, axis=1, kind="stable")
    u_list, x_list, log_scores = (_gather(a, order) for a in (u_list, x_list, log_scores))

    top = log_scores.max(axis=1)
    dead = top == -np.inf
    if dead.any():
        ctx.fail(dead, "every surviving path has zero likelihood")
        top[dead] = 0.0
    w = np.exp(log_scores - top[:, None])
    w[dead] = 1.0
    probs = w / w.sum(axis=1, keepdims=True)

    best = np.zeros(nb, dtype=np.int64) if crc is None else _crc_best(spec, crc, u_list)
    if single:
        if ctx.failed[0]:
            raise LlrContradiction(ctx.reason)
        return SclResult(u_list[0], x_list[0], log_scores[0], probs[0], int(best[0]), ctx.ops)
    return SclResult(u_list, x_list, log_scores, probs, best, ctx.ops, ctx.failed)

