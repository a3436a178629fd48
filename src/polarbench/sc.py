"""Successive-cancellation decoding over the recursive construction.

Two entry points: decode_sc_arikan walks the binary (u+v, v) recursion on
scalar LLRs; decode_sc_general works for any kernel, carrying
per-position likelihood rows of shape (N, q) and marginalizing undecided
kernel inputs exactly. Each takes one frame or a batch of frames through
the same recursion. Both support a genie mode (feed back true inputs,
record which decisions would have been wrong) used by Monte-Carlo code
construction.

Batch contract of both: one frame, LLRs of shape (N,) or rows of shape
(N, q), raises LlrContradiction when its evidence contradicts itself; a
batch, shape (B, N) or (B, N, q), never raises for that but marks the
frame in the result's failed array, and every other frame's result
equals a single-frame call on its row.

decode_sc_arikan is also the recursion of the hardware SC models: an
optional schedule hook sees every step the walk takes, in order,

  hook.f(off, width, (even, odd), out)      STEP I of the node at `off`
  hook.g(off, width, (even, odd), out, x0)  STEP III, x0 the re-encoded
                                            left half it used
  hook.leaf(off, u)                         the decision for input `off`

where width is the node's length and every array keeps the batch axis
(a frozen decision has shape (1,) and broadcasts over the batch).
The hook counts cycles and resources and may raise to abort the decode;
it never changes a value. decode_sc_general is in the same way the
recursion of the general-kernel line model, through the hook described in
its docstring; that hook observes one frame.

A decode_sc_arikan walk that nothing observes (no hook, trace or genie)
skips STEP I of a width-2 node whose left input is frozen: that leaf
ignores its LLR, and f never fails a frame, so every output is the same
(the simplest rate-0 case of simplified SC). Observed walks take every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import check_likelihood_rows, check_llr
from .kernels import CodeSpec, Kernel, _words
from .llrops import LlrContradiction, f_equal_vec, f_plus_vec


class UnsupportedCodeError(NotImplementedError):
    pass


@dataclass
class ScResult:
    u_hat: np.ndarray
    x_hat: np.ndarray
    decision_llrs: np.ndarray | None = None
    genie_errors: np.ndarray | None = None
    # (B,) for batch input: True where the frame's evidence contradicted
    # itself, and that row's other fields are meaningless; None for (N,)
    failed: np.ndarray | None = None


@dataclass
class ScGeneralResult:
    u_hat: np.ndarray
    x_hat: np.ndarray
    # (input index, group width, LLR vector) per decision, in decode order
    decisions: list | None = None
    genie_errors: np.ndarray | None = None
    # (B,) for batch input: True where the frame's evidence ruled out
    # every value somewhere, and that row's other fields are meaningless;
    # None for (N, q)
    failed: np.ndarray | None = None


# binary Arikan path ---------------------------------------------------------


def decode_sc_arikan(
    spec: CodeSpec,
    llr: np.ndarray,
    min_sum: bool = False,
    trace: bool = False,
    genie_u: np.ndarray | None = None,
    *,
    hook=None,
) -> ScResult:
    """SC decoding of one frame, shape (N,), or of a batch, shape (B, N).

    The recursion runs over the last axis, so every frame of a batch goes
    through the same tree walk and each frame's decisions equal those of a
    single-frame call on that row. Outputs take the shape of the input:
    u_hat and x_hat (int64), decision_llrs when trace is set (float64) and
    genie_errors when genie_u (same shape as llr) is given (bool).

    A frame whose +-inf evidence contradicts itself or its frozen values
    raises LlrContradiction when given alone, shape (N,). In a batch the
    call goes on: failed, a (B,) bool array, marks each such frame, whose
    u_hat, x_hat, decision_llrs and genie_errors rows are then meaningless.

    hook, if given, is told of every activation and decision (see the
    module docstring).
    """
    if not spec.kernel.is_arikan:
        raise ValueError("decode_sc_arikan requires the (u+v, v) kernel")
    n = spec.n
    lam = check_llr(llr, n)
    if genie_u is not None:
        genie_u = np.asarray(genie_u, dtype=np.int64)
        if genie_u.shape != lam.shape:
            raise ValueError("genie_u must have the shape of llr")
    mask, vals = spec.frozen_arrays()
    u_hat = np.empty(lam.shape, dtype=np.int64)
    dllr = np.zeros(lam.shape) if trace else None
    errs = np.zeros(lam.shape, dtype=bool) if genie_u is not None else None
    failed = np.zeros(lam.shape[0], dtype=bool) if lam.ndim == 2 else None
    quiet = hook is None and not trace and genie_u is None

    def rec(lam_d: np.ndarray, off: int) -> np.ndarray:
        # returns the re-encoded codeword of this node; decisions go to u_hat
        if lam_d.shape[-1] == 1:
            # hard decision ~(L >= 0), not L < 0: NaN decides 1, as decide() does
            at = slice(off, off + 1)
            if trace:
                dllr[..., at] = lam_d
            if genie_u is not None:
                u = genie_u[..., at]
                errs[..., at] = ~(lam_d >= 0) != u
            elif mask[off]:
                u = vals[at]  # shape (1,) broadcasts over the batch
            else:
                u = ~(lam_d >= 0)
            u_hat[..., at] = u
            if hook is not None:
                hook.leaf(off, u)
            return u
        width = lam_d.shape[-1]
        even = lam_d[..., 0::2]
        odd = lam_d[..., 1::2]
        if quiet and width == 2 and mask[off]:
            # f would only feed a frozen leaf, which ignores its LLR
            x0 = vals[off : off + 1]
            u_hat[..., off : off + 1] = x0
        else:
            l1 = f_plus_vec(even, odd, min_sum=min_sum)
            if hook is not None:
                hook.f(off, width, (even, odd), l1)
            x0 = rec(l1, off)
        l2 = f_equal_vec(np.where(x0 == 1, -even, even), odd, failed)
        if hook is not None:
            hook.g(off, width, (even, odd), l2, x0)
        x1 = rec(l2, off + width // 2)
        x = np.empty(lam_d.shape, dtype=np.int64)
        x[..., 0::2] = x0 ^ x1
        x[..., 1::2] = x1
        return x

    try:
        x_hat = rec(lam, 0)
    finally:
        # rec refers to itself; dropping it frees its arrays and the hook
        # now rather than at some later cycle collection
        del rec
    return ScResult(u_hat, x_hat, dllr, errs, failed)


# general-kernel path --------------------------------------------------------


def scores_to_llr(scores: np.ndarray) -> np.ndarray:
    """Likelihood totals -> decision LLR vector L[t] = ln(S_0 / S_t).

    Zero-likelihood conventions: S_t = 0 gives +inf (value t impossible),
    S_0 = 0 with S_t > 0 gives -inf. All-zero scores are a contradiction.
    Where the ratio over- or underflows, ln S_0 - ln S_t keeps the LLR
    finite; everywhere else the ratio form is used, which rounds the same
    way near ties whatever the scale of the scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.max() <= 0.0:
        raise LlrContradiction("no candidate value has positive likelihood")
    out = np.zeros(len(s), dtype=np.float64)
    s0 = float(s[0])
    for t in range(1, len(s)):
        st = float(s[t])
        if st == 0.0:
            out[t] = np.inf
        elif s0 == 0.0:
            out[t] = -np.inf
        else:
            ratio = s0 / st  # a Python float: overflow gives inf, not a warning
            if 0.0 < ratio < np.inf:
                out[t] = np.log(ratio)
            else:
                out[t] = np.log(s0) - np.log(st)
    return out


def conditioned_scores(kernel: Kernel, w: np.ndarray, prefix: np.ndarray, boundary: int) -> np.ndarray:
    """Total likelihood of each value of the glue group at `boundary`, per instance.

    w: (M, ell, q) likelihood rows of M kernel instances; prefix: (M, boundary)
    inputs decided before the group. Returns shape (M, q**width). The
    suffix is summed in index order, so an instance's totals do not depend
    on which other instances share the call.
    """
    q, ell = kernel.q, kernel.ell
    radix = q ** np.arange(boundary - 1, -1, -1, dtype=np.int64)
    tab = kernel.marginal_view(boundary)[prefix @ radix]  # (M, q**width, q**n_suffix, ell)
    # flat position of w[i, j, tab[i, t, s, j]]; tab is a new array, so in place
    tab += q * np.arange(ell) + (q * ell * np.arange(len(w)))[:, None, None, None]
    return np.take(w, tab).prod(axis=3).cumsum(axis=2)[..., -1]


def glue_values(kernel: Kernel, mask: np.ndarray, vals: np.ndarray) -> list:
    """Per glue group, in order: its first input c, its width w, the
    (q**w, w) symbols of each group value t, and the (N/ell, q**w) table of
    the values its frozen pins allow in each kernel block, from a code's
    frozen mask and values over N inputs."""
    q, ell = kernel.q, kernel.ell
    out = []
    for grp in kernel.glue:
        c, w = grp[0], len(grp)
        syms = _words(q, w)
        pins = mask.reshape(-1, ell)[:, None, c : c + w]
        pinned = vals.reshape(-1, ell)[:, None, c : c + w]
        out.append((c, w, syms, ((syms == pinned) | ~pins).all(axis=2)))
    return out


def _prep_outer(kernel: Kernel, w_blk: np.ndarray, decided: np.ndarray, r: int, failed=None) -> np.ndarray:
    """Evidence rows for outer code r given decided outer codewords 0..r-1.

    w_blk: (ncol, ell, q) likelihood rows grouped by kernel instance.
    decided: (ncol, r) symbols already fixed on each instance's inputs.
    An instance whose evidence rules out every symbol raises
    LlrContradiction. With a (B,) bool array `failed`, the instances being
    B frames' worth in frame order, it marks its frame there instead and
    its rows become ones.
    """
    out = conditioned_scores(kernel, w_blk, decided, r)
    peak = out.max(axis=1)
    dead = peak <= 0.0
    if dead.any():
        if failed is None:
            raise LlrContradiction("evidence rules out every symbol at some position")
        failed |= dead.reshape(len(failed), -1).any(axis=1)
        out[dead] = peak[dead] = 1.0
    return out / peak[:, None]


def decode_sc_general(
    spec: CodeSpec,
    rows: np.ndarray,
    trace: bool = False,
    genie_u: np.ndarray | None = None,
    *,
    hook=None,
) -> ScGeneralResult:
    """SC decoding of one frame, rows of shape (N, q), or of a batch, (B, N, q).

    Rows must be finite and nonnegative (a ValueError names the first bad
    position). The recursion runs over every frame of a batch at once, and
    each frame's decisions equal those of a single-frame call on its rows.
    Outputs take the shape of the frames: u_hat and x_hat, and
    genie_errors when genie_u (shape (N,) or (B, N)) is given.

    Evidence that rules out every value raises LlrContradiction for one
    frame. In a batch the call goes on: failed, a (B,) bool array, marks
    each such frame, whose other rows are then meaningless.

    trace (the decision list) and hook observe one frame only; with a
    batch either is a ValueError. hook, if given, is told of every step of
    the walk, in order:

      hook.prep(off, width, r, w_r)  stage r of the node at `off` prepared
                                     w_r, the (width/ell, q) evidence rows
                                     of its outer code r
      hook.decide(i, u, llr)         the glue group starting at input i
                                     decided as the symbols u, from the
                                     decision LLR vector llr
      hook.node(off, x)              the node at `off` re-encoded its
                                     decisions as the codeword x

    It counts cycles and may raise to abort the decode; it never changes
    a value.
    """
    kernel = spec.kernel
    q, ell, n = kernel.q, kernel.ell, spec.n
    rows = check_likelihood_rows(rows, n, q, batch=True)
    frames = rows.shape[:-1]  # (N,) for one frame, (B, N) for a batch
    if len(frames) == 2 and (trace or hook is not None):
        raise ValueError("trace and hook observe one frame; give rows of shape (N, q)")
    if genie_u is not None:
        genie_u = np.asarray(genie_u, dtype=np.int64)
        if genie_u.shape != frames:
            raise ValueError("genie_u must have the shape of the frames")
        genie_u = genie_u.reshape(-1, n)
    if spec.m > 1 and any(len(g) > 1 for g in kernel.glue):
        raise UnsupportedCodeError("joint glue groups are only decoded at depth m = 1")
    # Scale each row by a power of two so that its peak lies in [1, 2).
    # That is exact: products and ratios keep every bit unless they would
    # have over- or underflowed, and huge finite rows no longer overflow
    # to inf and report false certainty. All-zero rows are left as they are.
    peak = rows.max(axis=-1)
    rows = np.ldexp(rows, np.where(peak > 0.0, 1 - np.frexp(peak)[1], 0)[..., None]).reshape(-1, n, q)
    nb = len(rows)

    mask, vals = spec.frozen_arrays()
    groups = glue_values(kernel, mask, vals)
    failed = None if len(frames) == 1 else np.zeros(nb, dtype=bool)
    decisions = [] if trace else None
    errs = np.zeros((nb, n), dtype=bool) if genie_u is not None else None
    u_hat = np.empty((nb, n), dtype=np.int64)
    every = np.arange(nb)
    radix = q ** np.arange(ell - 1, -1, -1, dtype=np.int64)
    # flat position in one instance's (ell, q) rows of output j's symbol
    out_pos = kernel.table + q * np.arange(ell)

    def base_block(w_blk: np.ndarray, off: int) -> np.ndarray:
        # likelihood of every kernel input word, per frame; input 0 is the
        # most significant digit, so the words left once a glue group is
        # decided are one contiguous run, and the next group's totals are a
        # pairwise sum over each of its suffix rows
        rest = np.take(w_blk.reshape(nb, ell * q), out_pos, axis=1).prod(axis=2)
        for c, width, syms, allowed in groups:
            at = slice(off + c, off + c + width)
            rest = rest.reshape(nb, q**width, -1)
            scores = rest.sum(axis=2)
            peak = scores.max(axis=1)
            if not peak.all():  # scores are nonnegative: some frame's are all zero
                if failed is None:
                    raise LlrContradiction("no candidate value has positive likelihood")
                failed[peak == 0.0] = True
            if genie_u is not None:
                errs[:, at] = syms[scores.argmax(axis=1)] != genie_u[:, at]
                t = genie_u[:, at] @ radix[ell - width :]
            else:
                # the most likely value that honours the group's frozen pins
                t = np.where(allowed[off // ell], scores, -1.0).argmax(axis=1)
            u_hat[:, at] = syms[t]
            rest = rest[every, t]
            if trace or hook is not None:
                llr_vec = scores_to_llr(scores[0])  # one frame
            if trace:
                decisions.append((off + c, width, llr_vec))
            if hook is not None:
                hook.decide(off + c, u_hat[0, at], llr_vec)
        return kernel.table[u_hat[:, off : off + ell] @ radix]

    def rec(w_d: np.ndarray, off: int) -> np.ndarray:
        # w_d: (nb, nd, q); returns the re-encoded (nb, nd) codewords of
        # this node; decisions go to u_hat
        nd = w_d.shape[1]
        if nd == ell:
            x = base_block(w_d, off)
        else:
            blk = nd // ell
            w_blk = w_d.reshape(nb * blk, ell, q)
            cols = np.empty((nb * blk, ell), dtype=np.int64)  # outer codeword r in column r
            for r in range(ell):
                w_r = _prep_outer(kernel, w_blk, cols[:, :r], r, failed)
                if hook is not None:
                    hook.prep(off, nd, r, w_r)
                cols[:, r] = rec(w_r.reshape(nb, blk, q), off + r * blk).reshape(-1)
            x = kernel.map_columns(cols).reshape(nb, nd)
        if hook is not None:
            hook.node(off, x[0])
        return x

    try:
        x_hat = rec(rows, 0)
    finally:
        # rec refers to itself; dropping it frees its arrays and the hook
        # now rather than at some later cycle collection
        del rec
    errs = None if errs is None else errs.reshape(frames)
    return ScGeneralResult(u_hat.reshape(frames), x_hat.reshape(frames), decisions, errs, failed)
