"""Successive-cancellation decoding over the recursive construction.

Two entry points: decode_sc_arikan walks the binary (u+v, v) recursion on
scalar LLRs, for one frame or a batch of frames at once; decode_sc_general
works for any kernel, carrying per-position likelihood rows of shape (N, q)
and marginalizing undecided kernel inputs exactly. Both support a genie
mode (feed back true inputs, record which decisions would have been wrong)
used by Monte-Carlo code construction.

decode_sc_arikan is also the recursion of the hardware SC models: an
optional schedule hook sees every step the walk takes, in order,

  hook.f(off, width, (even, odd), out)      STEP I of the node at `off`
  hook.g(off, width, (even, odd), out, x0)  STEP III, x0 the re-encoded
                                            left half it used
  hook.leaf(off, u)                         the decision for input `off`

where width is the node's length and every array keeps the batch axis
(a frozen decision has shape (1,) and broadcasts over the batch).
The hook counts cycles and resources and may raise to abort the decode;
it never changes a value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import CodeSpec, Kernel, _pack, _unpack
from .llrops import LlrContradiction, f_equal_vec, f_plus_vec


class UnsupportedCodeError(NotImplementedError):
    pass


@dataclass
class ScResult:
    u_hat: np.ndarray
    x_hat: np.ndarray
    decision_llrs: np.ndarray | None = None
    genie_errors: np.ndarray | None = None


@dataclass
class ScGeneralResult:
    u_hat: np.ndarray
    x_hat: np.ndarray
    # (input index, group width, LLR vector) per decision, in decode order
    decisions: list | None = None
    genie_errors: np.ndarray | None = None


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
    raises LlrContradiction; in a batch, one such frame raises for the
    whole call and no result is returned for the others.

    hook, if given, is told of every activation and decision (see the
    module docstring).
    """
    if not spec.kernel.is_arikan:
        raise ValueError("decode_sc_arikan requires the (u+v, v) kernel")
    n = spec.n
    lam = np.asarray(llr, dtype=np.float64)
    if lam.ndim not in (1, 2) or lam.shape[-1] != n or lam.size == 0:
        raise ValueError(f"llr must have shape ({n},) or (B, {n}) with B >= 1")
    if genie_u is not None:
        genie_u = np.asarray(genie_u, dtype=np.int64)
        if genie_u.shape != lam.shape:
            raise ValueError("genie_u must have the shape of llr")
    mask, vals = spec.frozen_arrays()
    u_hat = np.empty(lam.shape, dtype=np.int64)
    dllr = np.zeros(lam.shape) if trace else None
    errs = np.zeros(lam.shape, dtype=bool) if genie_u is not None else None

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
        l1 = f_plus_vec(even, odd, min_sum=min_sum)
        if hook is not None:
            hook.f(off, width, (even, odd), l1)
        x0 = rec(l1, off)
        l2 = f_equal_vec(np.where(x0 == 1, -even, even), odd)
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
    return ScResult(u_hat, x_hat, dllr, errs)


# general-kernel path --------------------------------------------------------


def scores_to_llr(scores: np.ndarray) -> np.ndarray:
    """Likelihood totals -> decision LLR vector L[t] = ln(S_0 / S_t).

    Zero-likelihood conventions: S_t = 0 gives +inf (value t impossible),
    S_0 = 0 with S_t > 0 gives -inf. All-zero scores are a contradiction.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.max() <= 0.0:
        raise LlrContradiction("no candidate value has positive likelihood")
    out = np.zeros(len(s), dtype=np.float64)
    s0 = s[0]
    for t in range(1, len(s)):
        if s[t] == 0.0:
            out[t] = np.inf
        elif s0 == 0.0:
            out[t] = -np.inf
        else:
            out[t] = np.log(s0 / s[t])
    return out


def kernel_marginal_scores(
    kernel: Kernel, rows_block: np.ndarray, boundary: int, prefix: tuple[int, ...]
) -> np.ndarray:
    """Total likelihood of each value of the glue group at `boundary`.

    rows_block holds the ell per-output likelihood rows of one kernel
    instance. Inputs before the boundary are pinned to `prefix`; inputs
    after the group are summed out.
    """
    tab = kernel.marginal_table(boundary, tuple(int(v) for v in prefix))
    jidx = np.arange(kernel.ell)[None, None, :]
    terms = rows_block[jidx, tab]  # (cand, n_suffix, ell)
    return terms.prod(axis=2).sum(axis=1)


def _prep_outer(kernel: Kernel, w_blk: np.ndarray, decided: np.ndarray, r: int) -> np.ndarray:
    """Evidence rows for outer code r given decided outer codewords 0..r-1.

    w_blk: (ncol, ell, q) likelihood rows grouped by kernel instance.
    decided: (ncol, r) symbols already fixed on each instance's inputs.
    """
    ncol = w_blk.shape[0]
    q = kernel.q
    jidx = np.arange(kernel.ell)[None, None, :]
    out = np.empty((ncol, q), dtype=np.float64)
    if r == 0:
        tab = kernel.marginal_table(0, ())
        terms = w_blk[:, jidx, tab]  # (ncol, cand, n_suffix, ell)
        out[:] = terms.prod(axis=3).sum(axis=2)
    else:
        uniq, inv = np.unique(decided, axis=0, return_inverse=True)
        for g in range(len(uniq)):
            sel = inv == g
            tab = kernel.marginal_table(r, tuple(int(v) for v in uniq[g]))
            terms = w_blk[sel][:, jidx, tab]
            out[sel] = terms.prod(axis=3).sum(axis=2)
    peak = out.max(axis=1)
    if (peak <= 0.0).any():
        raise LlrContradiction("evidence rules out every symbol at some position")
    return out / peak[:, None]


def decode_sc_general(
    spec: CodeSpec,
    rows: np.ndarray,
    trace: bool = False,
    genie_u: np.ndarray | None = None,
) -> ScGeneralResult:
    kernel = spec.kernel
    q = kernel.q
    n = spec.n
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape != (n, q):
        raise ValueError(f"rows must have shape ({n}, {q})")
    if (rows < 0).any():
        raise ValueError("likelihoods must be nonnegative")
    if spec.m > 1 and any(len(g) > 1 for g in kernel.glue):
        raise UnsupportedCodeError("joint glue groups are only decoded at depth m = 1")

    mask, vals = spec.frozen_arrays()
    decisions = [] if trace else None
    errs = np.zeros(n, dtype=bool) if genie_u is not None else None

    def base_block(w_rows: np.ndarray, off: int):
        u = np.zeros(kernel.ell, dtype=np.int64)
        for grp in kernel.glue:
            c, width = grp[0], len(grp)
            prefix = tuple(int(v) for v in u[:c])
            scores = kernel_marginal_scores(kernel, w_rows, c, prefix)
            llr_vec = scores_to_llr(scores)  # raises if nothing is possible
            if trace:
                decisions.append((off + c, width, llr_vec))
            if genie_u is not None:
                hat = _unpack(int(np.argmax(scores)), q, width)
                for d in range(width):
                    truth = int(genie_u[off + c + d])
                    errs[off + c + d] = hat[d] != truth
                    u[c + d] = truth
            else:
                best_t = -1
                best_s = -1.0
                for t in range(q**width):
                    cand = _unpack(t, q, width)
                    ok = all(
                        not mask[off + c + d] or cand[d] == vals[off + c + d]
                        for d in range(width)
                    )
                    if ok and scores[t] > best_s:
                        best_t, best_s = t, float(scores[t])
                for d, sym in enumerate(_unpack(best_t, q, width)):
                    u[c + d] = sym
        x = kernel.table[_pack(u, q)].copy()
        return u, x

    def rec(w_d: np.ndarray, off: int):
        nd = w_d.shape[0]
        if nd == kernel.ell:
            return base_block(w_d, off)
        blk = nd // kernel.ell
        w_blk = w_d.reshape(blk, kernel.ell, q)
        decided = np.empty((blk, 0), dtype=np.int64)
        u_parts = []
        x_parts = []
        for r in range(kernel.ell):
            w_r = _prep_outer(kernel, w_blk, decided, r)
            u_r, x_r = rec(w_r, off + r * blk)
            u_parts.append(u_r)
            x_parts.append(x_r)
            decided = np.concatenate([decided, x_r[:, None]], axis=1)
        cols = np.stack(x_parts, axis=1)
        x = kernel.map_columns(cols).reshape(-1)
        return np.concatenate(u_parts), x

    u_hat, x_hat = rec(rows, 0)
    return ScGeneralResult(u_hat, x_hat, decisions, errs)
