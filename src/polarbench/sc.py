"""Successive-cancellation decoding over the recursive construction.

Two entry points: decode_sc_arikan walks the binary (u+v, v) recursion on
scalar LLRs, for one frame or a batch of frames at once; decode_sc_general
works for any kernel, carrying per-position likelihood rows of shape (N, q)
and marginalizing undecided kernel inputs exactly. Both support a genie
mode (feed back true inputs, record which decisions would have been wrong)
used by Monte-Carlo code construction.

Batch contract of decode_sc_arikan: one frame, shape (N,), raises
LlrContradiction when its +-inf evidence contradicts itself; a batch,
shape (B, N), never raises for that but marks the frame in
ScResult.failed, and every other frame's result equals a single-frame
call on its row.

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
its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import check_likelihood_rows
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
    failed = np.zeros(lam.shape[0], dtype=bool) if lam.ndim == 2 else None

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
    # flat position of w[i, j, tab[i, t, s, j]]
    tab = tab + q * np.arange(ell) + (q * ell * np.arange(len(w)))[:, None, None, None]
    return np.take(w, tab).prod(axis=3).cumsum(axis=2)[..., -1]


def _prep_outer(kernel: Kernel, w_blk: np.ndarray, decided: np.ndarray, r: int) -> np.ndarray:
    """Evidence rows for outer code r given decided outer codewords 0..r-1.

    w_blk: (ncol, ell, q) likelihood rows grouped by kernel instance.
    decided: (ncol, r) symbols already fixed on each instance's inputs.
    """
    out = conditioned_scores(kernel, w_blk, decided, r)
    peak = out.max(axis=1)
    if (peak <= 0.0).any():
        raise LlrContradiction("evidence rules out every symbol at some position")
    return out / peak[:, None]


def decode_sc_general(
    spec: CodeSpec,
    rows: np.ndarray,
    trace: bool = False,
    genie_u: np.ndarray | None = None,
    *,
    hook=None,
) -> ScGeneralResult:
    """SC decoding of one frame from likelihood rows of shape (N, q).

    Rows must be finite and nonnegative (a ValueError names the first bad
    position). Evidence that rules out every value raises LlrContradiction.

    hook, if given, is told of every step of the walk, in order:

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
    q = kernel.q
    ell = kernel.ell
    n = spec.n
    rows = check_likelihood_rows(rows, n, q)
    # Scale each row by a power of two so that its peak lies in [1, 2).
    # That is exact: products and ratios keep every bit unless they would
    # have over- or underflowed, and huge finite rows no longer overflow
    # to inf and report false certainty. All-zero rows are left as they are.
    peak = rows.max(axis=1)
    rows = np.ldexp(rows, np.where(peak > 0.0, 1 - np.frexp(peak)[1], 0)[:, None])
    if spec.m > 1 and any(len(g) > 1 for g in kernel.glue):
        raise UnsupportedCodeError("joint glue groups are only decoded at depth m = 1")

    mask, vals = spec.frozen_arrays()
    decisions = [] if trace else None
    errs = np.zeros(n, dtype=bool) if genie_u is not None else None
    u_hat = np.empty(n, dtype=np.int64)

    # flat position in one instance's (ell, q) rows of output j's symbol
    out_pos = kernel.table + q * np.arange(ell)

    def base_block(w_rows: np.ndarray, off: int) -> np.ndarray:
        u = u_hat[off : off + ell]
        # likelihood of every kernel input word; input 0 is the most
        # significant digit, so a glue group's totals given the decided
        # prefix are a pairwise sum over one contiguous suffix row
        joint = np.take(w_rows, out_pos).prod(axis=1)
        for grp in kernel.glue:
            c, width = grp[0], len(grp)
            scores = joint.reshape(q**c, q**width, -1)[_pack(u[:c], q)].sum(axis=1)
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
                # the most likely value that honours the group's frozen pins
                pins = [(d, vals[off + c + d]) for d in range(width) if mask[off + c + d]]
                best_t = -1
                best_s = -1.0
                for t, s_t in enumerate(scores.tolist()):
                    if s_t > best_s and all(_unpack(t, q, width)[d] == v for d, v in pins):
                        best_t, best_s = t, s_t
                u[c : c + width] = _unpack(best_t, q, width)
            if hook is not None:
                hook.decide(off + c, u[c : c + width], llr_vec)
        return kernel.table[_pack(u, q)].copy()

    def rec(w_d: np.ndarray, off: int) -> np.ndarray:
        # returns the re-encoded codeword of this node; decisions go to u_hat
        nd = w_d.shape[0]
        if nd == ell:
            x = base_block(w_d, off)
        else:
            blk = nd // ell
            w_blk = w_d.reshape(blk, ell, q)
            cols = np.empty((blk, ell), dtype=np.int64)  # outer codeword r in column r
            for r in range(ell):
                w_r = _prep_outer(kernel, w_blk, cols[:, :r], r)
                if hook is not None:
                    hook.prep(off, nd, r, w_r)
                cols[:, r] = rec(w_r, off + r * blk)
            x = kernel.map_columns(cols).reshape(-1)
        if hook is not None:
            hook.node(off, x)
        return x

    try:
        x_hat = rec(rows, 0)
    finally:
        # rec refers to itself; dropping it frees its arrays and the hook
        # now rather than at some later cycle collection
        del rec
    return ScGeneralResult(u_hat, x_hat, decisions, errs)
