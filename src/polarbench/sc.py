"""Successive-cancellation decoding over the recursive construction.

Two entry points: decode_sc_arikan walks the binary (u+v, v) recursion on
scalar LLRs; decode_sc_general works for any kernel, carrying
per-position likelihood rows of shape (N, q) and marginalizing undecided
kernel inputs exactly. Each takes one frame or a batch of frames through
the same recursion. Both have a genie mode, used by Monte-Carlo code
construction: given the true inputs genie_u, each input is still decided
into u_hat, but frozen values are not applied and the walk goes on from
the true input, so u_hat != genie_u marks the decisions SC gets wrong
given the true earlier inputs.

Batch contract of both: a frame whose evidence contradicts itself is
marked where it is found and walks on to the end; every other frame's
result equals a single-frame call on its row. A batch, shape (B, N) or
(B, N, q), reports the marks in the result's failed array. One frame,
shape (N,) or (N, q), is a batch row like any other, and the decoder
raises LlrContradiction for it once, after the walk.

decode_sc_arikan is also the recursion of the hardware SC models: an
optional schedule hook sees every step the walk takes, in order,

  hook.f(off, width, (even, odd), out)      STEP I of the node at `off`
  hook.g(off, width, (even, odd), out, x0)  STEP III, x0 the re-encoded
                                            left half it used
  hook.decide(off, u, llr)                  input `off` decided as u
                                            from the decision LLR llr

where width is the node's length and every array keeps the batch axis
(a frozen decision has shape (1,) and broadcasts over the batch). In
genie mode u is the true input that the walk goes on from.
The hook counts cycles and resources and may raise to abort the decode;
it never changes a value. decode_sc_general is in the same way the
recursion of the general-kernel line model, through the hook described in
its docstring, whose decide event is this one; that hook observes one
frame.

A decode_sc_arikan walk that nothing observes (no hook or genie) reads
the code's node plan (CodeSpec.node_plan): a rate-0 left child needs no
f. It skips STEP I of a width-2 node whose left input is frozen, since
that leaf ignores its LLR and f never fails a frame, so every output is
the same (the simplest rate-0 case of simplified SC). Observed walks take
every step.

A decode_sc_arikan walk without a hook (genie or not) whose every input
LLR is 0 or +-inf, erasure evidence, runs on int8 signs ("trits" -1, 0,
+1) in place of float64 LLRs: f is the product of the signs and g their
sum, clipped to a sign (llrops.f_plus_trit, f_equal_trit). That is exact:
on such LLRs every LLR of the walk is again 0 or +-inf, f_plus_vec (exact
or min-sum) gives the product of the signs, f_equal_vec gives their sum
and zeroes and marks opposite infinities, and a leaf reads only
~(L >= 0). So u_hat, x_hat and failed are those of the float walk; only
the signs of zeros inside the walk may differ, and nothing reads them.
A walk with a hook always runs on float LLRs, the values it observes.

So decode_sc_arikan picks one of three rule sets per decode: trits, as
above; the finite float rules, when every root LLR is finite once
saturated (any walk, hooked or not); and the general float rules
(f_plus_vec, f_equal_vec), which probe each node for infinities and
contradictions, for all other evidence. The finite rules are f_plus_vec's
formula without the probe (llrops.f_plus_finite) and a plain a + b
(f_equal_finite). That is exact: a node at depth d sums at most 2**d root
LLRs, so under the saturation bound 2**(1022 - m) no g sum and no
|a +- b| in f overflows, and no LLR of the walk becomes +-inf or NaN.
There f_plus_vec takes its finite branch and f_equal_vec returns a + b
and marks nothing, so every output and every value a hook sees is the
same bits.

On trits, what a node returns (its decisions, its re-encoding and whether
it marks a frame) is a function of its input trits and its frozen inputs
alone. So an unobserved trit walk (no hook, no genie) does not descend
into a node of width TABLE_WIDTH below the root (half the root's width in
a shorter code) whose frozen values are all 0, as the node plan says: it
reads the node's outputs from a table indexed by the node's input, built
once per process and frozen mask by the same walk run on every possible
input of that node (whose own children are looked up in the tables of
half its width). A table row is the walk's own output, so SC's tie rule
on zero LLRs and its failed rule carry over bit for bit; every node type
is covered, where the rate-1, repetition and single-parity-check rules of
fast simplified SC are not exact on zeros. A node with a frozen 1 is
walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .channels import check_likelihood_rows, check_llr
from .kernels import CodeSpec, Kernel, _read_only, _words, encode_unchecked, kernel_arikan
from .llrops import (
    LlrContradiction, f_equal_finite, f_equal_trit, f_equal_vec, f_plus_finite, f_plus_trit, f_plus_vec,
)


class UnsupportedCodeError(NotImplementedError):
    pass


@dataclass
class ScResult:
    u_hat: np.ndarray
    x_hat: np.ndarray
    # (B,) for batch input: True where the frame's evidence contradicted
    # itself, and that row's other fields are meaningless; None for one frame
    failed: np.ndarray | None = None


# binary Arikan path ---------------------------------------------------------

# An unobserved walk on erasure evidence looks up the nodes of this width
# below the root (of half the root's width in a shorter code) in tables
# (see the module docstring).
TABLE_WIDTH = 8
# A node input of width w has the index (trits + 1) @ 3**arange(w), here
# trits @ _TRIT_RADIX[:w] + 3**w // 2: float32 holds every index exactly,
# and an int8 @ float32 product runs in BLAS.
_TRIT_RADIX = (3 ** np.arange(TABLE_WIDTH)).astype(np.float32)


@cache
def _node_inputs(width: int) -> np.ndarray:
    # every input of a node of this width, row i holding the trits of index
    # i; a C-ordered copy, on which the table build runs fastest
    digits = np.indices((3,) * width, dtype=np.int8).reshape(width, -1)[::-1].T
    trits = np.ascontiguousarray(digits - 1)
    return _read_only(trits)[0]


@cache
def _word_rows(width: int) -> tuple[np.ndarray, np.ndarray]:
    # A table entry is a word: the node's decision on input i in bit i and
    # its failed mark in bit `width`. Row v of the first array holds the
    # decisions in word v, and of the second their re-encoding, as int8.
    bits = (np.arange(2 << width)[:, None] >> np.arange(width)) & 1
    return _read_only(bits.astype(np.int8), encode_unchecked(kernel_arikan(), bits).astype(np.int8))


# Tables by node width and frozen mask (bit i for input i), for nodes frozen
# to 0 only, so at most 2**w tables of 3**w uint16 words per width w.
_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _erasure_table(width: int, frozen: int) -> np.ndarray:
    """The table of a node of this width whose inputs in the bit mask
    `frozen` are frozen to 0: the unobserved erasure walk of the node on
    each of its 3**width trit inputs, built once per process."""
    table = _TABLES.get((width, frozen))
    if table is None:
        node = CodeSpec(kernel_arikan(), width.bit_length() - 1, {i: 0 for i in range(width) if frozen >> i & 1})
        # the node is this walk's root, which is never looked up; its
        # children are, in the tables of half its width
        u_hat, _, failed = _walk(node, _node_inputs(width), False, None, None)
        words = u_hat @ 2 ** np.arange(width, dtype=np.float32)  # exact, in BLAS as above
        table = _read_only(words.astype(np.uint16) | failed.astype(np.uint16) << width)[0]
        _TABLES[width, frozen] = table
    return table


def _erasure_tables(spec: CodeSpec, width: int) -> dict[int, np.ndarray]:
    """The table of each node of this width frozen to 0 only, as the code's
    node plan says, by the node's first input."""
    nodes = spec.cached(("erasure", width), _erasure_nodes)
    return {off: _erasure_table(width, frozen) for off, frozen in nodes}


def _erasure_nodes(spec: CodeSpec, key: tuple[str, int]) -> tuple[tuple[int, int], ...]:
    # (first input, frozen bit mask) of each node of this width frozen to 0
    # only: a property of the code, kept with its node plan
    width = key[1]
    masks = np.packbits(spec.frozen_arrays()[0].reshape(-1, width), axis=1, bitorder="little")[:, 0]
    zero = spec.node_plan(width)[1]
    return tuple((width * j, k) for j, (k, z) in enumerate(zip(masks.tolist(), zero.tolist())) if z)


def _flip_float(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # g's input: a negated where the re-encoded left half x is 1
    return np.where(x == 1, -a, a)


def _flip_trit(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # the same on int8 signs, where a product costs a fraction of np.where
    return a * (1 - 2 * x).astype(np.int8, copy=False)


def decode_sc_arikan(
    spec: CodeSpec,
    llr: np.ndarray,
    min_sum: bool = False,
    genie_u: np.ndarray | None = None,
    *,
    hook=None,
) -> ScResult:
    """SC decoding of one frame, shape (N,), or of a batch, shape (B, N).

    The recursion runs over the last axis, so every frame of a batch goes
    through the same tree walk and each frame's decisions equal those of a
    single-frame call on that row. u_hat and x_hat (int64) take the shape
    of the input. With genie_u (same shape as llr), u_hat holds the hard
    decisions and x_hat encodes genie_u (see the module docstring).

    Without a hook, evidence made only of 0 and +-inf is walked on its
    signs, and without a genie word too, nodes of width TABLE_WIDTH frozen
    to 0 are looked up in tables, with the same results (see the module
    docstring). Other evidence is walked on float64 LLRs, and finite LLRs
    beyond +-2**(1022 - m) are first saturated to that bound, so no sum in
    the walk overflows.

    A frame whose +-inf evidence contradicts itself or its frozen values
    is marked and decoded to the end. For a batch, failed, a (B,) bool
    array, holds the marks, and a marked frame's u_hat and x_hat rows are
    meaningless. A lone frame, shape (N,), that is marked raises
    LlrContradiction after its walk.

    hook, if given, is told of every activation and decision (see the
    module docstring).
    """
    if not spec.kernel.is_arikan:
        raise ValueError("decode_sc_arikan requires the (u+v, v) kernel")
    lam = check_llr(llr, spec.n)
    if genie_u is not None:
        genie_u = np.asarray(genie_u, dtype=np.int64)
        if genie_u.shape != lam.shape:
            raise ValueError("genie_u must have the shape of llr")
    finite = False  # every root LLR finite, once saturated
    if hook is None and ((lam == 0) | np.isinf(lam)).all():
        # erasure evidence: every LLR of the walk is 0 or +-inf, so it is
        # carried as its sign (see the module docstring)
        lam = np.sign(lam).astype(np.int8)
    else:
        # a node at depth d sums at most 2**d root LLRs, so with this power
        # of two no g sum and no |a +- b| in f goes beyond 2**1022
        bound = 2.0 ** (1022 - spec.m)
        mag = np.abs(lam)
        fin = mag < np.inf  # False at +-inf and NaN
        big = (mag > bound) & fin
        if big.any():
            lam = np.where(big, np.copysign(bound, lam), lam)
        finite = fin.all()
    u_hat, x_hat, failed = _walk(spec, lam, min_sum, genie_u, hook, finite)
    if lam.ndim == 1:
        if failed:
            raise LlrContradiction("opposite infinite LLRs combined at equality node")
        failed = None
    return ScResult(u_hat.astype(np.int64, copy=False), x_hat.astype(np.int64, copy=False), failed)


def _walk(spec, lam, min_sum, genie_u, hook, finite=False):
    """decode_sc_arikan's recursion on float64 LLRs or int8 trits, lam of
    shape (N,) or (B, N); returns u_hat and x_hat (int8 on trits, else
    int64) and failed. finite says float LLRs hold no +-inf or NaN and are
    saturated, so the walk takes the finite rules."""
    vals = spec.frozen_arrays()[1]
    frozen = spec.node_plan(1)[0]  # 1 for a frozen input, a rate-0 leaf
    trits = lam.dtype == np.int8
    quiet = hook is None and genie_u is None
    table_width, tables = 0, {}  # node tables by first input
    if trits:
        f_rule, g_rule, flip, bit_type = f_plus_trit, f_equal_trit, _flip_trit, np.int8
        if quiet and spec.n > 2:
            table_width = min(TABLE_WIDTH, spec.n // 2)
            tables = _erasure_tables(spec, table_width)
            radix, center = _TRIT_RADIX[:table_width], 3**table_width // 2
            u_rows, x_rows = _word_rows(table_width)
    elif finite:
        f_rule, g_rule, flip, bit_type = f_plus_finite, f_equal_finite, _flip_float, np.int64
    else:
        f_rule, g_rule, flip, bit_type = f_plus_vec, f_equal_vec, _flip_float, np.int64
    u_hat = np.empty(lam.shape, dtype=bit_type)
    failed = np.zeros(lam.shape[:-1], dtype=bool)  # 0-d for one frame

    def rec(lam_d: np.ndarray, off: int) -> np.ndarray:
        # returns the re-encoded codeword of this node; decisions go to u_hat
        width = lam_d.shape[-1]
        if width == table_width and off in tables:
            # the node's own walk, looked up: its word holds its decisions
            # and its failed mark
            word = tables[off].take((lam_d @ radix).astype(np.intp) + center)
            failed[...] |= word >> width > 0
            u_hat[..., off : off + width] = u_rows.take(word, axis=0)
            return x_rows.take(word, axis=0)
        if width == 1:
            # hard decision ~(L >= 0), not L < 0: NaN decides 1, as decide() does
            at = slice(off, off + 1)
            if genie_u is not None:
                # the decision is kept, the walk goes on from the true input
                u_hat[..., at] = ~(lam_d >= 0)
                u = genie_u[..., at]
            else:
                # a frozen value has shape (1,) and broadcasts over the batch
                u = vals[at] if frozen[off] else ~(lam_d >= 0)
                u_hat[..., at] = u
            if hook is not None:
                hook.decide(off, u, lam_d)
            return u
        even = lam_d[..., 0::2]
        odd = lam_d[..., 1::2]
        if quiet and width == 2 and frozen[off]:
            # a rate-0 left child needs no f: this leaf ignores its LLR
            x0 = vals[off : off + 1]
            u_hat[..., off : off + 1] = x0
        else:
            l1 = f_rule(even, odd, min_sum=min_sum)
            if hook is not None:
                hook.f(off, width, (even, odd), l1)
            x0 = rec(l1, off)
        l2 = g_rule(flip(even, x0), odd, failed)
        if hook is not None:
            hook.g(off, width, (even, odd), l2, x0)
        x1 = rec(l2, off + width // 2)
        x = np.empty(lam_d.shape, dtype=bit_type)
        x[..., 0::2] = x0 ^ x1
        x[..., 1::2] = x1
        return x

    try:
        return u_hat, rec(lam, 0), failed
    finally:
        # rec refers to itself; dropping it frees its arrays and the hook
        # now rather than at some later cycle collection
        del rec


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


def _log_totals(logs: np.ndarray) -> np.ndarray:
    """ln of the sum of exp(logs) over the last axis, -inf where every term
    is -inf; no term over- or underflows on the way."""
    top = logs.max(axis=-1, keepdims=True)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return (top + np.log(np.exp(logs - top).sum(axis=-1, keepdims=True)))[..., 0]


def _log_scores_to_llr(logs: np.ndarray) -> np.ndarray:
    """scores_to_llr on the logs of the likelihood totals, with its
    zero-likelihood conventions; the totals need not be representable."""
    out = np.full(len(logs), np.inf)
    live = logs > -np.inf
    out[live] = logs[0] - logs[live]
    out[0] = 0.0
    return out


def conditioned_scores(kernel: Kernel, w: np.ndarray, prefix: np.ndarray, boundary: int) -> np.ndarray:
    """Total likelihood of each value of the glue group at `boundary`, per instance.

    w: (M, ell, q) likelihood rows of M kernel instances; prefix: (M, boundary)
    inputs decided before the group. Returns shape (M, q**width). The
    suffix is summed in index order, so an instance's totals do not depend
    on which other instances share the call.
    """
    q, ell = kernel.q, kernel.ell
    # (M, q**width, q**n_suffix, ell): the prefix packs into the low digits of radix
    tab = kernel.marginal_view(boundary)[prefix @ kernel.radix[ell - boundary :]]
    # flat position of w[i, j, tab[i, t, s, j]]; tab is a new array, so in place
    tab += q * np.arange(ell) + (q * ell * np.arange(len(w)))[:, None, None, None]
    return np.take(w, tab).prod(axis=3).cumsum(axis=2)[..., -1]


def glue_values(kernel: Kernel, mask: np.ndarray, vals: np.ndarray) -> list:
    """Per glue group, in order: its first input c, its width w, the
    (q**w, w) symbols of each group value t, and the (N/ell, q**w) table of
    the values its frozen pins allow in each kernel block, from a code's
    frozen mask and values over N inputs.

    The decoders read a code's groups here and nowhere else, so this is
    where a glue group of more than one input is refused beyond depth 1
    (N > ell), with UnsupportedCodeError.
    """
    q, ell = kernel.q, kernel.ell
    if len(mask) > ell and any(len(g) > 1 for g in kernel.glue):
        raise UnsupportedCodeError("joint glue groups are only decoded at depth m = 1")
    out = []
    for grp in kernel.glue:
        c, w = grp[0], len(grp)
        syms = _words(q, w)
        pins = mask.reshape(-1, ell)[:, None, c : c + w]
        pinned = vals.reshape(-1, ell)[:, None, c : c + w]
        out.append((c, w, syms, ((syms == pinned) | ~pins).all(axis=2)))
    return out


def _prep_outer(
    kernel: Kernel, w_blk: np.ndarray, decided: np.ndarray, r: int, failed: np.ndarray
) -> np.ndarray:
    """Evidence rows for outer code r given decided outer codewords 0..r-1.

    w_blk: (ncol, ell, q) likelihood rows grouped by kernel instance, the
    instances being B frames' worth in frame order. decided: (ncol, r)
    symbols already fixed on each instance's inputs. An instance whose
    evidence rules out every symbol marks its frame in `failed`, a (B,)
    bool array, and its rows become ones.
    """
    out = conditioned_scores(kernel, w_blk, decided, r)
    peak = out.max(axis=1)
    dead = peak <= 0.0
    if dead.any():
        failed |= dead.reshape(len(failed), -1).any(axis=1)
        out[dead] = peak[dead] = 1.0
    return out / peak[:, None]


def decode_sc_general(
    spec: CodeSpec,
    rows: np.ndarray,
    genie_u: np.ndarray | None = None,
    *,
    hook=None,
) -> ScResult:
    """SC decoding of one frame, rows of shape (N, q), or of a batch, (B, N, q).

    Rows must be finite and nonnegative (a ValueError names the first bad
    position). The recursion runs over every frame of a batch at once, and
    each frame's decisions equal those of a single-frame call on its rows.
    u_hat and x_hat take the shape of the frames. With genie_u (shape (N,)
    or (B, N)), u_hat holds the most likely value of each glue group and
    x_hat encodes genie_u (see the module docstring).

    A frame whose evidence rules out every value is marked and decoded to
    the end. For a batch, failed, a (B,) bool array, holds the marks, and
    a marked frame's other rows are meaningless. A lone frame that is
    marked raises LlrContradiction after its walk.

    hook observes one frame only; with a batch it is a ValueError. If
    given, it is told of every step of the walk, in order:

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
    rows = check_likelihood_rows(rows, n, q)
    frames = rows.shape[:-1]  # (N,) for one frame, (B, N) for a batch
    if len(frames) == 2 and hook is not None:
        raise ValueError("hook observes one frame; give rows of shape (N, q)")
    if genie_u is not None:
        genie_u = np.asarray(genie_u, dtype=np.int64)
        if genie_u.shape != frames:
            raise ValueError("genie_u must have the shape of the frames")
        genie_u = genie_u.reshape(-1, n)
    # Scale each row by a power of two so that its peak lies in [1, 2).
    # That is exact: products and ratios keep every bit unless they would
    # have over- or underflowed, and huge finite rows no longer overflow
    # to inf and report false certainty. All-zero rows are left as they are.
    peak = rows.max(axis=-1)
    rows = np.ldexp(rows, np.where(peak > 0.0, 1 - np.frexp(peak)[1], 0)[..., None]).reshape(-1, n, q)
    nb = len(rows)

    mask, vals = spec.frozen_arrays()
    groups = glue_values(kernel, mask, vals)
    failed = np.zeros(nb, dtype=bool)
    u_hat = np.empty((nb, n), dtype=np.int64)
    walk = u_hat if genie_u is None else genie_u  # the inputs the walk goes on from
    every = np.arange(nb)
    # flat position in one instance's (ell, q) rows of output j's symbol
    out_pos = kernel.table + q * np.arange(ell)

    def base_block(w_blk: np.ndarray, off: int) -> np.ndarray:
        # likelihood of every kernel input word, per frame; input 0 is the
        # most significant digit, so the words left once a glue group is
        # decided are one contiguous run, and the next group's totals are a
        # pairwise sum over each of its suffix rows
        factors = np.take(w_blk.reshape(nb, ell * q), out_pos, axis=1)
        rest = factors.prod(axis=2)
        # A product of nonzero factors can underflow to 0 and would read as
        # an impossible word. A frame holding one carries the logs of its
        # products instead, and only that frame, so no other changes a bit.
        logs = None  # or the (nb,) mask of the frames that carry logs
        if not rest.all():
            under = ((rest == 0.0) & factors.all(axis=2)).any(axis=1)
            if under.any():
                logs = under
                with np.errstate(divide="ignore"):
                    rest[logs] = np.log(factors[logs]).sum(axis=2)
        for c, width, syms, allowed in groups:
            at = slice(off + c, off + c + width)
            rest = rest.reshape(nb, q**width, -1)
            scores = rest.sum(axis=2)
            if logs is not None:
                scores[logs] = _log_totals(rest[logs])
            peak = scores.max(axis=1)
            if logs is not None:
                peak[logs] = peak[logs] > -np.inf  # 0 where every value is impossible
            if not peak.all():  # scores are nonnegative: some frame's are all zero
                # flat scores let a marked frame walk on, as _prep_outer's ones do
                dead = peak == 0.0
                failed[dead] = True
                scores[dead] = 1.0
            if genie_u is not None:
                # the decision is kept, the walk goes on from the true value
                u_hat[:, at] = syms[scores.argmax(axis=1)]
                t = genie_u[:, at] @ kernel.radix[ell - width :]
            else:
                # the most likely value that honours the group's frozen pins
                t = np.where(allowed[off // ell], scores, -np.inf).argmax(axis=1)
                u_hat[:, at] = syms[t]
            rest = rest[every, t]
            if hook is not None:
                to_llr = _log_scores_to_llr if logs is not None and logs[0] else scores_to_llr
                hook.decide(off + c, walk[0, at], to_llr(scores[0]))
        return kernel.map_columns(walk[:, off : off + ell])

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
    if len(frames) == 1:
        if failed[0]:
            raise LlrContradiction("evidence rules out every symbol at some position")
        failed = None
    return ScResult(u_hat.reshape(frames), x_hat.reshape(frames), failed)
