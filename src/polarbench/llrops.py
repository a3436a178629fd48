"""Check-node and variable-node LLR updates, exact and min-sum.

LLRs are float64 and may be +-inf (perfectly known bits, e.g. erasure
channels or frozen priors). inf is treated as exact knowledge, so the
updates below have closed-form shortcuts for it. The two finite rules are
the same updates on evidence known to hold no +-inf or NaN, and the two
trit rules on evidence made only of 0 and +-inf, held as int8 signs.
"""

from __future__ import annotations

import math

import numpy as np

BP_CLIP = 40.0  # finite-message clamp; inf passes through untouched


class LlrContradiction(ArithmeticError):
    """Two infinite LLRs asserted opposite certainties about one bit."""


def f_plus(a: float, b: float) -> float:
    """Check-node update: ln((1 + e^(a+b)) / (e^a + e^b)), the LLR of a XOR b.

    Evaluated as sign(a)sign(b)min(|a|,|b|)
                 + log1p(exp(-|a+b|)) - log1p(exp(-|a-b|)).
    """
    if math.isinf(a):
        return b if a > 0 else -b
    if math.isinf(b):
        return a if b > 0 else -a
    s = math.copysign(1.0, a) * math.copysign(1.0, b) * min(abs(a), abs(b))
    return s + math.log1p(math.exp(-abs(a + b))) - math.log1p(math.exp(-abs(a - b)))


def f_plus_minsum(a: float, b: float) -> float:
    if math.isinf(a):
        return b if a > 0 else -b
    if math.isinf(b):
        return a if b > 0 else -a
    return math.copysign(1.0, a) * math.copysign(1.0, b) * min(abs(a), abs(b))


def f_plus_vec(a: np.ndarray, b: np.ndarray, min_sum: bool = False) -> np.ndarray:
    """Elementwise f_plus. Handles inf entries per the scalar shortcuts.

    a and b may be one frame, shape (N,), or a batch, shape (B, N). Each
    entry depends on its own a and b alone, so a batch row gives exactly
    what a call on that row alone gives.

    Every finite entry of the exact update rounds as (core + A) - B. Where
    a finite input is +-0, |a + b| == |a - b| makes A == B, so the entry
    is exactly +0.0. A call holding infinities, such as one on BP's frozen
    priors or in an observed SC walk on erasure evidence, runs the same
    formula on every entry and then overwrites the entries with an
    infinite input by the scalar shortcuts, so each finite entry rounds as
    in a call without infinities. (An SC walk without a hook on erasure
    evidence uses f_plus_trit instead, and an SC walk on finite evidence
    f_plus_finite, this formula without the infinity probe.)
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    abs_a, abs_b = np.abs(a), np.abs(b)
    # no infinity, by reductions that cannot overflow and skip NaN
    if np.fmax.reduce(np.fmax(abs_a, abs_b), axis=None, initial=0.0) < np.inf:
        return _formula(a, b, abs_a, abs_b, min_sum)
    # inf against anything collapses to +-other, as the scalar shortcuts do:
    # f_plus(inf, 0) = 0 and two infinities give the product of their signs.
    # Where both are infinite, the second copy wins; the slots it discards,
    # and the formula on infinite entries, may compute 0 * inf or inf - inf.
    with np.errstate(invalid="ignore"):
        core = np.asarray(_formula(a, b, abs_a, abs_b, min_sum))  # 0-d: written in place below
        np.copyto(core, a * np.sign(b), where=np.isinf(b))
        np.copyto(core, b * np.sign(a), where=np.isinf(a))
    return core


def f_plus_finite(a: np.ndarray, b: np.ndarray, min_sum: bool = False) -> np.ndarray:
    """f_plus_vec on float64 arrays known to hold no +-inf or NaN, whose
    |a +- b| do not overflow: the formula alone, with the same bits."""
    return _formula(a, b, np.abs(a), np.abs(b), min_sum)


def _formula(a, b, abs_a, abs_b, min_sum):
    # the min-sum core, and the exact update from it rounded as (core + A) - B.
    # Min-sum keeps the sign product: where an input is +-0 its core is a
    # signed zero, and the sign of sign(a) * sign(b) * 0 is what it returns.
    # The exact update returns +0.0 there whatever the core's sign (A == B),
    # so its core may be copysign(min, a * sign(b)), which equals the sign
    # product on nonzero inputs and, unlike a * b, cannot overflow. Its two
    # log terms run as one C-contiguous (2, ...) buffer: the same ufuncs on
    # the same values, elementwise and on contiguous memory as the separate
    # temporaries were, so each entry keeps the bits they gave it.
    if min_sum:
        return np.sign(a) * np.sign(b) * np.minimum(abs_a, abs_b)
    core = np.copysign(np.minimum(abs_a, abs_b), a * np.sign(b))
    t = np.empty((2,) + core.shape)
    np.add(a, b, out=t[0, ...])
    np.subtract(a, b, out=t[1, ...])
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    return core + t[0] - t[1]


def f_equal_vec(a: np.ndarray, b: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """Equality-node update a + b; opposite infinities are a contradiction.

    a and b are (..., n) and `failed` is a bool array of shape (...), 0-d
    for one row. Each row holding a contradiction is marked in `failed`
    and its conflicting entries become 0 (no knowledge), so the caller can
    carry on; the other rows are untouched.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # opposite infinities sum to NaN, so only a NaN needs the full check
    with np.errstate(invalid="ignore"):
        total = a + b
    if np.isnan(total).any():
        conflict = np.isinf(a) & np.isinf(b) & (np.sign(a) != np.sign(b))
        if conflict.any():
            failed |= conflict.any(axis=-1)
            total[conflict] = 0.0
    return total


def f_equal_finite(a: np.ndarray, b: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """f_equal_vec on finite LLRs whose sum does not overflow: a + b, which
    marks no row."""
    return a + b


def f_plus_trit(a: np.ndarray, b: np.ndarray, min_sum: bool = False) -> np.ndarray:
    """f_plus_vec on erasure evidence held as int8 signs ("trits" -1, 0, +1
    for LLRs -inf, +-0, +inf).

    On such LLRs the exact and the min-sum update are both the product of
    the signs, so min_sum is accepted and changes nothing.
    """
    return a * b


def f_equal_trit(a: np.ndarray, b: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """f_equal_vec on trits: the sign of a + b.

    Opposite certainties sum to 0, the entry f_equal_vec gives them, and
    their row is marked in `failed` as there.
    """
    prod = a * b
    if prod.min() < 0:
        failed |= (prod < 0).any(axis=-1)
    return np.sign(a + b)


def decide(llr):
    """Hard decision ~(llr >= 0): 0 when llr >= 0 (ties break toward 0),
    1 otherwise, NaN included. Works elementwise on arrays."""
    return (~(np.asarray(llr) >= 0)).astype(np.int64)
