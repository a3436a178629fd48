"""Check-node and variable-node LLR updates, exact and min-sum.

LLRs are float64 and may be +-inf (perfectly known bits, e.g. erasure
channels or frozen priors). inf is treated as exact knowledge, so the
updates below have closed-form shortcuts for it.
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
    is exactly core + 0.0 (+0.0); a call holding infinities, such as one on
    erasure evidence, runs exp and log1p only on the other finite entries.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sign = np.sign(a) * np.sign(b)
    core = sign * np.minimum(np.abs(a), np.abs(b))
    inf_a = np.isinf(a)
    inf_b = np.isinf(b)
    if not (inf_a | inf_b).any():
        if min_sum:
            return core
        return core + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    core = np.asarray(core)  # a 0-d call gives a scalar, written in place below
    if not min_sum:
        core += 0.0
        live = (core != 0) & ~inf_a & ~inf_b
        if live.any():
            fa, fb = a[live], b[live]
            corr = np.log1p(np.exp(-np.abs(fa + fb)))
            core[live] = (core[live] + corr) - np.log1p(np.exp(-np.abs(fa - fb)))
    # inf against anything collapses to +-other, as the scalar shortcuts do:
    # f_plus(inf, 0) = 0 and two infinities give the product of their signs.
    # Where both are infinite, the second copy wins; the slots it discards
    # may compute 0 * inf.
    with np.errstate(invalid="ignore"):
        np.copyto(core, a * np.sign(b), where=inf_b)
        np.copyto(core, b * np.sign(a), where=inf_a)
    return core


def f_equal_vec(a: np.ndarray, b: np.ndarray, failed: np.ndarray | None = None) -> np.ndarray:
    """Equality-node update a + b; opposite infinities are a contradiction.

    Without `failed`, a contradiction raises LlrContradiction. With a (B,)
    bool array `failed` for (B, n) inputs, each contradicting row is marked
    there instead and its conflicting entries become 0 (no knowledge), so
    the caller can carry on; the other rows are untouched.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # opposite infinities sum to NaN, so only a NaN needs the full check
    with np.errstate(invalid="ignore"):
        total = a + b
    if np.isnan(total).any():
        conflict = np.isinf(a) & np.isinf(b) & (np.sign(a) != np.sign(b))
        if conflict.any():
            if failed is None:
                raise LlrContradiction("opposite infinite LLRs combined at equality node")
            failed |= conflict.any(axis=-1)
            total[conflict] = 0.0
    return total


def decide(llr):
    """Hard decision ~(llr >= 0): 0 when llr >= 0 (ties break toward 0),
    1 otherwise, NaN included. Works elementwise on arrays."""
    return (~(np.asarray(llr) >= 0)).astype(np.int64)
