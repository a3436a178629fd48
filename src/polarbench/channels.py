"""Memoryless channel models and LLR/likelihood conversions.

Binary decoders consume one float LLR per output position,
lambda = ln W(y|0)/W(y|1), with +-inf for erased-to-certainty symbols.
transmit sends one frame: draw_noise draws its channel noise and
apply_noise turns bits into LLRs under it, for one frame or a batch.
Non-binary decoders consume per-position likelihood rows; likelihood_rows
builds them from an (N, q) array of LLRs against symbol 0, or from a batch
of such arrays, and likelihood_rows_binary is its q = 2 case.
check_likelihood_rows is the input check of every decoder that reads rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateEvidenceError(ValueError):
    """Every symbol value was assigned zero likelihood at some position."""


@dataclass(frozen=True)
class ChannelModel:
    """BMS channel usable by the Monte-Carlo harness.

    kind in {'bec', 'bsc', 'biawgn'}; param is epsilon in [0, 1], p in
    [0, 0.5), or sigma in [1e-150, 1e150].
    """

    kind: str
    param: float

    def __post_init__(self):
        if not math.isfinite(self.param):
            raise ValueError(f"channel parameter must be finite, got {self.param}")
        if self.kind == "bec":
            if not 0.0 <= self.param <= 1.0:
                raise ValueError("erasure probability must be in [0, 1]")
        elif self.kind == "bsc":
            if not 0.0 <= self.param < 0.5:
                raise ValueError("crossover probability must be in [0, 0.5)")
        elif self.kind == "biawgn":
            # apply_noise scales by 2 / sigma**2: both must be finite and nonzero
            if not 1e-150 <= self.param <= 1e150:
                raise ValueError("noise sigma must be in [1e-150, 1e150]")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")


def bec(eps: float) -> ChannelModel:
    return ChannelModel("bec", eps)


def bsc(p: float) -> ChannelModel:
    return ChannelModel("bsc", p)


def biawgn(sigma: float) -> ChannelModel:
    return ChannelModel("biawgn", sigma)


def draw_noise(ch: ChannelModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """One frame's channel draw for n positions.

    Uniforms for bec and bsc, Gaussians of deviation sigma for biawgn. A
    noiseless bsc (p = 0) draws nothing from rng and returns zeros.
    """
    if ch.kind == "biawgn":
        return rng.normal(0.0, ch.param, size=n)
    if ch.kind == "bsc" and ch.param == 0.0:
        return np.zeros(n)
    return rng.random(n)


def apply_noise(ch: ChannelModel, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Received LLRs lambda(1) of bits x under draw_noise's noise, both of shape (..., N).

    bec erases where the uniform is below epsilon, bsc flips where it is
    below p, and biawgn sends 0 -> +1, 1 -> -1 and adds the Gaussian. bec
    and bsc look each LLR up in one small table: (inf, -inf, 0.0, 0.0) at
    x + 2 * erased for bec, (mag, -mag) at x ^ flipped for bsc, with
    mag = ln((1 - p) / p), or inf for a noiseless bsc (p = 0).
    """
    if ch.kind == "bec":
        return np.array([np.inf, -np.inf, 0.0, 0.0]).take(x + 2 * (noise < ch.param))
    if ch.kind == "bsc":
        p = ch.param
        mag = math.log((1.0 - p) / p) if p else np.inf
        return np.array([mag, -mag]).take(x ^ (noise < p))
    y = (1.0 - 2.0 * x) + noise
    return 2.0 * y / (ch.param**2)


def transmit(ch: ChannelModel, x: np.ndarray, rng) -> np.ndarray:
    """Send bits x of one frame, return the received LLR vector lambda(1) per position."""
    x = np.asarray(x, dtype=np.int64)
    return apply_noise(ch, x, draw_noise(ch, len(x), np.random.default_rng(rng)))


def _position(i: int, n: int, batched: bool) -> str:
    """Name flat row i of rows that hold n positions per frame."""
    frame, pos = divmod(i, n)
    return f"frame {frame}, position {pos}" if batched else f"position {pos}"


def likelihood_rows(llr: np.ndarray) -> np.ndarray:
    """Per-position likelihood rows from LLR rows llr[..., i, t] = ln W(y_i|0)/W(y_i|t).

    Input shape (N, q), or (..., N, q) with leading frame axes; the output
    has the same shape. Each row is rescaled so its max entry is 1
    (common positive factor per position, harmless to any decoder), so a
    row may be offset by any constant, column 0 need not be 0. +inf kills
    a symbol; -inf entries concentrate all of the row's mass on themselves.
    Every row is converted on its own, so a batch gives what per-frame
    calls give. A NaN entry is a ValueError and a row with no support a
    DegenerateEvidenceError, each naming the first such position.
    """
    vals = np.asarray(llr, dtype=np.float64)
    if vals.ndim < 2 or vals.shape[-1] < 2:
        raise ValueError("llr rows must have shape (N, q) or (..., N, q) with q >= 2")
    flat = vals.reshape(-1, vals.shape[-1])
    # W(y|t) prop exp(-flat[t])
    surely = flat == -np.inf
    finite = np.isfinite(flat)
    nan = np.isnan(flat).any(axis=1)
    void = ~finite.any(axis=1) & ~surely.any(axis=1)
    if (nan | void).any():
        i = int(np.argmax(nan | void))
        where = _position(i, vals.shape[-2], vals.ndim > 2)
        if nan[i]:
            raise ValueError(f"{where}: NaN evidence")
        raise DegenerateEvidenceError(f"{where}: no symbol has support")
    shift = np.where(finite, flat, np.inf).min(axis=1, keepdims=True)
    shift[np.isinf(shift)] = 0.0  # no finite entry: the row has a -inf, set below
    # a row may span more than the float range: its difference then
    # overflows to inf, and exp(-inf) = 0 is the right likelihood
    with np.errstate(over="ignore"):
        gap = flat - shift
    out = np.where(finite, np.exp(-gap), 0.0)
    sure = surely.any(axis=1)
    out[sure] = surely[sure]
    return out.reshape(vals.shape)


def check_llr(llr, n: int) -> np.ndarray:
    """llr as a float64 (n,) array or (B, n) batch with B >= 1."""
    lam = np.asarray(llr, dtype=np.float64)
    if lam.ndim not in (1, 2) or lam.shape[-1] != n or lam.size == 0:
        raise ValueError(f"llr must have shape ({n},) or (B, {n}) with B >= 1")
    return lam


def check_likelihood_rows(rows, n: int, q: int) -> np.ndarray:
    """rows as a float64 (n, q) array or (B, n, q) batch with B >= 1.

    A ValueError names the first position holding an entry that is not
    finite and nonnegative.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim not in (2, 3) or rows.shape[-2:] != (n, q) or rows.size == 0:
        raise ValueError(f"rows must have shape ({n}, {q}) or (B, {n}, {q}) with B >= 1")
    bad = ~(np.isfinite(rows) & (rows >= 0.0)).all(axis=-1)
    if bad.any():
        where = _position(int(np.argmax(bad)), n, rows.ndim == 3)
        raise ValueError(f"{where}: likelihoods must be finite and nonnegative")
    return rows


def likelihood_rows_binary(llr: np.ndarray) -> np.ndarray:
    """Shape (..., N, 2) likelihood rows from binary LLRs of shape (..., N), max-normalized."""
    lam = np.asarray(llr, dtype=np.float64)
    return likelihood_rows(np.stack([np.zeros_like(lam), lam], axis=-1))
