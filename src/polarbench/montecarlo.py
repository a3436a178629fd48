"""Seeded Monte-Carlo BER/FER trials over binary-input channels.

Trials are grouped into fixed-size lanes; lane i draws from
default_rng([seed, i]), so the tally is independent of how lanes are
scheduled and a --jobs split reproduces the single-process result byte for
byte. One frame source, draw_frames, serves every lane and the Monte-Carlo
construction: it gives each frame the payload and channel noise that
drawing them from rng frame by frame gives (a bec or bsc lane on the
default PCG64 generator takes all its raw words in one call), then
assembles, encodes and applies the noise to the whole lane as (B, N)
arrays. A lane's frames are decoded in one batched
call: SC on the (u+v, v) kernel walks its recursion once for the whole
lane, BP sweeps the lane's still-running frames together until each has
stopped by its own rule, SCL walks its list recursion once for the whole
lane, and SC on any other kernel walks the general recursion once for the
whole lane; those two take a long code's or a large kernel's lane in a
few slices (see frames_per_call), to bound their memory. Decode
failures (contradictory or degenerate evidence) come back as a per-frame
mask and count as a frame error with every information bit wrong; they
never abort a run. BP never fails a frame: it flags contradictions and
decides anyway.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bp import bp_decode
from .channels import ChannelModel, apply_noise, draw_noise, likelihood_rows, likelihood_rows_binary
from .kernels import CodeSpec, encode
from .sc import decode_sc_arikan, decode_sc_general
from .scl import decode_scl

LANE_SIZE = 512
# Entries per call of the largest arrays of the decoders whose memory grows
# faster than N per frame, so that a lane of a long code or a large kernel
# is decoded in slices that keep them to a few tens of MB: SCL's list state
# holds a few float arrays of q * list size * N/2 entries per frame, and
# general-kernel SC's root stage a few int and float arrays of N * q**ell
# (every input word of every kernel instance); 2^19 keeps a G4 lane at
# N = 1024 below the peak RSS of decoding it frame by frame.
SCL_CELLS = 1 << 20
SC_CELLS = 1 << 19
DECODERS = ("sc", "scl", "bp")


@dataclass
class TrialStats:
    trials: int
    bit_errors: int
    frame_errors: int
    info_bits: int  # per frame

    @property
    def ber(self) -> float:
        total = self.trials * self.info_bits
        return self.bit_errors / total if total else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.trials if self.trials else 0.0

    def merge(self, other: "TrialStats") -> "TrialStats":
        return TrialStats(
            self.trials + other.trials,
            self.bit_errors + other.bit_errors,
            self.frame_errors + other.frame_errors,
            self.info_bits,
        )


def decode_frame(
    spec: CodeSpec,
    decoder: str,
    llr: np.ndarray,
    list_size: int = 8,
    iters: int = 40,
    min_sum: bool = False,
):
    """Decode with `decoder`, one of DECODERS, one frame or a batch.

    One frame: llr is (N,) binary LLRs, or an (N, q) array of LLRs against
    symbol 0 for a q-ary kernel. It returns u_hat; contradictory or
    degenerate evidence raises LlrContradiction or DegenerateEvidenceError.

    A batch: llr is (B, N), or (B, N, q) for a q-ary kernel. It returns
    (u_hat, failed), where failed is a (B,) bool array marking the frames
    whose evidence would have raised, and a failed frame's u_hat row is
    meaningless. Every decoder takes the batch in one call (BP flags
    contradictions and never fails a frame), but SCL and SC on a kernel
    other than (u+v, v) take it in slices of frames_per_call frames.

    Likelihood rows are built only for the decoders that read them: SC on
    a kernel other than (u+v, v), and SCL.
    """
    if decoder not in DECODERS:
        raise ValueError(f"decoder must be one of {DECODERS}")
    lam = np.asarray(llr, dtype=np.float64)
    if decoder == "bp":
        # contradictions are flags inside BP, so no frame ever fails
        res = bp_decode(spec, lam, max_iters=iters, min_sum=min_sum)
        return res.u_hat if lam.ndim == 1 else (res.u_hat, np.zeros(len(lam), dtype=bool))
    if decoder == "sc" and spec.kernel.is_arikan:
        res = decode_sc_arikan(spec, lam, min_sum=min_sum)
        return res.u_hat if res.failed is None else (res.u_hat, res.failed)
    rows = likelihood_rows_binary(lam) if spec.kernel.q == 2 else likelihood_rows(lam)
    decode = partial(decode_sc_general, spec)
    if decoder == "scl":
        decode = partial(decode_scl, spec, list_size=list_size)
    if rows.ndim == 2:
        return decode(rows).u_hat
    step = frames_per_call(spec, decoder, list_size)
    res = [decode(rows[s : s + step]) for s in range(0, len(rows), step)]
    return np.concatenate([r.u_hat for r in res]), np.concatenate([r.failed for r in res])


def frames_per_call(spec: CodeSpec, decoder: str, list_size: int = 8) -> int:
    """Most frames one decode_scl ("scl") or decode_sc_general ("sc") call
    takes, at least one: as many as keep its largest arrays to SCL_CELLS or
    SC_CELLS entries."""
    if decoder == "scl":
        # a bad list size is left to decode_scl's check
        return max(1, SCL_CELLS // (max(1, list_size) * spec.n))
    return max(1, SC_CELLS // (spec.n * spec.kernel.q**spec.kernel.ell))


def draw_frames(spec: CodeSpec, ch: ChannelModel, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """`count` frames from rng as (count, N) input words u and received LLRs.

    The result, and rng's state afterwards, are what spec.assemble, encode
    and transmit give one frame at a time: each frame draws its payload,
    rng.integers(0, 2, k), and then its channel noise. A bec or bsc lane
    on a PCG64 generator takes all its raw words in one call (see
    _draw_raw); biawgn and other bit generators draw frame by frame.
    Assembly, encoding and the noise then act on whole arrays.
    """
    k, n = spec.k_info, spec.n
    if ch.kind != "biawgn" and type(getattr(rng, "bit_generator", None)) is np.random.PCG64:
        noiseless = ch.kind == "bsc" and ch.param == 0.0
        payload, noise = _draw_raw(rng.bit_generator, count, k, 0 if noiseless else n)
        if noiseless:
            noise = np.zeros((count, n))
    else:
        payload = np.empty((count, k), dtype=np.int64)
        noise = np.empty((count, n))
        for i in range(count):
            payload[i] = rng.integers(0, 2, k)
            noise[i] = draw_noise(ch, n, rng)
    u = spec.assemble(payload)
    return u, apply_noise(ch, encode(spec, u), noise)


def _draw_raw(bg: np.random.PCG64, count: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, k) payload bits and (count, n) uniforms, equal to `count`
    rounds of integers(0, 2, k) then random(n) on bg's Generator, from one
    random_raw call.

    integers(0, 2) takes the top bit of a 32-bit half-word (Lemire's
    method), low half first; a spare high half is kept in bg's
    has_uint32 / uinteger buffer, across frames and across calls. random
    maps a raw word w to (w >> 11) * 2**-53 and leaves the buffer alone.
    """
    state = bg.state
    h0, buf0 = state["has_uint32"], state["uinteger"]
    halves = count * k - h0  # half-words taken from new raw words
    words = max(0, (halves + 1) // 2)  # payload words, each drawn at its low half
    p = np.arange(words)
    # payload word p is drawn in frame (2p + h0) // k, after that frame's
    # predecessors' noise; frame i's noise follows its own payload words
    pay_at = p + n * ((2 * p + h0) // max(k, 1))
    frames = np.arange(count)
    noise_at = np.maximum(0, ((frames + 1) * k - h0 + 1) // 2) + frames * n
    raw = bg.random_raw(words + count * n)
    w = raw[pay_at]
    bits = np.stack(((w >> 31) & 1, w >> 63), axis=-1).reshape(-1)[: max(halves, 0)]
    if h0 and count * k:
        bits = np.concatenate(([buf0 >> 31], bits))
    payload = bits.astype(np.int64).reshape(count, k)
    noise = (raw[noise_at[:, None] + np.arange(n)] >> 11) * 2.0**-53
    if count * k:
        state = bg.state
        state["has_uint32"] = halves % 2
        # numpy keeps the last high half in uinteger even once it is used
        state["uinteger"] = int(w[-1] >> 32) if words else buf0
        bg.state = state
    return payload, noise


def run_lane(
    spec: CodeSpec,
    ch: ChannelModel,
    decoder: str,
    count: int,
    rng,
    list_size: int = 8,
    iters: int = 40,
    min_sum: bool = False,
) -> TrialStats:
    """Draw `count` frames from rng, decode them as one batch, tally errors."""
    if spec.kernel.q != 2:
        raise ValueError("channel trials need a binary-alphabet kernel")
    k = spec.k_info
    info_idx = spec.info_indices()
    u, lam = draw_frames(spec, ch, count, rng)
    u_hat, failed = decode_frame(spec, decoder, lam, list_size, iters, min_sum)
    errs = (u_hat[:, info_idx] != u[:, info_idx]).sum(axis=1)
    errs[failed] = k
    return TrialStats(count, int(errs.sum()), int(((errs > 0) | failed).sum()), k)


def _lane_counts(trials: int) -> list[tuple[int, int]]:
    lanes = []
    idx = 0
    left = trials
    while left > 0:
        take = min(LANE_SIZE, left)
        lanes.append((idx, take))
        idx += 1
        left -= take
    return lanes


def _lane_job(args) -> TrialStats:
    spec, ch, decoder, lane_idx, count, seed, list_size, iters, min_sum = args
    rng = np.random.default_rng([seed, lane_idx])
    return run_lane(spec, ch, decoder, count, rng, list_size, iters, min_sum)


def run_trials(
    spec: CodeSpec,
    ch: ChannelModel,
    decoder: str,
    trials: int,
    seed: int,
    list_size: int = 8,
    iters: int = 40,
    min_sum: bool = False,
    jobs: int = 1,
) -> TrialStats:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lanes = _lane_counts(trials)
    args = [
        (spec, ch, decoder, idx, count, seed, list_size, iters, min_sum)
        for idx, count in lanes
    ]
    if jobs > 1 and len(lanes) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_lane_job, args))
    else:
        parts = [_lane_job(a) for a in args]
    out = parts[0]
    for p in parts[1:]:
        out = out.merge(p)
    return out


CSV_HEADER = "decoder,channel,param,N,rate,list_size,iters,trials,ber,fer,seed"


def csv_row(
    decoder: str,
    ch: ChannelModel,
    spec: CodeSpec,
    stats: TrialStats,
    seed: int,
    list_size: int = 1,
    iters: int = 0,
) -> str:
    rate = spec.k_info / spec.n
    return (
        f"{decoder},{ch.kind},{ch.param:g},{spec.n},{rate:g},{list_size},{iters},"
        f"{stats.trials},{stats.ber:.8g},{stats.fer:.8g},{seed}"
    )
