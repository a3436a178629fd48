"""Code construction: choosing which input coordinates to freeze.

Two selectors: exact erasure-probability evolution for the (u+v, v) kernel
on a BEC, and genie-aided Monte-Carlo estimation that works for any binary
kernel and channel model. The Monte-Carlo selector takes its frames in
chunks of at most LANE_SIZE from montecarlo.draw_frames, the frame source
of the simulation lanes, and decodes each chunk with SC in genie mode
through montecarlo.decode_frame, the dispatch of the simulation lanes,
which also bounds the memory of a general-kernel chunk. The chunk size
never changes the profile: draw_frames leaves rng where drawing frame by
frame would.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelModel
from .kernels import CodeSpec, Kernel, check_length, kernel_arikan
from .llrops import LlrContradiction
from .montecarlo import LANE_SIZE, decode_frame, draw_frames


def freeze_worst(badness: np.ndarray, rate: float) -> dict[int, int]:
    """Frozen set (pinned to 0) from a per-coordinate badness score.

    Freezes the ceil(N * (1 - rate)) worst coordinates; equal scores break
    toward the lower index.
    """
    n = len(badness)
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    n_frozen = int(np.ceil(n * (1.0 - rate)))
    order = np.argsort(-np.asarray(badness), kind="stable")
    return {i: 0 for i in order[:n_frozen].tolist()}


def bec_erasure_profile(m: int, eps: float) -> np.ndarray:
    """Per-input erasure probability after m levels of the binary recursion.

    One level maps a channel with erasure z to the pair (2z - z^2, z^2):
    the check-side combination erases unless both observations survive,
    the variable-side one survives unless both erase.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    check_length(2, m)
    z = np.array([float(eps)])
    for _ in range(m):
        z = np.stack([2 * z - z * z, z * z], axis=-1).reshape(-1)
    return z


def construct_bec(m: int, eps: float, rate: float) -> CodeSpec:
    z = bec_erasure_profile(m, eps)
    return CodeSpec(kernel=kernel_arikan(), m=m, frozen=freeze_worst(z, rate))


def montecarlo_error_profile(
    kernel: Kernel,
    m: int,
    channel: ChannelModel,
    trials: int,
    rng,
    min_sum: bool = False,
) -> np.ndarray:
    """Genie-aided decision error rate per input coordinate.

    Random inputs are encoded and sent; SC decides every coordinate with
    all earlier coordinates pinned to their true values, and we count how
    often its decision disagrees with the truth. min_sum (the min-sum f)
    is for the (u+v, v) kernel only; with another kernel it is a
    ValueError.
    """
    if kernel.q != 2:
        raise ValueError("Monte-Carlo construction needs a binary kernel")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng)
    free = CodeSpec(kernel=kernel, m=m, frozen={})
    counts = np.zeros(free.n, dtype=np.int64)
    for start in range(0, trials, LANE_SIZE):
        u, llr = draw_frames(free, channel, min(LANE_SIZE, trials - start), rng)
        u_hat, failed = decode_frame(free, "sc", llr, min_sum=min_sum, genie_u=u)
        if failed.any():
            raise LlrContradiction("channel evidence contradicts the transmitted word")
        counts += (u_hat != u).sum(axis=0)
    return counts / trials


def construct_montecarlo(
    kernel: Kernel,
    m: int,
    channel: ChannelModel,
    rate: float,
    trials: int,
    rng,
    min_sum: bool = False,
) -> CodeSpec:
    err = montecarlo_error_profile(kernel, m, channel, trials, rng, min_sum=min_sum)
    return CodeSpec(kernel=kernel, m=m, frozen=freeze_worst(err, rate))
