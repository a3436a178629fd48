"""Code construction: choosing which input coordinates to freeze.

Two selectors: exact erasure-probability evolution for the (u+v, v) kernel
on a BEC, and genie-aided Monte-Carlo estimation that works for any binary
kernel and channel model. The Monte-Carlo selector takes its frames in
chunks of at most LANE_SIZE from montecarlo.draw_frames, the frame source
of the simulation lanes, and decodes each chunk in one batched genie
call, of the (u+v, v) recursion on that kernel and of the general-kernel
recursion on any other; a general-kernel chunk holds at most
montecarlo.frames_per_call frames, which bounds its memory. The chunk
size never changes the profile: draw_frames draws frame by frame.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelModel, likelihood_rows_binary
from .kernels import CodeSpec, Kernel, kernel_arikan
from .llrops import LlrContradiction
from .montecarlo import LANE_SIZE, draw_frames, frames_per_call
from .sc import decode_sc_arikan, decode_sc_general


def freeze_worst(badness: np.ndarray, rate: float) -> dict[int, int]:
    """Frozen set (pinned to 0) from a per-coordinate badness score.

    Freezes the ceil(N * (1 - rate)) worst coordinates; equal scores break
    toward the lower index.
    """
    n = len(badness)
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    n_frozen = int(np.ceil(n * (1.0 - rate)))
    order = sorted(range(n), key=lambda i: (-badness[i], i))
    return {i: 0 for i in order[:n_frozen]}


def bec_erasure_profile(m: int, eps: float) -> np.ndarray:
    """Per-input erasure probability after m levels of the binary recursion.

    One level maps a channel with erasure z to the pair (2z - z^2, z^2):
    the check-side combination erases unless both observations survive,
    the variable-side one survives unless both erase.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    vec = [float(eps)]
    for _ in range(m):
        vec = [f(z) for z in vec for f in (lambda z: 2 * z - z * z, lambda z: z * z)]
    return np.array(vec)


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

    Random inputs are encoded and sent; the decoder re-derives every
    coordinate with all earlier coordinates pinned to their true values,
    and we count how often the raw decision disagrees with the truth.
    """
    if kernel.q != 2:
        raise ValueError("Monte-Carlo construction needs a binary kernel")
    rng = np.random.default_rng(rng)
    free = CodeSpec(kernel=kernel, m=m, frozen={})
    counts = np.zeros(free.n, dtype=np.int64)
    step = LANE_SIZE if kernel.is_arikan else min(LANE_SIZE, frames_per_call(free, "sc"))
    for start in range(0, trials, step):
        u, llr = draw_frames(free, channel, min(step, trials - start), rng)
        if kernel.is_arikan:
            res = decode_sc_arikan(free, llr, min_sum=min_sum, genie_u=u)
        else:
            res = decode_sc_general(free, likelihood_rows_binary(llr), genie_u=u)
        if res.failed.any():
            raise LlrContradiction("channel evidence contradicts the transmitted word")
        counts += res.genie_errors.sum(axis=0)
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
