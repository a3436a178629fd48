"""Belief propagation on the butterfly graph of the binary recursion.

One iteration sweeps the tree in the same order as SC: prepare the
check-side message, descend into the first child, prepare the
variable-side message, descend into the second child, then push updated
messages back toward the channel. Only the child-1 ("v") messages persist
between iterations; everything else is recomputed during the sweep. At the
deepest level the children are the input coordinates themselves and their
messages are fixed priors: +-inf for frozen values, 0 for free ones.

Infinite messages of opposite sign can meet on erasure-type evidence; BP
resolves the conflict to 0, raises a flag, and keeps going, so decoding
failures surface as flags rather than exceptions.

The sweep is also the schedule of the hardware BP line model: an optional
tick(depth, node, op, outputs) is called once per message operation, in
sweep order. The size-2 base step ticks u0, u1, x0, x1 after its scalar
updates; every other node ticks e1a0 and u_out before its first child,
a0e1 and v_out before its second, then e1a0, x0_out and x1_out. A tick
only observes; node ids follow 2 * parent + child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import CodeSpec
from .llrops import BP_CLIP, decide, f_plus, f_plus_minsum, f_plus_vec

STOP_RULES = ("adaptive", "frozen", "unchanged", "none")


@dataclass
class BpResult:
    u_hat: np.ndarray
    x_hat: np.ndarray
    iterations: int
    converged: bool
    contradiction: bool


@dataclass
class BpState:
    """Everything BP keeps between and during sweeps.

    mu_v[d] persists across iterations (slot r*(N_d/2)+i for butterfly i of
    node r at depth d); at the deepest depth it holds the odd-coordinate
    priors and is never rewritten. mu_u, u_msg and x_out are scratch,
    rewritten every sweep; scrub_transients poisons them to prove nothing
    else persists.
    """

    m: int
    n: int
    priors: np.ndarray
    mu_v: list = field(default_factory=list)
    mu_u: list = field(default_factory=list)
    u_msg: np.ndarray = None
    x_out: np.ndarray = None
    message_updates: int = 0
    contradiction: bool = False
    min_sum: bool = False

    def scrub_transients(self):
        for arr in self.mu_u:
            arr.fill(np.nan)
        self.u_msg.fill(np.nan)
        self.x_out.fill(np.nan)


def bp_state(spec: CodeSpec, min_sum: bool = False) -> BpState:
    if not spec.kernel.is_arikan:
        raise ValueError("belief propagation is defined for the (u+v, v) kernel")
    m, n = spec.m, spec.n
    mask, vals = spec.frozen_arrays()
    priors = np.zeros(n, dtype=np.float64)
    priors[mask] = np.where(vals[mask] == 0, np.inf, -np.inf)
    st = BpState(m=m, n=n, priors=priors, min_sum=min_sum)
    st.mu_v = [np.zeros(n // 2) for _ in range(m)]
    st.mu_v[m - 1][:] = priors[1::2]
    st.mu_u = [np.zeros(n // 2) for _ in range(m)]
    st.u_msg = np.zeros(n)
    st.x_out = np.zeros(n)
    return st


def _combine_vec(state: BpState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    conflict = np.isinf(a) & np.isinf(b) & (np.sign(a) != np.sign(b))
    with np.errstate(invalid="ignore"):
        s = a + b
    if conflict.any():
        state.contradiction = True
        s = np.where(conflict, 0.0, s)
    finite = np.isfinite(s)
    return np.where(finite, np.clip(s, -BP_CLIP, BP_CLIP), s)


def _combine_scalar(state: BpState, a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        state.contradiction = True
        return 0.0
    s = a + b
    if math.isfinite(s):
        return min(max(s, -BP_CLIP), BP_CLIP)
    return s


def _sweep(state: BpState, d: int, r: int, x_in: np.ndarray, tick=None) -> np.ndarray:
    if len(x_in) == 2:
        fp = f_plus_minsum if state.min_sum else f_plus
        a, b = float(x_in[0]), float(x_in[1])
        pe = float(state.priors[2 * r])
        po = float(state.mu_v[d][r])  # == prior of coordinate 2r+1
        e1a0 = _combine_scalar(state, po, b)
        u_out = fp(a, e1a0)
        state.u_msg[2 * r] = u_out
        a0e1 = fp(pe, a)
        v_out = _combine_scalar(state, a0e1, b)
        state.u_msg[2 * r + 1] = v_out
        x0_out = fp(e1a0, pe)
        x1_out = _combine_scalar(state, a0e1, po)
        state.message_updates += 6
        if tick is not None:
            for op, val in (("u0", u_out), ("u1", v_out), ("x0", x0_out), ("x1", x1_out)):
                tick(d, r, op, val)
        return np.array([x0_out, x1_out])

    half = len(x_in) // 2
    sl = slice(r * half, (r + 1) * half)
    x0 = x_in[0::2]
    x1 = x_in[1::2]
    ms = state.min_sum

    e1a0 = _combine_vec(state, state.mu_v[d][sl], x1)
    u_out = f_plus_vec(x0, e1a0, min_sum=ms)
    if tick is not None:
        tick(d, r, "e1a0", e1a0)
        tick(d, r, "u_out", u_out)
    mu_u = _sweep(state, d + 1, 2 * r, u_out, tick)
    state.mu_u[d][sl] = mu_u
    a0e1 = f_plus_vec(mu_u, x0, min_sum=ms)
    v_out = _combine_vec(state, a0e1, x1)
    if tick is not None:
        tick(d, r, "a0e1", a0e1)
        tick(d, r, "v_out", v_out)
    mu_v = _sweep(state, d + 1, 2 * r + 1, v_out, tick)
    state.mu_v[d][sl] = mu_v
    e1a0 = _combine_vec(state, mu_v, x1)
    x0_out = f_plus_vec(e1a0, mu_u, min_sum=ms)
    x1_out = _combine_vec(state, a0e1, mu_v)
    if tick is not None:
        tick(d, r, "e1a0", e1a0)
        tick(d, r, "x0_out", x0_out)
        tick(d, r, "x1_out", x1_out)
    state.message_updates += 7 * half

    out = np.empty(len(x_in))
    out[0::2] = x0_out
    out[1::2] = x1_out
    return out


def bp_iteration(state: BpState, llr: np.ndarray, tick=None) -> None:
    """One full sweep. Channel LLRs enter unchanged at the top; tick, if
    given, sees every message operation (see the module docstring)."""
    state.x_out[:] = _sweep(state, 0, 0, llr, tick)


def channel_llr(spec: CodeSpec, llr: np.ndarray) -> np.ndarray:
    """Channel LLRs as BP takes them: length N, finite entries clamped to
    [-BP_CLIP, BP_CLIP], infinities passed through untouched."""
    lam = np.asarray(llr, dtype=np.float64)
    if lam.shape != (spec.n,):
        raise ValueError(f"llr must have length {spec.n}")
    return np.where(np.isfinite(lam), np.clip(lam, -BP_CLIP, BP_CLIP), lam)


def _decisions(state: BpState, mask: np.ndarray, vals: np.ndarray) -> np.ndarray:
    u = decide(state.u_msg)
    u[mask] = vals[mask]
    return u


def bp_decisions(state: BpState, lam: np.ndarray, mask: np.ndarray, vals: np.ndarray):
    """(u_hat, x_hat) after the last sweep, by SC's rule ~(L >= 0), so NaN
    decides 1. u_hat pins the frozen coordinates; x_hat decides the channel
    LLRs plus the messages the sweep sent back toward the channel."""
    return _decisions(state, mask, vals), decide(_combine_vec(state, lam, state.x_out))


def bp_decode(
    spec: CodeSpec,
    llr: np.ndarray,
    max_iters: int = 40,
    stop: str = "adaptive",
    min_sum: bool = False,
) -> BpResult:
    if stop not in STOP_RULES:
        raise ValueError(f"stop must be one of {STOP_RULES}")
    lam = channel_llr(spec, llr)
    mask, vals = spec.frozen_arrays()
    state = bp_state(spec, min_sum=min_sum)

    prev_u = None
    converged = False
    iters = 0
    for it in range(1, max_iters + 1):
        bp_iteration(state, lam)
        iters = it
        u_hat = _decisions(state, mask, vals)
        frozen_ok = bool(
            np.all(np.where(vals[mask] == 0, state.u_msg[mask] >= 0, state.u_msg[mask] <= 0))
        )
        unchanged = prev_u is not None and np.array_equal(u_hat, prev_u)
        prev_u = u_hat
        if stop == "frozen" and frozen_ok:
            converged = True
        elif stop == "unchanged" and unchanged:
            converged = True
        elif stop == "adaptive" and (frozen_ok or unchanged):
            converged = True
        if converged:
            break

    u_hat, x_hat = bp_decisions(state, lam, mask, vals)
    return BpResult(u_hat, x_hat, iters, converged, state.contradiction)
