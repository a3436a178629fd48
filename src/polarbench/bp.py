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

One frame is a batch of one. Every array of BpState takes the batch axis
first, (B, .), and the contradiction flag is a (B,) array; the sweep runs
over the last axis. Every message depends on its own frame alone, and
a frame leaves bp_decode's state when it stops, so each row of a batch
result equals a single-frame call on that row: decisions, iteration
count, convergence and contradiction.

Every node is an outer code of its parent, so the frozen set decides
much of the arithmetic. The sweep reads each node's kind from a table
built once per code and rule from the node plan (CodeSpec.node_plan):
rate-0 when every coordinate is frozen to 0 (priors +inf), rate-1 when
none is frozen. Fed inputs within +-BP_CLIP (two larger finite ones can
sum to inf) while no message is NaN (BP makes no NaN from non-NaN
inputs), a rate-0 node sends back +inf and, under the exact rule, a
rate-1 node +0.0, bit for bit. Under min-sum the zeros a rate-1 node
sends back carry the signs of its data, so it walks.

An unobserved sweep returns that constant at once and records the node
and its input. Nothing else in the sweep reads what the subtree's work
writes: its own mu_v and u_msg entries, and a message count and
contradiction flags that only add up. So that work waits until the root
returns. bp_iteration then runs one level pass per depth and kind over
every subtree recorded there, on (B, k, w) arrays of k nodes of width w,
writing +inf or +0.0 into their mu_v. Every update is elementwise, so
each subtree gets the bits it would get alone. Where one subtree of a
rate-0 pass has a mu that is not +inf throughout (a walk left it), the
pass computes f(x0, e1a0) for all of them, and against e1a0 = +inf that
is x0 bit for bit. Ticked and NaN sweeps record nothing: they walk every
node. An unobserved size-2 node with a frozen left coordinate runs every
frame at once in numpy. f of two finite LLRs at the leaves stays on
Python floats, through math.exp and math.log1p: numpy's SIMD exp and
log1p can round differently in the last bit.

A walked node takes three f updates by exact identities, the rate-0 and
rate-1 rules of simplified SC (Alamdar-Yazdi and Kschischang, IEEE Commun.
Lett. 2011), each keyed on a child's kind and confirmed on the message
values (_identity). left0: the left child is rate-0 and sent back +inf
throughout, so a0e1 is x0 and x0_out is e1a0, as f(+inf, y) is y byte for
byte. right0: the right child is rate-0 and e1a0 is +inf throughout, so
u_out is x0. left1, exact rule only: the left child is rate-1 and sent
back +-0 throughout, so a0e1 is +0.0 if x0 is finite throughout, and
x0_out is +0.0 if e1a0 is (against +-inf the exact f of +-0 is +-0).

The sweep is also the schedule of the hardware BP line model: an optional
tick(depth, node, op, outputs) is called once per message operation, in
sweep order, and only on a batch of one frame. The size-2 base step ticks
u0, u1, x0, x1 after its scalar updates; every other node ticks e1a0 and
u_out before its first child, a0e1 and v_out before its second, then
e1a0, x0_out and x1_out. A tick only observes. An observed sweep, like
one that finds a NaN in its LLRs or in mu_v, skips no node: it runs no
level pass and no numpy base step, whose work a tick could not see in
sweep order, but takes the node identities, which give every operation
its own bits. Node ids follow 2 * parent + child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import check_llr
from .kernels import CodeSpec
from .llrops import BP_CLIP, decide, f_plus, f_plus_minsum, f_plus_vec

STOP_RULES = ("adaptive", "frozen", "unchanged", "none")


@dataclass
class BpResult:
    """Decisions of one frame, or of a batch row by row.

    For (N,) input iterations, converged and contradiction are scalars; for
    (B, N) input they are (B,) arrays, one entry per frame.
    """

    u_hat: np.ndarray
    x_hat: np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray
    contradiction: bool | np.ndarray


@dataclass
class BpState:
    """Everything BP keeps between and during sweeps, for B frames.

    Every array has the frame axis first. Only mu_v persists across
    sweeps: mu_v[d][:, r*(N_d/2)+i] for butterfly i of node r at depth
    d; at the deepest depth it holds the odd-coordinate priors and is never
    rewritten. u_msg and x_out are rewritten every sweep;
    scrub_transients poisons them to prove nothing else persists.
    contradiction is (B,), and message_updates counts the updates of
    every frame swept. spec is the code, whose node plan gives each
    node's kind; like priors it belongs to the code, not a frame.
    """

    m: int
    priors: np.ndarray
    spec: CodeSpec
    mu_v: list
    u_msg: np.ndarray
    x_out: np.ndarray
    contradiction: np.ndarray
    message_updates: int = 0
    min_sum: bool = False

    def scrub_transients(self):
        self.u_msg.fill(np.nan)
        self.x_out.fill(np.nan)

    def take(self, rows: np.ndarray) -> "BpState":
        """A state holding copies of the given frames, with message_updates
        counting from 0."""
        return BpState(self.m, self.priors, self.spec, [v[rows] for v in self.mu_v], self.u_msg[rows],
                       self.x_out[rows], self.contradiction[rows], min_sum=self.min_sum)


def bp_state(spec: CodeSpec, min_sum: bool = False, batch: int = 1) -> BpState:
    """Fresh state for `batch` frames; one frame is a batch of one."""
    if not spec.kernel.is_arikan:
        raise ValueError("belief propagation is defined for the (u+v, v) kernel")
    m, n = spec.m, spec.n
    mask, vals = spec.frozen_arrays()
    priors = np.zeros(n, dtype=np.float64)
    priors[mask] = np.where(vals[mask] == 0, np.inf, -np.inf)
    mu_v = [np.zeros((batch, n // 2)) for _ in range(m)]
    mu_v[m - 1][:] = priors[1::2]
    return BpState(m, priors, spec, mu_v, np.zeros((batch, n)), np.zeros((batch, n)),
                   np.zeros(batch, dtype=bool), min_sum=min_sum)


def _combine_vec(state: BpState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, finite sums clamped to +-BP_CLIP; opposite infinities give 0
    and flag their frame. Callers silence numpy's invalid-value warning.

    Most sums already lie within +-BP_CLIP; they come back as they are,
    which is exact: the clamp returns an in-range value unchanged, -0.0
    included. A NaN or an infinity fails that test and takes the full
    path."""
    s = a + b
    top = np.maximum.reduce(np.abs(s), axis=None, initial=0.0)  # max() without its wrapper
    if top <= BP_CLIP:
        return s
    if np.isnan(top):  # the maximum of values holding a NaN is NaN
        # a NaN sum of two infinities is a conflict; other NaNs came in as NaN
        conflict = np.isnan(s) & np.isinf(a) & np.isinf(b)
        if conflict.any():
            state.contradiction[conflict.any(axis=-1)] = True
            s[conflict] = 0.0
    return np.where(np.isfinite(s), np.minimum(np.maximum(s, -BP_CLIP), BP_CLIP), s)


def _combine_scalar(hits: list, row: int, a: float, b: float) -> float:
    """Scalar _combine_vec for one frame; a conflict appends `row` to hits."""
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        hits.append(row)
        return 0.0
    s = a + b
    if math.isfinite(s):
        return min(max(s, -BP_CLIP), BP_CLIP)
    return s


def _base_step(state: BpState, d: int, r: int, x_in: np.ndarray, tick) -> np.ndarray:
    """The size-2 node r. With its left coordinate frozen (pe = +-inf) every
    f but u0's is a sign flip, so an unobserved step runs all frames at once
    in numpy; otherwise it goes one frame at a time on Python floats."""
    fp = f_plus_minsum if state.min_sum else f_plus
    pe, po = state.priors[2 * r : 2 * r + 2].tolist()  # po == mu_v[d][..., r]
    state.message_updates += 3 * x_in.size
    if tick is None and math.isinf(pe):
        a, b = x_in[:, :1], x_in[:, 1:]
        a0e1 = a if pe > 0 else -a
        e1a0 = _combine_vec(state, po, b)
        state.u_msg[:, 2 * r] = list(map(fp, a.ravel().tolist(), e1a0.ravel().tolist()))
        state.u_msg[:, 2 * r + 1 : 2 * r + 2] = _combine_vec(state, a0e1, b)
        return np.concatenate((e1a0 if pe > 0 else -e1a0, _combine_vec(state, a0e1, po)), axis=1)
    u, x, hits = [], [], []
    for row, (a, b) in enumerate(x_in.reshape(-1, 2).tolist()):
        e1a0 = _combine_scalar(hits, row, po, b)
        a0e1 = fp(pe, a)
        u.append((fp(a, e1a0), _combine_scalar(hits, row, a0e1, b)))
        x.append((fp(e1a0, pe), _combine_scalar(hits, row, a0e1, po)))
    if hits:
        state.contradiction[hits] = True
    state.u_msg[..., 2 * r : 2 * r + 2] = np.array(u).reshape(x_in.shape)
    if tick is not None:
        for op, val in zip(("u0", "u1", "x0", "x1"), u[0] + x[0]):
            tick(d, r, op, val)
    return np.array(x).reshape(x_in.shape)


def _level_pass(state: BpState, d: int, free: bool, nodes: np.ndarray, x: np.ndarray) -> None:
    """The rate-0 or rate-1 subtrees of the given nodes at depth d, one
    level at a time. x holds what each was fed, (B, len(nodes), width), and
    each level works on (B, k, w) arrays of its k nodes of width w, subtree
    by subtree. A rate-0 child sends back +inf, so the left input is
    f(x0, e1a0) and the right one x0 + x1; a rate-1 child sends back +0.0,
    and f(+0.0, x0) is +0.0, so the right input is 0.0 + x1. At the leaves
    e1a0 is +inf (rate-0) or the right input (rate-1). free says which:
    True for rate-1 subtrees."""
    rows, count, width = x.shape
    out = 0.0 if free else np.inf
    state.message_updates += x.size // 2 * (7 * (state.m - 1 - d) + 6)
    for dd in range(d, state.m):
        x0, x1 = x[..., 0::2], x[..., 1::2]
        right = _combine_vec(state, 0.0 if free else x0, x1)
        if dd < state.m - 1:
            # a view (mu_v is C-contiguous) whose block r holds the width / 2
            # butterflies of subtree r at this level
            stored = state.mu_v[dd].reshape(rows, 2**d, width // 2)
            mu = stored[:, nodes].reshape(x0.shape)
            full = not free and np.minimum.reduce(mu, axis=None, initial=np.inf) == np.inf  # mu +inf throughout
            left = x0 if full else f_plus_vec(x0, _combine_vec(state, mu, x1), min_sum=state.min_sum)
            stored[:, nodes] = out
        elif free:
            left = np.fromiter(map(f_plus, x0.ravel().tolist(), right.ravel().tolist()), float, x0.size)
            left = left.reshape(x0.shape)
        else:
            left = x0
        x = np.empty((rows, 2 * x0.shape[1], x0.shape[2]))
        x[:, 0::2] = left
        x[:, 1::2] = right
    state.u_msg.reshape(rows, 2**d, width)[:, nodes] = x.reshape(rows, count, width)


def _node_kinds(spec: CodeSpec, key) -> tuple:
    """Per depth d < m, the kind of each node of width N / 2**d, read from
    the node plan: "rate0" (every input frozen to 0), "rate1" (none frozen,
    exact rule only: under min-sum a rate-1 node walks) or None. key is
    ("bp_kinds", min_sum)."""
    kinds = []
    for d in range(spec.m):
        width = spec.n >> d
        frozen, zero = spec.node_plan(width)
        kinds.append(tuple("rate0" if f == width and z else "rate1" if f == 0 and not key[1] else None
                           for f, z in zip(frozen.tolist(), zero.tolist())))
    return tuple(kinds)


def _identity(kind, msg: np.ndarray, partner: np.ndarray):
    """f(msg, partner), bit for bit, where a node identity gives it without
    the formula, else None. msg is what a child of this kind sent back (or,
    for a right child, e1a0). "rate0": msg is +inf throughout, and f(+inf,
    y) is y. "rate1": msg is +-0 throughout and partner finite, and the
    exact f is then +0.0 (with an infinite partner it would be +-0)."""
    if kind == "rate0" and np.minimum.reduce(msg, axis=None, initial=np.inf) == np.inf:
        return partner
    if kind == "rate1" and not np.logical_or.reduce(msg, axis=None) and np.logical_and.reduce(
            np.isfinite(partner), axis=None):
        return np.zeros(partner.shape)
    return None


def _sweep(state: BpState, d: int, r: int, x_in: np.ndarray, kinds: tuple, deferred: dict, tick) -> np.ndarray:
    kind = kinds[d][r]
    if tick is None and kind and np.maximum.reduce(np.abs(x_in), axis=None, initial=0.0) <= BP_CLIP:
        deferred.setdefault((d, kind), []).append((r, x_in))  # bp_iteration runs its level pass
        return np.full(x_in.shape, 0.0 if kind == "rate1" else np.inf)
    if x_in.shape[-1] == 2:
        return _base_step(state, d, r, x_in, tick)

    half = x_in.shape[-1] // 2
    sl = slice(r * half, (r + 1) * half)
    left, right = kinds[d + 1][2 * r : 2 * r + 2]
    # contiguous copies: ufuncs on strided (B, .) views take numpy's slower
    # path, and the node reads x0 and x1 five times
    x0 = np.ascontiguousarray(x_in[..., 0::2])
    x1 = np.ascontiguousarray(x_in[..., 1::2])
    ms = state.min_sum

    e1a0 = _combine_vec(state, state.mu_v[d][..., sl], x1)
    u_out = _identity(right, e1a0, x0)
    if u_out is None:
        u_out = f_plus_vec(x0, e1a0, min_sum=ms)
    if tick is not None:
        tick(d, r, "e1a0", e1a0)
        tick(d, r, "u_out", u_out)
    mu_u = _sweep(state, d + 1, 2 * r, u_out, kinds, deferred, tick)
    a0e1 = _identity(left, mu_u, x0)
    if a0e1 is None:
        a0e1 = f_plus_vec(mu_u, x0, min_sum=ms)
    v_out = _combine_vec(state, a0e1, x1)
    if tick is not None:
        tick(d, r, "a0e1", a0e1)
        tick(d, r, "v_out", v_out)
    mu_v = _sweep(state, d + 1, 2 * r + 1, v_out, kinds, deferred, tick)
    state.mu_v[d][..., sl] = mu_v
    e1a0 = _combine_vec(state, mu_v, x1)
    x0_out = _identity(left, mu_u, e1a0)
    if x0_out is None:
        x0_out = f_plus_vec(e1a0, mu_u, min_sum=ms)
    x1_out = _combine_vec(state, a0e1, mu_v)
    if tick is not None:
        tick(d, r, "e1a0", e1a0)
        tick(d, r, "x0_out", x0_out)
        tick(d, r, "x1_out", x1_out)
    state.message_updates += 7 * (x_in.size // 2)

    out = np.empty(x_in.shape)
    out[..., 0::2] = x0_out
    out[..., 1::2] = x1_out
    return out


def _observe_nothing(d, r, op, outputs):
    """A tick that observes nothing, for a sweep that must skip no node: it
    runs no level pass or numpy base step, but takes the node identities."""


def bp_iteration(state: BpState, llr: np.ndarray, tick=None) -> None:
    """One full sweep. Channel LLRs enter unchanged at the top, with the
    state's shape (B, N). tick, if given, sees every message operation of
    a batch of one frame (see the module docstring)."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != state.x_out.shape:
        raise ValueError(f"llr shape {llr.shape} does not match the state's {state.x_out.shape}")
    if tick is not None and len(llr) != 1:
        raise ValueError("tick observes a single frame; a batch sweep takes none")
    # a NaN breaks the level passes and the numpy base step; a maximum is NaN
    # where its values hold one
    if tick is None and any(np.isnan(np.maximum.reduce(v, axis=None, initial=-np.inf)) for v in (llr, *state.mu_v)):
        tick = _observe_nothing
    kinds = state.spec.cached(("bp_kinds", state.min_sum), _node_kinds)
    deferred = {}  # (depth, kind) -> [(node, input)] of the subtrees whose level pass waits
    with np.errstate(invalid="ignore"):
        state.x_out[...] = _sweep(state, 0, 0, llr, kinds, deferred, tick)
        for (d, kind), group in deferred.items():
            nodes, inputs = zip(*group)
            x = np.concatenate(inputs, axis=1).reshape(len(llr), len(nodes), inputs[0].shape[1])
            _level_pass(state, d, kind == "rate1", np.array(nodes), x)


def channel_llr(spec: CodeSpec, llr: np.ndarray) -> np.ndarray:
    """Channel LLRs as BP takes them: shape (N,) or (B, N), finite entries
    clamped to [-BP_CLIP, BP_CLIP], infinities passed through untouched."""
    lam = check_llr(llr, spec.n)
    return np.where(np.isfinite(lam), np.clip(lam, -BP_CLIP, BP_CLIP), lam)


def _decisions(state: BpState, mask: np.ndarray, vals: np.ndarray) -> np.ndarray:
    u = decide(state.u_msg)
    u[..., mask] = vals[mask]
    return u


def bp_decisions(state: BpState, lam: np.ndarray, mask: np.ndarray, vals: np.ndarray):
    """(u_hat, x_hat) after the last sweep, by SC's rule ~(L >= 0), so NaN
    decides 1. u_hat pins the frozen coordinates; x_hat decides the channel
    LLRs plus the messages the sweep sent back toward the channel."""
    with np.errstate(invalid="ignore"):
        x_belief = _combine_vec(state, lam, state.x_out)
    return _decisions(state, mask, vals), decide(x_belief)


def bp_decode(
    spec: CodeSpec,
    llr: np.ndarray,
    max_iters: int = 40,
    stop: str = "adaptive",
    min_sum: bool = False,
) -> BpResult:
    """BP decoding of one frame, shape (N,), or of a batch, shape (B, N).

    Each frame stops on its own, by `stop`: "frozen" once every frozen
    coordinate's message agrees with its value, "unchanged" once u_hat
    repeats, "adaptive" at the first of the two, "none" after max_iters.
    The state holds only the frames still running. A frame that stops
    leaves it: its u_hat and x_hat come from its own rows (bp_decisions),
    and its iterations, converged and contradiction are final from then on.
    """
    if stop not in STOP_RULES:
        raise ValueError(f"stop must be one of {STOP_RULES}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    lam = channel_llr(spec, llr)
    single = lam.ndim == 1
    if single:
        lam = lam[None]
    b = len(lam)
    mask, vals = spec.frozen_arrays()
    want_pos = vals[mask] == 0
    state = bp_state(spec, min_sum=min_sum, batch=b)

    u_hat, x_hat = np.empty(lam.shape, np.int64), np.empty(lam.shape, np.int64)
    iters = np.zeros(b, dtype=np.int64)
    converged, contradiction = np.zeros(b, dtype=bool), np.zeros(b, dtype=bool)
    prev_u = np.full(lam.shape, -1, dtype=np.int64)  # no decision repeats at iteration 1
    active = np.arange(b)  # the frame of each row of state
    for it in range(1, max_iters + 1):
        bp_iteration(state, lam)
        u_now = _decisions(state, mask, vals)
        msgs = state.u_msg[:, mask]
        frozen_ok = np.where(want_pos, msgs >= 0, msgs <= 0).all(axis=1)
        unchanged = (u_now == prev_u).all(axis=1)
        done = {
            "frozen": frozen_ok,
            "unchanged": unchanged,
            "adaptive": frozen_ok | unchanged,
            "none": np.zeros(len(active), bool),
        }[stop]
        ends = done | (it == max_iters)
        prev_u = u_now
        if ends.any():
            stopped, running = np.flatnonzero(ends), np.flatnonzero(~ends)
            ended, rows = state.take(stopped), active[stopped]
            u_hat[rows], x_hat[rows] = bp_decisions(ended, lam[stopped], mask, vals)
            iters[rows], converged[rows], contradiction[rows] = it, done[stopped], ended.contradiction
            state, lam, prev_u, active = state.take(running), lam[running], u_now[running], active[running]
            if not len(active):
                break

    if single:
        return BpResult(u_hat[0], x_hat[0], int(iters[0]), bool(converged[0]), bool(contradiction[0]))
    return BpResult(u_hat, x_hat, iters, converged, contradiction)
