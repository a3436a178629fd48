"""Brute-force references: exhaustive ML decoding and exact marginal LLRs.

Deliberately independent of the production decoders: every hypothesis
is enumerated, encoded and scored on its own, and totals are accumulated
with math.fsum. Exponential on purpose, behind a size guard; used to
freeze expected values for the test suite and to check list decoders.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from polarbench.kernels import CodeSpec, encode_unchecked

ORACLE_LIMIT = 1 << 20  # max enumerated hypotheses


class OracleTooLarge(ValueError):
    pass


def _log_weight(row, symbol: int) -> float:
    w = row[symbol]
    if w <= 0.0:
        return -math.inf
    return math.log(w)


def ml_decode(spec: CodeSpec, likelihood_rows: np.ndarray):
    """Exhaustive maximum-likelihood decoding.

    likelihood_rows has shape (N, q), one nonnegative row per output
    position (any positive per-row scaling is fine). Returns
    (u_best, x_best, posterior) where posterior is the probability of the
    winning word among all q**K hypotheses. Ties keep the lexicographically
    smallest information payload.
    """
    q = spec.kernel.q
    k = spec.k_info
    if q**k > ORACLE_LIMIT:
        raise OracleTooLarge(f"q**K = {q**k} exceeds {ORACLE_LIMIT}")
    rows = np.asarray(likelihood_rows, dtype=np.float64)
    if rows.shape != (spec.n, q):
        raise ValueError("likelihood_rows must have shape (N, q)")

    best_logp = -math.inf
    best_u = None
    best_x = None
    all_logp = []
    for payload in itertools.product(range(q), repeat=k):
        u = spec.assemble(payload)
        x = encode_unchecked(spec.kernel, u)
        logp = math.fsum(_log_weight(rows[j], int(x[j])) for j in range(spec.n))
        all_logp.append(logp)
        if logp > best_logp:  # strict: first (lexicographically smallest) wins ties
            best_logp = logp
            best_u = u
            best_x = x
    if best_u is None or best_logp == -math.inf:
        # every hypothesis has zero likelihood; keep the first as a stand-in
        payload0 = (0,) * k
        best_u = spec.assemble(payload0)
        best_x = encode_unchecked(spec.kernel, best_u)
        return best_u, best_x, 0.0
    shift = max(all_logp)
    total = math.fsum(math.exp(lp - shift) for lp in all_logp if lp > -math.inf)
    posterior = math.exp(best_logp - shift) / total
    return best_u, best_x, posterior


def ml_scores(spec: CodeSpec, likelihood_rows: np.ndarray):
    """Log-likelihood of every hypothesis, in payload-lexicographic order."""
    q = spec.kernel.q
    k = spec.k_info
    if q**k > ORACLE_LIMIT:
        raise OracleTooLarge(f"q**K = {q**k} exceeds {ORACLE_LIMIT}")
    rows = np.asarray(likelihood_rows, dtype=np.float64)
    out = []
    for payload in itertools.product(range(q), repeat=k):
        u = spec.assemble(payload)
        x = encode_unchecked(spec.kernel, u)
        out.append(
            (
                payload,
                math.fsum(_log_weight(rows[j], int(x[j])) for j in range(spec.n)),
            )
        )
    return out


def marginal_llr_bruteforce(
    spec: CodeSpec,
    likelihood_rows: np.ndarray,
    target: int,
    decided: dict[int, int],
) -> np.ndarray:
    """Exact decision LLRs for input coordinate `target`.

    decided pins earlier coordinates (frozen and already-decided alike);
    every coordinate after `target` is summed out. Returns length-q vector
    L[t] = ln(S_0 / S_t) with S_t the total likelihood of u_target = t,
    using the conventions: S_t = 0 -> +inf, S_0 = 0 with S_t > 0 -> -inf,
    both zero -> +inf, and L[0] = 0.
    """
    q = spec.kernel.q
    n = spec.n
    rows = np.asarray(likelihood_rows, dtype=np.float64)
    n_tail = n - target - 1
    if q**n_tail > ORACLE_LIMIT:
        raise OracleTooLarge("too many free coordinates to sum over")

    # one input word per tail: every coordinate after target enumerated
    u = np.zeros((q**n_tail, n), dtype=np.int64)
    for i, v in decided.items():
        u[:, i] = v
    u[:, target + 1 :] = np.arange(q**n_tail)[:, None] // q ** np.arange(n_tail - 1, -1, -1) % q
    totals = []
    for t in range(q):
        u[:, target] = t
        x = encode_unchecked(spec.kernel, u)
        # each word's product of likelihoods, left to right; a zero stays zero
        prod = np.ones(len(u))
        for j in range(n):
            np.multiply(prod, rows[j, x[:, j]], out=prod, where=prod != 0.0)
        totals.append(math.fsum(prod.tolist()))

    out = np.zeros(q, dtype=np.float64)
    s0 = totals[0]
    for t in range(1, q):
        st = totals[t]
        if st == 0.0:
            out[t] = math.inf
        elif s0 == 0.0:
            out[t] = -math.inf
        else:
            out[t] = math.log(s0 / st)
    return out
