"""GF(q) arithmetic as lookup tables, q = p^k <= 256.

Symbol s stands for the polynomial over Z_p whose coefficients are the
base-p digits of s, lowest digit = constant term. add_table, mul_table and
neg_table hold every sum, product and negation; each is built by array
arithmetic on those digit vectors. Products are reduced modulo the first
monic degree-k polynomial, its k lower coefficients taken in
itertools.product order (constant term most significant), that is not a
product of two monic polynomials of lower degree.

The tables are the field's arithmetic: callers index them directly, and an
Alphabet adds only check_symbols and matvec, the generator-matrix product
that encoding is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_Q = 256


class AlphabetError(ValueError):
    """Raised when q is not a supported prime power."""


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise AlphabetError(f"q={q} must be >= 2")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1  # q itself prime
    k, n = 0, q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise AlphabetError(f"q={q} is not a prime power")
    return p, k


def _digits(count: int, p: int, width: int) -> np.ndarray:
    """(count, width) base-p digits of 0..count-1, lowest digit first."""
    return np.arange(count)[:, None] // p ** np.arange(width) % p


def _poly_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of a*b mod p, lowest first, over broadcast leading axes."""
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (a.shape[-1] + b.shape[-1] - 1,), dtype=np.int64)
    for i in range(a.shape[-1]):
        out[..., i : i + b.shape[-1]] += a[..., i, None] * b
    return out % p


def _modulus(p: int, k: int) -> np.ndarray:
    """Lower k coefficients of the reduction polynomial (lowest first)."""
    def monic(d):
        return np.hstack([_digits(p**d, p, d), np.ones((p**d, 1), dtype=np.int64)])

    # candidate index packs the lower coefficients, constant term first
    radix = p ** np.arange(k - 1, -1, -1)
    reducible = np.zeros(p**k, dtype=bool)
    for d in range(1, k // 2 + 1):
        prods = _poly_mul(monic(d)[:, None], monic(k - d)[None, :], p)
        reducible[prods[..., :k] @ radix] = True
    first = int(np.argmin(reducible))
    return first // radix % p


@dataclass(eq=False)
class Alphabet:
    """Finite field on symbols 0..q-1, held as its add, mul and neg tables:
    a + b is add_table[a, b], a * b is mul_table[a, b], -a is neg_table[a]."""

    q: int
    p: int = field(init=False)
    k: int = field(init=False)
    add_table: np.ndarray = field(init=False, repr=False)
    mul_table: np.ndarray = field(init=False, repr=False)
    neg_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.q > MAX_Q:
            raise AlphabetError(f"q={self.q} exceeds table limit {MAX_Q}")
        self.p, self.k = _prime_power(self.q)
        p, k, q = self.p, self.k, self.q
        digits = _digits(q, p, k)
        radix = p ** np.arange(k)
        prod = _poly_mul(digits[:, None], digits[None, :], p)
        # x^k = -(lower terms of the modulus): fold degrees >= k down, top first
        modulus = _modulus(p, k)
        for d in range(2 * k - 2, k - 1, -1):
            prod[..., d - k : d] -= prod[..., d, None] * modulus
        self.add_table = (digits[:, None] + digits[None, :]) % p @ radix
        self.mul_table = prod[..., :k] % p @ radix
        self.neg_table = -digits % p @ radix

    def matvec(self, u, mat):
        """u . mat over the field, u length n, mat (n, m): the reference
        that encode is checked against."""
        mat = np.asarray(mat)
        acc = np.zeros(mat.shape[1], dtype=np.int64)
        for ui, row in zip(np.asarray(u), mat):
            acc = self.add_table[acc, self.mul_table[ui, row]]
        return acc

    def check_symbols(self, arr) -> None:
        arr = np.asarray(arr)
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise ValueError(f"symbols out of range for q={self.q}")


@lru_cache(maxsize=None)
def alphabet(q: int) -> Alphabet:
    return Alphabet(q)
