import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarbench.llrops import (
    LlrContradiction,
    decide,
    f_equal_vec,
    f_plus,
    f_plus_minsum,
    f_plus_vec,
)


def _f_plus_direct(a, b):
    # ln((1 + e^{a+b}) / (e^a + e^b)), numerically naive on purpose
    return math.log1p(math.exp(a + b)) - math.log(math.exp(a) + math.exp(b))


def test_f_plus_anchor():
    assert f_plus(2.0, 2.0) == pytest.approx(1.3250, abs=1e-4)


def test_f_plus_symmetric_and_sign():
    assert f_plus(1.5, -2.5) == f_plus(-2.5, 1.5)
    assert f_plus(1.5, -2.5) < 0
    assert f_plus(-1.0, -1.0) > 0


finite_llr = st.floats(-30, 30, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(finite_llr, finite_llr)
def test_f_plus_matches_direct(a, b):
    assert f_plus(a, b) == pytest.approx(_f_plus_direct(a, b), abs=1e-9)


def test_f_plus_infinity_identities():
    inf = math.inf
    assert f_plus(inf, 3.0) == 3.0
    assert f_plus(3.0, inf) == 3.0
    assert f_plus(-inf, 3.0) == -3.0
    assert f_plus(3.0, -inf) == -3.0
    assert f_plus(inf, inf) == inf
    assert f_plus(-inf, -inf) == inf
    assert f_plus(inf, -inf) == -inf
    assert f_plus(inf, 0.0) == 0.0


def test_f_plus_minsum():
    assert f_plus_minsum(2.0, 3.0) == 2.0
    assert f_plus_minsum(-2.0, 3.0) == -2.0
    assert f_plus_minsum(-2.0, -3.0) == 2.0
    assert f_plus_minsum(math.inf, -5.0) == -5.0


@settings(max_examples=200, deadline=None)
@given(finite_llr, finite_llr)
def test_minsum_dominates_exact(a, b):
    # |min-sum| >= |exact| and signs agree
    exact = f_plus(a, b)
    approx = f_plus_minsum(a, b)
    assert abs(approx) >= abs(exact) - 1e-12
    if exact != 0:
        assert math.copysign(1, approx) == math.copysign(1, exact)


def test_f_equal_basic():
    # infinities pass through the equality node; equal ones add up
    got = f_equal_vec(np.array([1.0, math.inf, math.inf]), np.array([2.5, 2.0, math.inf]))
    assert list(got) == [3.5, math.inf, math.inf]


def test_f_equal_conflict_raises():
    with pytest.raises(LlrContradiction):
        f_equal_vec(np.array([math.inf]), np.array([-math.inf]))
    with pytest.raises(LlrContradiction):
        f_equal_vec(np.array([-math.inf]), np.array([math.inf]))


def test_vector_forms_match_scalar():
    rng = np.random.default_rng(7)
    a = rng.normal(0, 5, 64)
    b = rng.normal(0, 5, 64)
    fp = f_plus_vec(a, b)
    fe = f_equal_vec(a, b)
    ms = f_plus_vec(a, b, min_sum=True)
    for i in range(64):
        assert fp[i] == pytest.approx(f_plus(a[i], b[i]), abs=1e-12)
        assert fe[i] == a[i] + b[i]
        assert ms[i] == f_plus_minsum(a[i], b[i])


def test_vector_forms_handle_inf():
    a = np.array([np.inf, -np.inf, np.inf, 2.0])
    b = np.array([3.0, 3.0, np.inf, np.inf])
    fp = f_plus_vec(a, b)
    assert list(fp) == [3.0, -3.0, np.inf, 2.0]
    fe = f_equal_vec(np.array([np.inf, 1.0]), np.array([2.0, -np.inf]))
    assert fe[0] == np.inf and fe[1] == -np.inf


def test_f_plus_vec_rows_match_single_calls():
    # a batch row without infinities must round as an all-finite call does,
    # even when other rows of the batch hold infinities or NaN
    rng = np.random.default_rng(11)
    a = rng.normal(0, 5, (6, 16))
    b = rng.normal(0, 5, (6, 16))
    a[1, 3] = np.inf
    b[4, 0] = -np.inf
    a[4, 5] = np.nan
    for min_sum in (False, True):
        got = f_plus_vec(a, b, min_sum=min_sum)
        for r in range(len(a)):
            want = f_plus_vec(a[r], b[r], min_sum=min_sum)
            assert np.array_equal(got[r], want, equal_nan=True), (min_sum, r)


def test_f_plus_vec_entry_ignores_neighbours():
    # a finite entry must round the same with or without an infinity beside
    # it; these inputs differ in the last bit when the two cases round
    # core + (A - B) and (core + A) - B
    lone = f_plus_vec(np.array([2.61]), np.array([1.89]))
    for a_inf, b_inf in ((np.inf, 1.0), (1.0, -np.inf), (np.inf, np.inf)):
        got = f_plus_vec(np.array([2.61, a_inf]), np.array([1.89, b_inf]))
        assert got[0] == lone[0], (a_inf, b_inf)
        # a +-0 neighbour takes the core + 0.0 shortcut; it must not move this entry
        for zero in (0.0, -0.0):
            got = f_plus_vec(np.array([2.61, a_inf, zero]), np.array([1.89, b_inf, -1.5]))
            assert got[0] == lone[0], (a_inf, b_inf, zero)
            assert got[2].view(np.uint64) == np.float64(0.0).view(np.uint64)


def _f_plus_vec_reference(a, b, min_sum=False):
    # the earlier formulation, kept as the reference: exp and log1p run on
    # every entry, with infinite inputs zeroed, and np.where applies the
    # shortcuts
    sign = np.sign(a) * np.sign(b)
    core = sign * np.minimum(np.abs(a), np.abs(b))
    inf_a = np.isinf(a)
    inf_b = np.isinf(b)
    mixed = (inf_a | inf_b).any()
    if not min_sum:
        fa, fb = (np.where(inf_a, 0.0, a), np.where(inf_b, 0.0, b)) if mixed else (a, b)
        core = core + np.log1p(np.exp(-np.abs(fa + fb))) - np.log1p(np.exp(-np.abs(fa - fb)))
    if not mixed:
        return core
    core = np.where(inf_b, np.where(b > 0, a, -a), core)
    return np.where(inf_a, np.where(a > 0, b, -b), core)


F_PLUS_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e308, -1e308, 40.0, -40.0, 1.5, -2.5]


@pytest.mark.parametrize("min_sum", [False, True])
@pytest.mark.parametrize("finite_only", [False, True])
def test_f_plus_vec_edge_pairs_match_reference(min_sum, finite_only):
    # every pair of edge values, in one call with infinities and in one
    # without; bit for bit, and NaN equals NaN whatever its sign
    vals = [v for v in F_PLUS_EDGES if not (finite_only and np.isinf(v))]
    pairs = np.array([(x, y) for x in vals for y in vals])
    a, b = pairs[:, 0], pairs[:, 1]
    # 1e308 + 1e308 overflows in the exact update, in both formulations
    with np.errstate(over="ignore"):
        got = f_plus_vec(a, b, min_sum=min_sum)
        want = _f_plus_vec_reference(a, b, min_sum=min_sum)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


def test_f_equal_vec_conflict_raises():
    with pytest.raises(LlrContradiction):
        f_equal_vec(np.array([np.inf, 0.0]), np.array([-np.inf, 0.0]))


def test_decide_convention():
    assert decide(0.5) == 0
    assert decide(-0.5) == 1
    assert decide(0.0) == 0  # ties resolve to 0
    assert decide(math.inf) == 0
    assert decide(-math.inf) == 1
    assert decide(math.nan) == 1  # NaN is not >= 0
    assert list(decide(np.array([0.0, -1.0, 3.0, np.nan]))) == [0, 1, 0, 1]
