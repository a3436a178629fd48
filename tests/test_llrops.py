import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarbench import llrops
from polarbench.bp import _combine_vec, bp_state
from polarbench.kernels import CodeSpec, kernel_arikan
from polarbench.llrops import (
    BP_CLIP,
    _formula,
    decide,
    f_equal_vec,
    f_plus,
    f_plus_minsum,
    f_plus_vec,
)

from conftest import numpy_is_libm, run_pytest_under_libm


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "f_plus and f_plus_vec round the ln 2-sized terms of log1p(exp(-|a+b|)) - log1p(exp(-|a-b|)), "
    "which swamps a core of 4.26e-15: f_plus(2**-9, 4.26e-15) is -1.11e-16, the true update +4.2e-18"))
def test_f_plus_keeps_the_sign_of_a_tiny_core():
    # two positive LLRs give a positive check-node update; min-sum gives
    # +4.26e-15 here. Found by a draw of test_minsum_dominates_exact
    a, b = 0.001953125, 4.262657766221322e-15
    assert 2 * math.atanh(math.tanh(a / 2) * math.tanh(b / 2)) > 0
    assert f_plus_minsum(a, b) > 0
    assert f_plus(a, b) > 0
    assert f_plus_vec(np.array([a]), np.array([b]))[0] > 0


def test_f_equal_basic():
    # infinities pass through the equality node; equal ones add up
    failed = np.zeros((), dtype=bool)
    got = f_equal_vec(np.array([1.0, math.inf, math.inf]), np.array([2.5, 2.0, math.inf]), failed)
    assert list(got) == [3.5, math.inf, math.inf]
    assert not failed


def test_f_equal_conflict_marks():
    # opposite infinities mark the row, a 0-d mask for one row, and the
    # entry becomes 0 (no knowledge)
    for a, b in ((math.inf, -math.inf), (-math.inf, math.inf)):
        failed = np.zeros((), dtype=bool)
        got = f_equal_vec(np.array([a, 1.0]), np.array([b, 2.0]), failed)
        assert failed
        assert list(got) == [0.0, 3.0]


def test_vector_forms_match_scalar():
    rng = np.random.default_rng(7)
    a = rng.normal(0, 5, 64)
    b = rng.normal(0, 5, 64)
    fp = f_plus_vec(a, b)
    fe = f_equal_vec(a, b, np.zeros((), dtype=bool))
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
    fe = f_equal_vec(np.array([np.inf, 1.0]), np.array([2.0, -np.inf]), np.zeros((), dtype=bool))
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


def _f_plus_vec_masked(a, b, min_sum=False):
    # the formulation before the single infinity path, kept as a second
    # reference: a call holding infinities runs the formula only on the
    # finite entries with a nonzero core and adds 0.0 to the others
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
    core = np.asarray(core)
    if not min_sum:
        core += 0.0
        live = (core != 0) & ~inf_a & ~inf_b
        if live.any():
            fa, fb = a[live], b[live]
            corr = np.log1p(np.exp(-np.abs(fa + fb)))
            core[live] = (core[live] + corr) - np.log1p(np.exp(-np.abs(fa - fb)))
    with np.errstate(invalid="ignore"):
        np.copyto(core, a * np.sign(b), where=inf_b)
        np.copyto(core, b * np.sign(a), where=inf_a)
    return core


def _same_bits(got, want):
    # same shape and bits; NaN equals NaN whatever its sign or payload
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan]))


@pytest.mark.parametrize("min_sum", [False, True])
def test_f_plus_vec_scalars_and_empty_match_references(min_sum):
    # 0-d arrays, Python floats and size-0 arrays go through the same paths
    # as whole arrays: an infinity must come back as the scalar shortcut
    # gives it, whatever numpy makes of a 0-d product
    # 1e308 + 1e308 overflows in the exact update, in every formulation
    with np.errstate(invalid="ignore", over="ignore"):
        for x in F_PLUS_EDGES:
            for y in F_PLUS_EDGES:
                for a, b in ((x, y), (np.float64(x), np.float64(y)), (np.array(x), np.array(y))):
                    got = f_plus_vec(a, b, min_sum=min_sum)
                    want = _f_plus_vec_masked(a, b, min_sum=min_sum)
                    assert type(got) is type(want), (x, y)
                    assert _same_bits(got, want), (x, y, got, want)
                    assert _same_bits(got, _f_plus_vec_reference(np.asarray(a), np.asarray(b), min_sum)), (x, y)
                if (np.isinf(x) or np.isinf(y)) and not (np.isnan(x) or np.isnan(y)):
                    scalar = (f_plus_minsum if min_sum else f_plus)(x, y)
                    assert _same_bits(got, np.float64(scalar)), (x, y)
    for shape in ((0,), (3, 0), (0, 4)):
        empty = np.zeros(shape)
        got = f_plus_vec(empty, empty, min_sum=min_sum)
        assert got.shape == shape and got.dtype == np.float64
        assert _same_bits(got, _f_plus_vec_masked(empty, empty, min_sum))


def test_f_plus_vec_min_sum_adds_nothing():
    # min-sum forms no sum, so +-1e308 must not overflow (RuntimeWarnings
    # fail the suite); infinities beside them take the other path
    big = np.array([1e308, -1e308, 1e308, -1e308])
    got = f_plus_vec(big, np.array([-1e308, -1e308, 1e308, 1e308]), min_sum=True)
    assert got.tolist() == [-1e308, 1e308, 1e308, -1e308]
    with_inf = np.array([1e308, np.inf])
    assert f_plus_vec(with_inf, -with_inf, min_sum=True).tolist() == [-1e308, -np.inf]
    assert f_plus_vec(1e308, -np.inf, min_sum=True) == -1e308


# the partners of BP's node identities: signed zeros, subnormals, tiny,
# ordinary and huge magnitudes
IDENTITY_PARTNERS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 1e308, -1e308])


@pytest.mark.parametrize("min_sum", [False, True])
def test_f_plus_vec_against_plus_inf_is_the_other_input(min_sum):
    # BP's rate-0 identities: f(+inf, y) and f(y, +inf) are y byte for
    # byte, -0.0 and NaN included, so a sweep may copy y instead
    y = np.append(IDENTITY_PARTNERS, np.nan)
    inf = np.full(y.shape, np.inf)
    assert f_plus_vec(inf, y, min_sum=min_sum).tobytes() == y.tobytes()
    assert f_plus_vec(y, inf, min_sum=min_sum).tobytes() == y.tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_f_plus_vec_of_a_signed_zero_is_plus_zero_only_against_finite(zero):
    # BP's rate-1 identity: under the exact rule a +-0 input makes
    # |a + b| == |a - b|, so (core + A) - B is +0.0 for every finite partner
    z = np.full(IDENTITY_PARTNERS.shape, zero)
    plus_zero = np.zeros(IDENTITY_PARTNERS.shape).tobytes()
    assert f_plus_vec(z, IDENTITY_PARTNERS).tobytes() == plus_zero
    assert f_plus_vec(IDENTITY_PARTNERS, z).tobytes() == plus_zero
    # against +-inf it is +-0, the product of the signs: the identity needs
    # a finite partner
    for inf in (np.inf, -np.inf):
        want = np.float64(math.copysign(0.0, math.copysign(1.0, zero) * inf)).tobytes()
        assert f_plus_vec(np.array([zero]), np.array([inf])).tobytes() == want
        assert f_plus_vec(np.array([inf]), np.array([zero])).tobytes() == want


def _formula_reference(a, b, abs_a, abs_b, min_sum):
    # the formula before its log terms shared one buffer, kept as the
    # reference: the sign-product core, and each log term on its own arrays
    core = np.sign(a) * np.sign(b) * np.minimum(abs_a, abs_b)
    return core if min_sum else core + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


SC_SATURATION = [2.0 ** (1022 - m) for m in (1, 10)]  # SC's bound: a * b overflows, a + b does not
FORMULA_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 2.0**-1022, 2.0**-9, -(2.0**-9), 4.26e-15, -4.26e-15,
                 1.0, -1.5, 700.0, -750.0, BP_CLIP, -BP_CLIP, np.nextafter(BP_CLIP, 0.0),
                 *SC_SATURATION, *(-v for v in SC_SATURATION)]


def _formula_pairs(extra=()):
    # every pair of edge values (extra ones included), then Gaussian pairs
    # with magnitudes from 1e-17 to 30
    vals = FORMULA_EDGES + list(extra)
    grid = np.array([(x, y) for x in vals for y in vals]).T
    rng = np.random.default_rng(29)
    scaled = rng.normal(0.0, 1.0, (2, 2000)) * 10.0 ** rng.uniform(-17.0, 1.5, (2, 2000))
    return np.hstack((grid, scaled))


def _formula_shapes(a, b):
    # 0-d, empty, (N,) and (B, N) views of the same pairs
    yield from ((np.asarray(x), np.asarray(y)) for x, y in zip(a[:40], b[:40]))
    yield np.zeros((0,)), np.zeros((0,))
    yield np.zeros((3, 0)), np.zeros((3, 0))
    yield a, b
    n = len(a) - len(a) % 8
    yield a[:n].reshape(8, -1), b[:n].reshape(8, -1)
    yield a[:n].reshape(-1, 8)[:, ::2], b[:n].reshape(-1, 8)[:, 1::2]  # strided views


@pytest.mark.parametrize("min_sum", [False, True])
def test_formula_matches_its_reference(min_sum):
    # the stacked-buffer formula against the body it replaced, bit for bit,
    # signed zeros included: SC's finite walk calls it as f_plus_finite.
    # No errstate: at SC's saturation bound a * b would overflow, and the
    # suite turns that RuntimeWarning into an error
    a, b = _formula_pairs()
    for x, y in _formula_shapes(a, b):
        got = _formula(x, y, np.abs(x), np.abs(y), min_sum)
        want = _formula_reference(x, y, np.abs(x), np.abs(y), min_sum)
        assert type(got) is type(want)
        assert _same_bits(got, want), (x, y) if np.ndim(x) == 0 else x.shape


@pytest.mark.parametrize("min_sum", [False, True])
def test_f_plus_vec_on_the_formula_matches_its_reference(monkeypatch, min_sum):
    # +-inf and NaN beside the edge pairs go through f_plus_vec's infinity
    # path, which runs the formula on every entry; NaN compares by position
    # only, as its sign bit is not part of the contract
    a, b = _formula_pairs(extra=(np.inf, -np.inf, np.nan))
    shapes = list(_formula_shapes(a, b))
    with np.errstate(invalid="ignore"):
        got = [f_plus_vec(x, y, min_sum=min_sum) for x, y in shapes]
        monkeypatch.setattr(llrops, "_formula", _formula_reference)
        want = [f_plus_vec(x, y, min_sum=min_sum) for x, y in shapes]
    for (x, _), g, w in zip(shapes, got, want):
        assert _same_bits(g, w), x if np.ndim(x) == 0 else x.shape


@settings(max_examples=300, deadline=None)
@given(st.floats(-(2.0**1021), 2.0**1021), st.floats(-(2.0**1021), 2.0**1021), st.booleans())
def test_formula_matches_its_reference_on_any_finite_pair(a, b, min_sum):
    a, b = np.array([a]), np.array([b])
    assert _same_bits(_formula(a, b, np.abs(a), np.abs(b), min_sum),
                      _formula_reference(a, b, np.abs(a), np.abs(b), min_sum))


@pytest.mark.skipif(numpy_is_libm(), reason="numpy already calls libm here: the tests ran on that dispatch")
def test_formula_matches_its_reference_under_libm_dispatch():
    # once more in a child process whose numpy runs exp and log1p through
    # libm: the stacked buffer must keep the bits of either dispatch
    done = run_pytest_under_libm("tests/test_llrops.py", "-k", "formula")
    assert done.returncode == 0, done.stdout[-2000:]
    assert "5 passed" in done.stdout


def _combine_vec_reference(state, a, b):
    # the formulation before in-range sums came back unclamped: every sum
    # goes through the NaN check and the clamp
    s = a + b
    nan = np.isnan(s)
    if nan.any():
        conflict = nan & np.isinf(a) & np.isinf(b)
        if conflict.any():
            state.contradiction[conflict.any(axis=-1)] = True
            s[conflict] = 0.0
    return np.where(np.isfinite(s), np.minimum(np.maximum(s, -BP_CLIP), BP_CLIP), s)


def _combine_rows():
    up, down = np.nextafter(BP_CLIP, np.inf), np.nextafter(-BP_CLIP, -np.inf)
    inf, nan = np.inf, np.nan
    rng = np.random.default_rng(23)
    in_range = rng.normal(0.0, 8.0, (3, 2, 6)).clip(-BP_CLIP / 2, BP_CLIP / 2)
    edges = [
        ([BP_CLIP, -BP_CLIP, 0.0, -0.0, 5e-324, -1.5], [0.0, 0.0, 0.0, -0.0, -5e-324, 1.5]),  # at the clamp
        ([BP_CLIP, -BP_CLIP, 20.0, -0.0, 1.0, 2.0], [5e-15, -5e-15, 20.0, -0.0, 1.0, 2.0]),  # one ulp beyond
        ([up, down, 1.0, 2.0, -0.0, 3.0], [0.0, -0.0, 1.0, 2.0, -0.0, 3.0]),
        ([inf, -inf, inf, 1.0, -0.0, 3.0], [2.0, -7.0, inf, 1.0, -0.0, 3.0]),  # infinities agree
        ([inf, 1.0, -inf, 1.0, 2.0, 3.0], [-inf, 1.0, inf, 1.0, 2.0, 3.0]),  # opposite infinities
        ([nan, 1.0, 2.0, -0.0, 3.0, 4.0], [1.0, 1.0, 2.0, -0.0, 3.0, 4.0]),  # NaN
        ([nan, inf, 2.0, 1.0, 3.0, 4.0], [-inf, -inf, 2.0, 1.0, 3.0, 4.0]),  # NaN beside a conflict
        ([30.0, -30.0, 1e308, -1e308, 0.0, 1.0], [30.0, -30.0, 1.0, -1.0, 0.0, 1.0]),  # clamped
    ]
    return list(in_range) + [np.array(e) for e in edges]


@pytest.mark.parametrize("left_float", [None, 0.0, -0.0, 1.5, BP_CLIP, np.inf, -np.inf])
def test_combine_vec_matches_reference(left_float):
    # every row alone, every pair of rows, and all rows at once, so batches
    # wholly within +-BP_CLIP and batches mixing in-range rows with clamped,
    # infinite, conflicting and NaN rows are both compared, bit for bit,
    # with their contradiction flags; a Python float left operand is how
    # _base_step passes the prior po
    rows = _combine_rows()
    picks = [[i] for i in range(len(rows))] + [[i, j] for i in range(3) for j in range(len(rows))]
    picks.append(list(range(len(rows))))
    spec = CodeSpec(kernel_arikan(), 3, {})
    with np.errstate(invalid="ignore"):
        for pick in picks:
            a, b = (np.stack([rows[i][k] for i in pick]) for k in (0, 1))
            if left_float is not None:
                a = left_float
            got_state, want_state = bp_state(spec, batch=len(pick)), bp_state(spec, batch=len(pick))
            got = _combine_vec(got_state, a, b)
            want = _combine_vec_reference(want_state, a, b)
            assert _same_bits(got, want), (pick, left_float)
            assert np.array_equal(got_state.contradiction, want_state.contradiction), (pick, left_float)
    # the in-range rows alone do take the unclamped return, -0.0 + -0.0 included
    assert _same_bits(_combine_vec(bp_state(spec), np.array([[-0.0, 40.0]]), np.array([[-0.0, 0.0]])),
                      np.array([[-0.0, 40.0]]))


@pytest.mark.parametrize("min_sum", [False, True])
def test_vector_updates_of_a_concatenation_match_separate_calls(min_sum):
    # BP's level passes update all nodes of a level in one call, nodes with
    # +-inf messages beside nodes with none; every non-NaN entry must round
    # as in a call on its own part, signed zeros included
    rng = np.random.default_rng(19)
    edges = [0.0, -0.0, 5e-324, 1e-300, 40.0, -40.0, 1.5, -2.5]

    def draw(n, extra):
        vals = rng.normal(0.0, 5.0, (2, n))
        pick = rng.random((2, n)) < 0.4
        vals[pick] = rng.choice(edges + extra, (2, n))[pick]
        return vals

    a_inf, b_inf = draw(24, [np.inf, -np.inf, np.nan]), draw(24, [np.inf, -np.inf, np.nan])
    a_fin, b_fin = draw(40, []), draw(40, [])
    assert np.isinf(a_inf).any() and np.isinf(b_inf).any() and np.isfinite(a_fin + b_fin).all()

    def combine(a, b):
        state = bp_state(CodeSpec(kernel_arikan(), 1, {}), min_sum=min_sum, batch=2)
        return _combine_vec(state, a, b)

    with np.errstate(invalid="ignore"):
        for update in (lambda a, b: f_plus_vec(a, b, min_sum=min_sum), combine):
            whole = update(np.hstack((a_inf, a_fin)), np.hstack((b_inf, b_fin)))
            for got, want in ((whole[:, :24], update(a_inf, b_inf)), (whole[:, 24:], update(a_fin, b_fin))):
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


def test_f_equal_vec_conflict_marks_only_its_row():
    failed = np.zeros(3, dtype=bool)
    a = np.array([[np.inf, 0.0], [np.inf, 1.0], [-np.inf, np.nan]])
    b = np.array([[-np.inf, 0.0], [np.inf, 1.0], [1.0, 2.0]])
    got = f_equal_vec(a, b, failed)
    assert failed.tolist() == [True, False, False]  # a NaN input is no conflict
    assert got[:2].tolist() == [[0.0, 0.0], [np.inf, 2.0]]
    assert got[2, 0] == -np.inf and np.isnan(got[2, 1])


def test_decide_convention():
    assert decide(0.5) == 0
    assert decide(-0.5) == 1
    assert decide(0.0) == 0  # ties resolve to 0
    assert decide(math.inf) == 0
    assert decide(-math.inf) == 1
    assert decide(math.nan) == 1  # NaN is not >= 0
    assert list(decide(np.array([0.0, -1.0, 3.0, np.nan]))) == [0, 1, 0, 1]
