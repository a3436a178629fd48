import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarbench.channels import likelihood_rows_binary
from polarbench.kernels import (
    CodeSpec,
    _words,
    encode,
    encode_unchecked,
    kernel_arikan,
    kernel_linear,
)
from polarbench.llrops import LlrContradiction
from polarbench.oracle import marginal_llr_bruteforce
from polarbench.sc import (
    UnsupportedCodeError,
    _prep_outer,
    decode_sc_arikan,
    decode_sc_general,
    scores_to_llr,
)

from conftest import G4, random_llr, spec_all_free


def test_sc_n4_trace_fixture(arikan):
    # frozen fixture: successive decision LLRs for lambda = (1.2, -0.7, 0.4, 2.1),
    # all coordinates free; cross-checked against exhaustive marginals
    spec = spec_all_free(arikan, 2)
    res = decode_sc_arikan(spec, np.array([1.2, -0.7, 0.4, 2.1]), trace=True)
    assert list(res.u_hat) == [1, 0, 1, 0]
    assert list(res.x_hat) == [0, 1, 0, 0]
    want = [-0.055766495865, 0.676413479009, -1.474714634122, 4.4]
    assert res.decision_llrs == pytest.approx(want, abs=1e-10)


def test_sc_matches_bruteforce_marginals(arikan, rng):
    # each successive-cancellation LLR equals the exact marginal given the
    # decisions made so far
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 0, 4: 1})
    for _ in range(5):
        llr = random_llr(rng, 8)
        res = decode_sc_arikan(spec, llr, trace=True)
        rows = likelihood_rows_binary(llr)
        decided = {}
        for i in range(8):
            want = marginal_llr_bruteforce(spec, rows, i, decided)
            assert res.decision_llrs[i] == pytest.approx(want[1], abs=1e-9)
            decided[i] = int(res.u_hat[i])
        assert np.array_equal(res.x_hat, encode_unchecked(arikan, res.u_hat))


def test_sc_hook_released_on_return(arikan):
    # the recursion must not keep its hook (an engine with its banks and
    # schedule) alive after returning, not even until a cycle collection
    class Hook:
        def f(self, *args):
            pass

        g = leaf = f

    class GeneralHook:
        def prep(self, *args):
            pass

        decide = node = prep

    gc.disable()
    try:
        hook = Hook()
        ref = weakref.ref(hook)
        decode_sc_arikan(spec_all_free(arikan, 3), np.ones(8), hook=hook)
        del hook
        assert ref() is None
        hook = GeneralHook()
        ref = weakref.ref(hook)
        spec = spec_all_free(kernel_linear(G4), 2)
        decode_sc_general(spec, np.ones((16, 2)), trace=True, hook=hook)
        del hook
        assert ref() is None
    finally:
        gc.enable()


def test_sc_respects_frozen(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 2: 1, 5: 1})
    res = decode_sc_arikan(spec, random_llr(rng, 8))
    assert res.u_hat[0] == 0
    assert res.u_hat[2] == 1
    assert res.u_hat[5] == 1


def test_sc_noiseless_roundtrip(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(8)})
    u = spec.assemble(rng.integers(0, 2, 8))
    x = encode(spec, u)
    llr = np.where(x == 0, 25.0, -25.0).astype(float)
    res = decode_sc_arikan(spec, llr)
    assert np.array_equal(res.u_hat, u)
    assert np.array_equal(res.x_hat, x)
    # min-sum agrees on clean evidence
    res_ms = decode_sc_arikan(spec, llr, min_sum=True)
    assert np.array_equal(res_ms.u_hat, u)


def test_sc_genie_mode(arikan, rng):
    spec = spec_all_free(arikan, 3)
    u = rng.integers(0, 2, 8)
    x = encode_unchecked(arikan, u)
    llr = np.where(x == 0, 30.0, -30.0).astype(float)
    res = decode_sc_arikan(spec, llr, genie_u=u)
    assert res.genie_errors is not None
    assert not res.genie_errors.any()
    # corrupt one observation hard: the genie keeps later stages on track,
    # errors are recorded but u_hat equals the genie word
    llr_bad = llr.copy()
    llr_bad[0] = -llr_bad[0]
    res_bad = decode_sc_arikan(spec, llr_bad, genie_u=u)
    assert np.array_equal(res_bad.u_hat, u)


def test_sc_contradiction_raises(arikan):
    # x0 surely 1, x1 surely 0, but u0 frozen to 0 makes them irreconcilable
    spec = CodeSpec(kernel=arikan, m=1, frozen={0: 0})
    with pytest.raises(LlrContradiction):
        decode_sc_arikan(spec, np.array([-np.inf, np.inf]))


def test_sc_input_validation(arikan, k4):
    spec = spec_all_free(arikan, 2)
    with pytest.raises(ValueError):
        decode_sc_arikan(spec, np.zeros(3))
    with pytest.raises(ValueError):
        decode_sc_arikan(spec_all_free(k4, 1), np.zeros(4))  # not the 2x2 kernel


def _batch_spec(arikan):
    # frozen values of 1 as well as 0, so the frozen branch is not all-zero
    return CodeSpec(kernel=arikan, m=5, frozen={i: int(i % 3 == 0) for i in range(0, 32, 2)})


def _known_codewords(spec, rng, count):
    # +-inf evidence for valid codewords, so no frame contradicts itself
    u = np.stack([spec.assemble(rng.integers(0, 2, spec.k_info)) for _ in range(count)])
    x = np.stack([encode(spec, row) for row in u])
    return u, np.where(x == 0, np.inf, -np.inf)


def _decodes(spec, lam, min_sum):
    try:
        decode_sc_arikan(spec, lam, min_sum=min_sum)
    except LlrContradiction:
        return False
    return True


@pytest.mark.parametrize("min_sum", [False, True])
@pytest.mark.parametrize("evidence", ["gaussian", "erasures"])
def test_sc_batch_matches_single_frames(arikan, rng, min_sum, evidence):
    # a (B, N) call equals B single-frame calls row for row
    spec = _batch_spec(arikan)
    if evidence == "gaussian":
        lam = rng.normal(0.0, 2.0, (40, 32))
        lam[0] = 0.0  # every decision a tie
        lam[1, ::3] = np.nan  # NaN decides 1, as decide() does
        genie = rng.integers(0, 2, lam.shape)
    else:
        # a genie word other than the sent one would contradict +-inf evidence
        genie, lam = _known_codewords(spec, rng, 60)
        lam[rng.random(lam.shape) < 0.3] = 0.0  # erased positions
        lam[1] = 0.0  # fully erased frame
        # a wrong guess on an erased bit can still meet contradicting
        # evidence later; keep the frames the single-frame decoder gets through
        keep = [b for b in range(len(lam)) if _decodes(spec, lam[b], min_sum)]
        assert 20 <= len(keep) < len(lam), len(keep)
        genie, lam = genie[keep], lam[keep]
    batch = decode_sc_arikan(spec, lam, min_sum=min_sum, trace=True)
    batch_genie = decode_sc_arikan(spec, lam, min_sum=min_sum, genie_u=genie)
    assert batch.u_hat.shape == batch.x_hat.shape == batch.decision_llrs.shape == lam.shape
    assert batch.u_hat.dtype == batch.x_hat.dtype == np.int64
    for b in range(len(lam)):
        one = decode_sc_arikan(spec, lam[b], min_sum=min_sum, trace=True)
        assert np.array_equal(batch.u_hat[b], one.u_hat), b
        assert np.array_equal(batch.x_hat[b], one.x_hat), b
        assert np.array_equal(batch.decision_llrs[b], one.decision_llrs, equal_nan=True), b
        one_genie = decode_sc_arikan(spec, lam[b], min_sum=min_sum, genie_u=genie[b])
        assert np.array_equal(batch_genie.u_hat[b], one_genie.u_hat), b
        assert np.array_equal(batch_genie.genie_errors[b], one_genie.genie_errors), b


def _single_or_none(spec, lam, **kw):
    try:
        return decode_sc_arikan(spec, lam, **kw)
    except LlrContradiction:
        return None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_sc_batch_failed_rows_match_single_calls(m, data):
    # a (B, N) call marks exactly the frames whose (N,) call raises, and
    # every other frame equals its single call, genie mode included; a quiet
    # call (no trace, no genie), which skips f under a frozen leaf, equals
    # the traced walk
    n = 2**m
    frozen = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1)))
    spec = CodeSpec(kernel_arikan(), m, frozen)
    b = data.draw(st.integers(1, 6))
    entries = st.sampled_from([np.inf, -np.inf, np.inf, -np.inf, 0.0, -0.0, 1.5, -0.25])
    lam = np.reshape(data.draw(st.lists(entries, min_size=b * n, max_size=b * n)), (b, n))
    genie = np.reshape(data.draw(st.lists(st.integers(0, 1), min_size=b * n, max_size=b * n)), (b, n))
    min_sum = data.draw(st.booleans())
    batch = decode_sc_arikan(spec, lam, min_sum=min_sum, trace=True)
    batch_genie = decode_sc_arikan(spec, lam, min_sum=min_sum, genie_u=genie)
    quiet = decode_sc_arikan(spec, lam, min_sum=min_sum)
    assert batch.failed.shape == batch_genie.failed.shape == quiet.failed.shape == (b,)
    for i in range(b):
        one = _single_or_none(spec, lam[i], min_sum=min_sum, trace=True)
        assert batch.failed[i] == quiet.failed[i] == (one is None), i
        if one is not None:
            assert np.array_equal(batch.u_hat[i], one.u_hat), i
            assert np.array_equal(batch.x_hat[i], one.x_hat), i
            assert np.array_equal(batch.decision_llrs[i], one.decision_llrs), i
            assert np.array_equal(quiet.u_hat[i], one.u_hat), i
            assert np.array_equal(quiet.x_hat[i], one.x_hat), i
        one = _single_or_none(spec, lam[i], min_sum=min_sum, genie_u=genie[i])
        assert batch_genie.failed[i] == (one is None), i
        if one is not None:
            assert np.array_equal(batch_genie.u_hat[i], one.u_hat), i
            assert np.array_equal(batch_genie.genie_errors[i], one.genie_errors), i


def test_sc_batch_contradiction_marks_only_that_frame(arikan, rng):
    spec = _batch_spec(arikan)
    _, lam = _known_codewords(spec, rng, 5)
    lam[3, 7] = -lam[3, 7]  # one fully known frame is no longer a codeword
    with pytest.raises(LlrContradiction):
        decode_sc_arikan(spec, lam[3])
    res = decode_sc_arikan(spec, lam)
    assert res.failed.tolist() == [False, False, False, True, False]
    for b in (0, 1, 2, 4):
        assert np.array_equal(res.u_hat[b], decode_sc_arikan(spec, lam[b]).u_hat)
    assert decode_sc_arikan(spec, lam[0]).failed is None


def test_sc_batch_input_validation(arikan):
    spec = _batch_spec(arikan)
    for bad in (np.zeros((4, 33)), np.zeros((4, 16)), np.zeros((1, 4, 32)), np.zeros((0, 32))):
        with pytest.raises(ValueError):
            decode_sc_arikan(spec, bad)
    with pytest.raises(ValueError):
        decode_sc_arikan(spec, np.zeros((4, 32)), genie_u=np.zeros(32, dtype=np.int64))


def test_scores_to_llr_conventions():
    out = scores_to_llr(np.array([1.0, 0.5, 0.0, 2.0]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(np.log(2.0))
    assert out[2] == np.inf
    assert out[3] == pytest.approx(-np.log(2.0))
    out2 = scores_to_llr(np.array([0.0, 1.0]))
    assert out2[1] == -np.inf
    with pytest.raises(LlrContradiction):
        scores_to_llr(np.array([0.0, 0.0]))


def test_scores_to_llr_tiny_score_stays_finite():
    # the ratio 1 / 1e-320 overflows; the difference of logs does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = scores_to_llr(np.array([1.0, 1e-320]))
        back = scores_to_llr(np.array([1e-320, 1.0]))
    assert np.isfinite(out[1]) and out[1] == pytest.approx(-np.log(1e-320))
    assert back[1] == pytest.approx(np.log(1e-320))
    # away from over- and underflow the value is the log of the ratio
    assert scores_to_llr(np.array([0.3, 0.7]))[1] == np.log(0.3 / 0.7)


@pytest.mark.parametrize("G,q", [(G4, 2), ([[1, 0, 0], [1, 1, 0], [1, 2, 1]], 3)])
def test_prep_outer_columns_independent(G, q):
    # each column's evidence is what a call on that column alone gives,
    # whichever other columns share its decided prefix
    k = kernel_linear(G, q=q)
    rng = np.random.default_rng(q)
    w_blk = np.exp(rng.normal(0.0, 2.0, (60, k.ell, q)))
    decided = rng.integers(0, q, (60, k.ell))
    for r in range(k.ell):
        got = _prep_outer(k, w_blk, decided[:, :r], r)
        for i in range(len(w_blk)):
            alone = _prep_outer(k, w_blk[i : i + 1], decided[i : i + 1, :r], r)
            assert np.array_equal(got[i], alone[0]), (r, i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_general_rejects_non_finite_rows(bad):
    spec = CodeSpec(kernel_linear(G4), 2, {0: 0, 5: 1})
    rows = np.ones((16, 2))
    rows[6, 1] = bad
    with pytest.raises(ValueError, match="position 6"):
        decode_sc_general(spec, rows)


def test_general_matches_arikan(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 0, 2: 0})
    for _ in range(10):
        llr = random_llr(rng, 8)
        ref = decode_sc_arikan(spec, llr)
        gen = decode_sc_general(spec, likelihood_rows_binary(llr))
        assert np.array_equal(gen.u_hat, ref.u_hat)
        assert np.array_equal(gen.x_hat, ref.x_hat)


def test_general_llr_values_match_arikan(arikan, rng):
    spec = spec_all_free(arikan, 2)
    llr = random_llr(rng, 4)
    ref = decode_sc_arikan(spec, llr, trace=True)
    gen = decode_sc_general(spec, likelihood_rows_binary(llr), trace=True)
    for (idx, width, vec), want in zip(gen.decisions, ref.decision_llrs):
        assert width == 1
        assert vec[1] == pytest.approx(want, abs=1e-9)


def test_general_binary_4x4_matches_bruteforce(k4, rng):
    # exact marginals are exponential in N; one word and the first half of
    # the decisions already exercise every prep depth
    spec = CodeSpec(kernel=k4, m=2, frozen={0: 0, 1: 0, 3: 1})
    llr = random_llr(rng, 16)
    rows = likelihood_rows_binary(llr)
    res = decode_sc_general(spec, rows, trace=True)
    decided = {}
    for idx, width, vec in res.decisions[:8]:
        assert width == 1
        want = marginal_llr_bruteforce(spec, rows, idx, decided)
        assert vec[1] == pytest.approx(want[1], abs=1e-8)
        decided[idx] = int(res.u_hat[idx])


def test_general_gf4_matches_bruteforce(rng):
    k = kernel_linear([[1, 0], [1, 1]], q=4)
    spec = CodeSpec(kernel=k, m=2, frozen={0: 0})
    for _ in range(3):
        rows = rng.random((4, 4)) + 0.01
        res = decode_sc_general(spec, rows, trace=True)
        decided = {}
        for idx, width, vec in res.decisions:
            want = marginal_llr_bruteforce(spec, rows, idx, decided)
            finite = np.isfinite(want)
            assert np.allclose(vec[finite], want[finite], atol=1e-8)
            decided[idx] = int(res.u_hat[idx])
        assert np.array_equal(res.x_hat, encode_unchecked(k, res.u_hat))


def test_general_noiseless_gf4(rng):
    k = kernel_linear([[1, 0], [1, 1]], q=4)
    spec = CodeSpec(kernel=k, m=3, frozen={i: 0 for i in range(4)})
    u = spec.assemble(rng.integers(0, 4, 4))
    x = encode(spec, u)
    rows = np.full((8, 4), 1e-9)
    rows[np.arange(8), x] = 1.0
    res = decode_sc_general(spec, rows)
    assert np.array_equal(res.u_hat, u)


def test_glue_group_joint_decision(rng):
    # 4x4 binary kernel with inputs 0,1 glued: they are decided jointly at m=1
    k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    spec = CodeSpec(kernel=k, m=1, frozen={})
    llr = random_llr(rng, 4, scale=3.0)
    rows = likelihood_rows_binary(llr)
    res = decode_sc_general(spec, rows, trace=True)
    widths = [w for _, w, _ in res.decisions]
    assert widths == [2, 1, 1]
    # the joint decision maximizes the exact group marginal
    totals = np.zeros(4)
    for idx in range(16):
        x = k.map(_words(2, 4)[idx])
        totals[idx // 4] += np.prod([rows[j, x[j]] for j in range(4)])
    want = scores_to_llr(totals)
    got_vec = res.decisions[0][2]
    assert np.allclose(got_vec, want, atol=1e-12)
    joint = 2 * res.u_hat[0] + res.u_hat[1]
    assert joint == np.argmax(-want + (want == 0) * 0)  # max score = min llr; 0 wins ties


def test_glue_group_noiseless_roundtrip(rng):
    k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    spec = CodeSpec(kernel=k, m=1, frozen={0: 0})
    u = spec.assemble(rng.integers(0, 2, 3))
    x = encode(spec, u)
    rows = likelihood_rows_binary(np.where(x == 0, 28.0, -28.0).astype(float))
    res = decode_sc_general(spec, rows)
    assert np.array_equal(res.u_hat, u)


def test_glue_beyond_depth_one_unsupported():
    k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    spec = CodeSpec(kernel=k, m=2, frozen={})
    with pytest.raises(UnsupportedCodeError):
        decode_sc_general(spec, np.ones((16, 2)))


def test_general_genie_mode(k4, rng):
    spec = spec_all_free(k4, 2)
    u = rng.integers(0, 2, 16)
    x = encode_unchecked(k4, u)
    rows = likelihood_rows_binary(np.where(x == 0, 30.0, -30.0).astype(float))
    res = decode_sc_general(spec, rows, genie_u=u)
    assert not res.genie_errors.any()
    assert np.array_equal(res.u_hat, u)


def test_general_contradiction_raises(arikan):
    spec = CodeSpec(kernel=arikan, m=1, frozen={0: 0})
    rows = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LlrContradiction):
        decode_sc_general(spec, rows)


def test_general_huge_rows_do_not_overflow():
    # rows near the float64 ceiling used to overflow the kernel products to
    # inf, so the first decision called two possible values impossible
    spec = CodeSpec(kernel_linear([[1, 0], [1, 1]], q=3), 1, {})
    rows = np.array([[1e300, 0.0, 1.0], [1e300, 1.0, 1.0]])
    with np.errstate(over="raise"):
        res = decode_sc_general(spec, rows, trace=True)
    (i, width, llr), _ = res.decisions
    assert (i, width) == (0, 1)
    # scores of u0 = 0, 1, 2: 1e600 + 1, 1e300 + 1, 2e300
    assert np.all(np.isfinite(llr))
    assert llr == pytest.approx([0.0, 300 * np.log(10), 300 * np.log(10) - np.log(2)])
    assert res.u_hat.tolist() == [0, 0]


def test_general_row_scaling_is_exact(k4, rng):
    # scaling rows by powers of two changes no decision LLR bit
    spec = CodeSpec(k4, 2, {0: 0, 5: 1})
    rows = np.exp(rng.normal(0.0, 2.0, (16, 2)))
    want = decode_sc_general(spec, rows, trace=True).decisions
    scaled = np.ldexp(rows, rng.integers(-40, 40, (16, 1)))
    got = decode_sc_general(spec, scaled, trace=True).decisions
    for (i, w, a), (j, v, b) in zip(want, got):
        assert (i, w) == (j, v)
        assert np.array_equal(a, b), i


def test_general_input_validation(arikan):
    spec = spec_all_free(arikan, 2)
    with pytest.raises(ValueError):
        decode_sc_general(spec, np.ones((3, 2)))
    with pytest.raises(ValueError):
        decode_sc_general(spec, -np.ones((4, 2)))


def _general_or_none(spec, rows, **kw):
    try:
        return decode_sc_general(spec, rows, **kw)
    except LlrContradiction:
        return None


# (kernel, depths): the (u+v, v) table through the general path, G4,
# (u+v, v) over GF(3) and GF(4), and G4 with inputs 0 and 1 glued
GENERAL_KERNELS = [
    (kernel_arikan(), (1, 2, 3, 4)),
    (kernel_linear(G4), (1, 2)),
    (kernel_linear([[1, 0], [1, 1]], q=3), (1, 2, 3)),
    (kernel_linear([[1, 0], [1, 1]], q=4), (1, 2)),
    (kernel_linear(G4, glue=[(0, 1), (2,), (3,)]), (1,)),
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_general_batch_failed_rows_match_single_calls(data):
    # a (B, N, q) call marks exactly the frames whose (N, q) call raises,
    # and every other frame equals its single call, genie mode included
    kernel, depths = data.draw(st.sampled_from(GENERAL_KERNELS))
    m = data.draw(st.sampled_from(depths))
    q = kernel.q
    n = kernel.ell**m
    frozen = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, q - 1)))
    spec = CodeSpec(kernel, m, frozen)
    b = data.draw(st.integers(1, 6))
    # zero-heavy rows, so that whole rows and conditioned totals vanish
    entries = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 3.0, 1e-300])
    rows = np.reshape(data.draw(st.lists(entries, min_size=b * n * q, max_size=b * n * q)), (b, n, q))
    genie = np.reshape(data.draw(st.lists(st.integers(0, q - 1), min_size=b * n, max_size=b * n)), (b, n))
    batch = decode_sc_general(spec, rows)
    batch_genie = decode_sc_general(spec, rows, genie_u=genie)
    assert batch.failed.shape == batch_genie.failed.shape == (b,)
    assert batch.u_hat.shape == batch.x_hat.shape == batch_genie.genie_errors.shape == (b, n)
    for i in range(b):
        one = _general_or_none(spec, rows[i])
        assert batch.failed[i] == (one is None), i
        if one is not None:
            assert np.array_equal(batch.u_hat[i], one.u_hat), i
            assert np.array_equal(batch.x_hat[i], one.x_hat), i
        one = _general_or_none(spec, rows[i], genie_u=genie[i])
        assert batch_genie.failed[i] == (one is None), i
        if one is not None:
            assert np.array_equal(batch_genie.u_hat[i], one.u_hat), i
            assert np.array_equal(batch_genie.x_hat[i], one.x_hat), i
            assert np.array_equal(batch_genie.genie_errors[i], one.genie_errors), i


def test_general_batch_observers_and_shapes(k4, rng):
    spec = spec_all_free(k4, 2)
    rows = rng.random((3, 16, 2))

    class Hook:
        def prep(self, *args):
            pass

        decide = node = prep

    with pytest.raises(ValueError):
        decode_sc_general(spec, rows, trace=True)
    with pytest.raises(ValueError):
        decode_sc_general(spec, rows, hook=Hook())
    with pytest.raises(ValueError):
        decode_sc_general(spec, rows, genie_u=np.zeros(16, dtype=np.int64))
    with pytest.raises(ValueError):
        decode_sc_general(spec, np.ones((0, 16, 2)))
    assert decode_sc_general(spec, rows[0]).failed is None
    res = decode_sc_general(spec, rows[:1])
    assert res.failed.tolist() == [False]
    assert np.array_equal(res.u_hat[0], decode_sc_general(spec, rows[0], hook=Hook()).u_hat)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.data())
def test_sc_noiseless_property(m, data):
    arikan = kernel_arikan()
    spec = spec_all_free(arikan, m)
    n = spec.n
    u = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    x = encode_unchecked(arikan, u)
    llr = np.where(x == 0, 20.0, -20.0).astype(float)
    res = decode_sc_arikan(spec, llr)
    assert np.array_equal(res.u_hat, u)
