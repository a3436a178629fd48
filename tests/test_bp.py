import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from polarbench import bp
from polarbench.bp import (
    STOP_RULES,
    BpState,
    bp_decode,
    bp_iteration,
    bp_state,
    channel_llr,
    _decisions,
)
from polarbench.channels import bec, transmit
from polarbench.construction import construct_bec
from polarbench.kernels import CodeSpec, encode, kernel_arikan, kernel_linear
from polarbench.llrops import BP_CLIP, f_plus
from polarbench.hwsim import run_bp_line
from polarbench.sc import decode_sc_arikan

from conftest import Recorder, message_values, numpy_is_libm, random_llr, run_pytest_under_libm, spec_all_free


def test_bp_requires_arikan():
    k = kernel_linear([[1, 1], [0, 1]], q=2)
    with pytest.raises(ValueError):
        bp_state(CodeSpec(kernel=k, m=2, frozen={}))


def test_bp_state_layout(arikan):
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 1})
    st = bp_state(spec)
    assert len(st.mu_v) == 3
    assert all(v.shape == (1, 4) for v in st.mu_v)  # one frame is a batch of one
    assert st.u_msg.shape == st.x_out.shape == (1, 8)
    assert st.contradiction.shape == (1,)
    # deepest-level v-messages hold the odd-coordinate priors
    assert st.mu_v[2][0, 0] == -np.inf  # coordinate 1 pinned to value 1
    assert list(st.mu_v[2][0, 1:]) == [0.0, 0.0, 0.0]
    assert st.priors[0] == np.inf
    assert st.priors[1] == -np.inf
    assert list(st.priors[2:]) == [0.0] * 6


def test_bp_n2_single_iteration_semantics(arikan):
    # at N=2 one sweep reproduces the SC update pair exactly
    spec = CodeSpec(kernel=arikan, m=1, frozen={0: 0})
    lam = np.array([1.3, -0.4])
    st = bp_state(spec)
    bp_iteration(st, lam[None])
    assert st.u_msg[0, 0] == pytest.approx(f_plus(1.3, -0.4))
    # u1 message: prior(u0) boxplus lam0, plus lam1
    assert st.u_msg[0, 1] == pytest.approx(f_plus(np.inf, 1.3) + (-0.4))
    assert st.message_updates == 6


def test_bp_decode_noiseless(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(8)})
    u = spec.assemble(rng.integers(0, 2, 8))
    x = encode(spec, u)
    llr = np.where(x == 0, 30.0, -30.0).astype(float)
    res = bp_decode(spec, llr)
    assert np.array_equal(res.u_hat, u)
    assert np.array_equal(res.x_hat, x)
    assert res.converged
    assert not res.contradiction


def test_bp_bec_closure(arikan):
    # on erasure evidence every message stays in {0, +-inf}: after any
    # number of iterations no finite nonzero value appears anywhere
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(8)})
    rng = np.random.default_rng(17)
    u = spec.assemble(rng.integers(0, 2, 8))
    x = encode(spec, u)
    llr = transmit(bec(0.5), x, rng)
    st = bp_state(spec)
    closed = {0.0, math.inf, -math.inf}
    for _ in range(6):
        seen = set()
        bp_iteration(st, llr[None], tick=message_values(seen))
        assert seen <= closed
        for d in range(st.m):
            assert set(st.mu_v[d].ravel().tolist()) <= closed
        assert set(st.u_msg.ravel().tolist()) <= closed
        assert set(st.x_out.ravel().tolist()) <= closed


def test_bp_bec_resolved_bits_are_correct(arikan):
    # BEC decisions are either erased or right: every +-inf u-message
    # agrees with the transmitted word
    spec = CodeSpec(kernel=arikan, m=5, frozen={i: 0 for i in range(16)})
    rng = np.random.default_rng(23)
    mask, vals = spec.frozen_arrays()
    for _ in range(20):
        u = spec.assemble(rng.integers(0, 2, 16))
        x = encode(spec, u)
        llr = transmit(bec(0.4), x, rng)
        st = bp_state(spec)
        for _ in range(12):
            bp_iteration(st, llr[None])
        resolved = np.isinf(st.u_msg[0])
        assert np.array_equal(st.u_msg[0][resolved] < 0, u[resolved] == 1)


def test_bp_only_mu_v_persists(arikan):
    # poisoning every transient slot between iterations must not change
    # anything: the sweep reads only mu_v and the inputs
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(8)})
    rng = np.random.default_rng(5)
    u = spec.assemble(rng.integers(0, 2, 8))
    x = encode(spec, u)
    llr = transmit(bec(0.4), x, rng)[None]

    st_plain = bp_state(spec)
    st_scrub = bp_state(spec)
    for _ in range(5):
        bp_iteration(st_plain, llr)
        bp_iteration(st_scrub, llr)
        for d in range(st_plain.m):
            assert np.array_equal(st_plain.mu_v[d], st_scrub.mu_v[d])
        assert np.array_equal(st_plain.u_msg, st_scrub.u_msg)
        assert np.array_equal(st_plain.x_out, st_scrub.x_out)
        st_scrub.scrub_transients()


def test_bp_message_count_audit(arikan):
    # one iteration costs 6 updates per base node and 7 per butterfly of
    # every non-base node: N/2 * (7(m-1) + 6) in total
    for m in (1, 2, 3, 5, 7):
        spec = CodeSpec(kernel=arikan, m=m, frozen={})
        n = spec.n
        st = bp_state(spec)
        bp_iteration(st, np.zeros((1, n)))
        assert st.message_updates == (n // 2) * (7 * (m - 1) + 6)
        bp_iteration(st, np.zeros((1, n)))
        assert st.message_updates == 2 * (n // 2) * (7 * (m - 1) + 6)


def test_bp_matches_sc_on_first_bit(arikan, rng):
    # the first input coordinate has no decision feedback, so one BP sweep
    # computes exactly the SC decision LLR for it
    spec = spec_all_free(arikan, 3)
    llr = random_llr(rng, 8)
    st = bp_state(spec)
    bp_iteration(st, llr[None])
    rec = Recorder()
    decode_sc_arikan(spec, llr, hook=rec)
    assert st.u_msg[0, 0] == pytest.approx(rec.llrs()[0], abs=1e-9)


def test_bp_stop_rules(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(8)})
    u = spec.assemble(rng.integers(0, 2, 8))
    x = encode(spec, u)
    llr = np.where(x == 0, 8.0, -8.0).astype(float)
    for stop in STOP_RULES:
        res = bp_decode(spec, llr, max_iters=30, stop=stop)
        assert np.array_equal(res.u_hat, u)
        if stop == "none":
            assert not res.converged
            assert res.iterations == 30
        else:
            assert res.converged
            assert res.iterations < 30
    with pytest.raises(ValueError):
        bp_decode(spec, llr, stop="bogus")


def test_bp_empty_frozen_adaptive_stops(arikan, rng):
    # with no frozen coordinates the frozen check is vacuously true
    spec = spec_all_free(arikan, 3)
    res = bp_decode(spec, random_llr(rng, 8), stop="frozen")
    assert res.converged
    assert res.iterations == 1


def test_bp_contradiction_flag_not_exception(arikan):
    # u0 frozen to 0 but the evidence pins x = (1, 0): the conflicting
    # infinities resolve to 0 and raise the flag
    spec = CodeSpec(kernel=arikan, m=1, frozen={0: 0})
    res = bp_decode(spec, np.array([-np.inf, np.inf]), max_iters=3)
    assert res.contradiction


def test_bp_clips_finite_messages(arikan):
    spec = CodeSpec(kernel=arikan, m=2, frozen={0: 0})
    st = bp_state(spec)
    bp_iteration(st, np.array([[39.0, 39.0, 39.0, 39.0]]))
    finite = st.u_msg[np.isfinite(st.u_msg)]
    assert np.all(np.abs(finite) <= BP_CLIP)
    # infinities pass through the clamp untouched
    res = bp_decode(spec, np.array([np.inf, np.inf, np.inf, np.inf]))
    assert np.array_equal(res.x_hat, [0, 0, 0, 0])


def test_bp_min_sum_decodes_clean_frames(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(8)})
    u = spec.assemble(rng.integers(0, 2, 8))
    x = encode(spec, u)
    llr = np.where(x == 0, 12.0, -12.0).astype(float)
    res = bp_decode(spec, llr, min_sum=True)
    assert np.array_equal(res.u_hat, u)


def test_bp_decisions_pin_frozen(arikan):
    spec = CodeSpec(kernel=arikan, m=2, frozen={0: 0, 1: 1})
    mask, vals = spec.frozen_arrays()
    st = bp_state(spec)
    bp_iteration(st, np.array([[0.5, -0.5, 0.25, -0.25]]))
    u = _decisions(st, mask, vals)[0]
    assert u[0] == 0 and u[1] == 1


def test_bp_input_validation(arikan):
    spec = spec_all_free(arikan, 2)
    with pytest.raises(ValueError):
        bp_decode(spec, np.zeros(3))


def test_channel_llr_clips_finite_only(arikan):
    spec = spec_all_free(arikan, 2)
    out = channel_llr(spec, np.array([100.0, -100.0, 3.0, np.inf]))
    assert list(out) == [BP_CLIP, -BP_CLIP, 3.0, np.inf]
    assert channel_llr(spec, np.array([-np.inf, 0.0, 0.0, 0.0]))[0] == -np.inf
    with pytest.raises(ValueError):
        channel_llr(spec, np.zeros(5))


def test_bp_decides_nan_as_sc(arikan):
    # every message of an all-NaN frame is NaN; SC decides NaN as 1
    # (~(L >= 0)), and so must BP and the BP line model
    for m in (1, 2):
        spec = spec_all_free(arikan, m)
        llr = np.full(spec.n, np.nan)
        sc = decode_sc_arikan(spec, llr)
        assert sc.u_hat.all()
        bp = bp_decode(spec, llr, max_iters=2, stop="none")
        line = run_bp_line(spec, llr, iterations=2)
        for res in (bp, line):
            assert np.array_equal(res.u_hat, sc.u_hat)
            assert res.x_hat.all()  # the channel belief is NaN too


# full-precision message pins ----------------------------------------------
#
# sha256 prefixes of the float64 bytes of u_msg, x_out and every mu_v[d]
# (and the contradiction flag) after 1, 2 and 3 sweeps. The hwsim pins print
# messages at six significant digits; these catch a last-ulp drift of the
# scalar base step or of the vector node updates.

PIN_KINDS = ("gauss", "pm", "inf", "bec-code")
PIN_SIZES = (2, 4, 8, 16, 32, 64, 128)


def _pin_case(kind, n):
    m = n.bit_length() - 1
    rng = np.random.default_rng([n, PIN_KINDS.index(kind)])
    if kind == "bec-code":
        # the bp-awgn128 benchmark's code, every frozen value 0: it has wide
        # rate-0 and rate-1 subtrees, which random frozen sets do not
        return construct_bec(m, 0.5, 0.5), rng.normal(0.0, 2.0, n)
    frozen = rng.choice(n, size=n // 2, replace=False)
    spec = CodeSpec(kernel_arikan(), m, {int(i): int(rng.integers(0, 2)) for i in frozen})
    if kind == "gauss":
        lam = rng.normal(0.0, 2.0, n)
    elif kind == "pm":  # BSC-like: one magnitude, random signs
        lam = np.where(rng.integers(0, 2, n) == 0, 1.1, -1.1)
    else:  # +-inf-heavy: Gaussian values, about 45% replaced by +-inf
        lam = rng.normal(0.0, 2.0, n)
        hard = rng.random(n) < 0.45
        lam[hard] = np.where(rng.integers(0, 2, n) == 0, np.inf, -np.inf)[hard]
    return spec, lam


def _message_digest(st, row):
    # the bytes of one frame (row) of a state
    h = hashlib.sha256()
    for arr in (st.u_msg, st.x_out, *st.mu_v):
        h.update(np.ascontiguousarray(arr[row]).tobytes())
    h.update(bytes([bool(st.contradiction[row])]))
    return h.hexdigest()[:16]


def _pin_digests(kind, n, min_sum):
    spec, lam = _pin_case(kind, n)
    st = bp_state(spec, min_sum=min_sum)
    out = []
    for _ in range(3):
        bp_iteration(st, channel_llr(spec, lam)[None])
        out.append(_message_digest(st, 0))
    return tuple(out)


# recorded before the batched sweep landed, the bec-code rows before the
# rate-0 and rate-1 level passes; (min_sum, kind, N) -> digests. They hold
# for numpy's AVX-512 exp and log1p loops; BP_PINS_LIBM holds the cases
# that differ under libm's (conftest.numpy_is_libm picks).
BP_PINS = {
    (False, "gauss", 2): ('4dd97c79c0c189dc', '4dd97c79c0c189dc', '4dd97c79c0c189dc'),
    (False, "gauss", 4): ('a7ffd0f109d87848', 'f34823bc6a9e2450', 'f34823bc6a9e2450'),
    (False, "gauss", 8): ('a1bf157d44c3aa96', '0339b612f285b37e', '0339b612f285b37e'),
    (False, "gauss", 16): ('d8325fe750a2a155', '96588af0f372851b', 'df242470bc7cc460'),
    (False, "gauss", 32): ('3f00701aa20e5054', '5b9d62b87b2faaf3', '831215c4dc1bc093'),
    (False, "gauss", 64): ('890fbdc3976f26ae', '9704afdcc42a899b', '898c42034cbf5834'),
    (False, "gauss", 128): ('213f1d257a009bab', '2a0a9cac4f06f997', 'ebb930caa6b58b10'),
    (False, "pm", 2): ('65de49b4071bf3e5', '65de49b4071bf3e5', '65de49b4071bf3e5'),
    (False, "pm", 4): ('79e505ae53495e13', 'a6ee5bbdbb657033', 'a6ee5bbdbb657033'),
    (False, "pm", 8): ('5052d1c2abb0e8d4', '7ff09bd954656f67', '7144cfb605854ba1'),
    (False, "pm", 16): ('a36d53c56d9d473c', '69f1a97b93b3cdf2', 'e34cc989d36acb97'),
    (False, "pm", 32): ('6e72f21fceb905b9', 'd25a177a00506fc3', '97ca2b5be2549462'),
    (False, "pm", 64): ('50e254c899c3f3e2', '9cc0c3499e04d1dd', '67f822076bff680e'),
    (False, "pm", 128): ('01780b55cf671812', '4bea7ca3054cc8ee', '4b6d3af14a3529c2'),
    (False, "inf", 2): ('c887f88785338a51', 'c887f88785338a51', 'c887f88785338a51'),
    (False, "inf", 4): ('5fead2197c7bcb2e', 'aa38d938ca4bc1b1', 'aa38d938ca4bc1b1'),
    (False, "inf", 8): ('3287dace9c51803b', '1236aca85f35a17c', 'f788242bc2539e42'),
    (False, "inf", 16): ('f9b3fc2f1720433a', '05889c988c240227', 'bcb6aa605fa0eb72'),
    (False, "inf", 32): ('d58b1df87749765d', '3f600d30d21e6b72', '443cbea22d1b82bc'),
    (False, "inf", 64): ('cb69af8c934e2ed5', '4e878b39561f7aaf', '8e6c3802fcb7d6b3'),
    (False, "inf", 128): ('54aac538abb2092f', 'fb8ec3fa2854f09b', '0c424c9826e7041c'),
    (False, "bec-code", 128): ('9a55d4994d780ed5', 'ef661e28e8e1588c', '467ea48c9ad88624'),
    (True , "gauss", 2): ('4dd97c79c0c189dc', '4dd97c79c0c189dc', '4dd97c79c0c189dc'),
    (True , "gauss", 4): ('806424934973866a', '5ef4b4f893aa3e2d', '5ef4b4f893aa3e2d'),
    (True , "gauss", 8): ('ead39ced92846a63', '8869814ab075fa1e', '8869814ab075fa1e'),
    (True , "gauss", 16): ('c6c14caf0e186b0f', '2db842035a03b8ca', '81ce71ee5496ad40'),
    (True , "gauss", 32): ('a3cb04ec89bd92c7', '6e3b9050414e0713', 'ba939f14078078f9'),
    (True , "gauss", 64): ('158ccb6fe045c920', '8a1816ce5ca95765', 'eac60a727a3f2656'),
    (True , "gauss", 128): ('aa4cf65be4b8ad28', '578415b1485fe6c2', '0f51e0b9a9caf4e2'),
    (True , "pm", 2): ('f5e3fccb9d9ba25d', 'f5e3fccb9d9ba25d', 'f5e3fccb9d9ba25d'),
    (True , "pm", 4): ('30fda5545d9a307e', '30fda5545d9a307e', '30fda5545d9a307e'),
    (True , "pm", 8): ('fa4384e9e0dd844c', 'c0ad922aff1667b2', 'c0ad922aff1667b2'),
    (True , "pm", 16): ('c908f3c7dd25a887', '195d54a4f8eb1d47', '195d54a4f8eb1d47'),
    (True , "pm", 32): ('b50593935dabf7e2', '868af5ec3a2ff42e', '868af5ec3a2ff42e'),
    (True , "pm", 64): ('dc249b3f82bf4604', '73ac0072d8eff8b3', '404eaa484a72f30c'),
    (True , "pm", 128): ('1b0bccc77f7a1ab5', '174827ce9c58dd0d', 'c2d7ac93d7816f84'),
    (True , "inf", 2): ('c887f88785338a51', 'c887f88785338a51', 'c887f88785338a51'),
    (True , "inf", 4): ('aa38d938ca4bc1b1', 'aa38d938ca4bc1b1', 'aa38d938ca4bc1b1'),
    (True , "inf", 8): ('fbbad79f01beb9a5', '7c5b7c63eeb30963', '7c5b7c63eeb30963'),
    (True , "inf", 16): ('b1964b94db124243', 'e7a8e9c445eea77e', '3c1c610bd31950ff'),
    (True , "inf", 32): ('f756d7c4dc1a25d8', '3bbcb21fadcb2ac6', '48b02277b2837df7'),
    (True , "inf", 64): ('2c8afe1c62287b27', '44fe7e782ee31d88', 'f548cecaaf58e3fe'),
    (True , "inf", 128): ('42782b61e209aa2f', 'f9d1ea2112c7ddce', '145b07c01f4984e4'),
    (True , "bec-code", 128): ('31ccbfbefe8d21dd', '26f621abb6115c15', '8a72c610c5b66f3c'),
}

# the exact-rule cases whose f values round differently under libm's exp
# and log1p, recorded with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
# X86_V4"; every other case holds under both dispatches
BP_PINS_LIBM = {
    (False, "gauss", 8): ('1a1ab043a7e47658', '56fb52bfd559c0d0', '56fb52bfd559c0d0'),
    (False, "gauss", 16): ('e826963b48d25bc5', '19f31a0ccbb0228e', '9a80636500560c92'),
    (False, "gauss", 32): ('9f9324a51e7aff59', '787cb99e6467159d', 'b135133bb9158542'),
    (False, "gauss", 64): ('48c19f7c89386d38', 'bf40cf6060afeb2a', '0d5526b6ac1c320b'),
    (False, "gauss", 128): ('2a2f55b4ac7f1215', '88bb2491c9628193', '0a73b3b7faac4b2a'),
    (False, "pm", 16): ('02c032a96cfd4d51', '69f1a97b93b3cdf2', '9329189ee012f07e'),
    (False, "pm", 32): ('85171ea15a57f8f9', '76fa024ba06aafd3', 'f57f2a1088400d31'),
    (False, "pm", 64): ('656310f851388760', '7f4e8d77df0fe6d4', '407e660a3055bf68'),
    (False, "pm", 128): ('ff839f7baeaad391', '29f1012bb4dd44fe', 'cb4f322396aa8510'),
    (False, "inf", 16): ('c5f01bd536dab6a4', 'eec1e8c241047bef', 'bcb6aa605fa0eb72'),
    (False, "inf", 32): ('5e268c49ece51410', '309f78c55d863527', 'f7bc8676bfde4d1c'),
    (False, "inf", 64): ('62b1f796e18f5acf', 'f51de44c663a9417', 'bb0bf6134f60f1a6'),
    (False, "inf", 128): ('f696bd70b2308ef8', 'ad6903e91bbddd55', '6945e1368827f91a'),
    (False, "bec-code", 128): ('d41d7ec735f087e5', '7a9b293c265d77fc', '590f3e18dd17f742'),
}


@pytest.mark.parametrize("min_sum,kind,n", sorted(BP_PINS))
def test_bp_messages_pinned_at_full_precision(min_sum, kind, n):
    want = BP_PINS[(min_sum, kind, n)]
    if numpy_is_libm():
        want = BP_PINS_LIBM.get((min_sum, kind, n), want)
    assert _pin_digests(kind, n, min_sum) == want
    # the same frame as the middle row of a batch leaves the same bytes
    spec, lam = _pin_case(kind, n)
    others = [_pin_case(k, n)[1] for k in PIN_KINDS if k != kind]
    batch = channel_llr(spec, np.stack([others[0], lam, others[1]]))
    st = bp_state(spec, min_sum=min_sum, batch=3)
    for it in range(3):
        bp_iteration(st, batch)
        assert _message_digest(st, row=1) == want[it], it


@pytest.mark.skipif(numpy_is_libm(), reason="numpy already calls libm here: the pins ran on that column")
def test_bp_message_pins_hold_under_libm_dispatch():
    # the pin cases once more in a child process whose numpy runs exp,
    # log1p and log through libm, so that this host checks both columns
    done = run_pytest_under_libm("tests/test_bp.py", "-k", "test_bp_messages_pinned_at_full_precision")
    assert done.returncode == 0, done.stdout[-2000:]
    assert f"{len(BP_PINS)} passed" in done.stdout


# batch contract --------------------------------------------------------------


def _batch_rows(data, n, b):
    rows = []
    for _ in range(b):
        kind = data.draw(hs.sampled_from(("gauss", "pm", "inf")))
        if kind == "gauss":
            seed = data.draw(hs.integers(0, 2**32 - 1))
            rows.append(np.random.default_rng(seed).normal(0.0, 2.0, n))
        else:
            entries = [1.1, -1.1] if kind == "pm" else [np.inf, -np.inf, np.inf, -np.inf, 0.0, 1.5, -0.25]
            rows.append(data.draw(hs.lists(hs.sampled_from(entries), min_size=n, max_size=n)))
    return np.array(rows, dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(hs.integers(1, 5), hs.data())
def test_bp_batch_rows_match_single_calls(m, data):
    # each row of a (B, N) decode equals the (N,) decode of that row, with
    # its own stopping: decisions, iterations, convergence and contradiction
    n = 2**m
    frozen = data.draw(hs.dictionaries(hs.integers(0, n - 1), hs.integers(0, 1)))
    spec = CodeSpec(kernel_arikan(), m, frozen)
    b = data.draw(hs.integers(1, 6))
    lam = _batch_rows(data, n, b)
    stop = data.draw(hs.sampled_from(STOP_RULES))
    min_sum = data.draw(hs.booleans())
    iters = data.draw(hs.integers(1, 8))
    res = bp_decode(spec, lam, max_iters=iters, stop=stop, min_sum=min_sum)
    assert res.u_hat.shape == res.x_hat.shape == (b, n)
    assert res.iterations.shape == res.converged.shape == res.contradiction.shape == (b,)
    for i in range(b):
        one = bp_decode(spec, lam[i], max_iters=iters, stop=stop, min_sum=min_sum)
        assert np.array_equal(res.u_hat[i], one.u_hat), i
        assert np.array_equal(res.x_hat[i], one.x_hat), i
        assert (res.iterations[i], res.converged[i], res.contradiction[i]) == (
            one.iterations, one.converged, one.contradiction), i
        assert isinstance(one.iterations, int) and isinstance(one.contradiction, bool)


def test_bp_batch_stops_frames_separately(arikan, rng):
    # a clean frame meets its frozen values at once, a noisy one never does
    spec = CodeSpec(arikan, 4, {i: 0 for i in range(8)})
    u = spec.assemble(rng.integers(0, 2, 8))
    clean = np.where(encode(spec, u) == 0, 8.0, -8.0)
    noisy = np.random.default_rng(0).normal(0.0, 1.0, 16)
    res = bp_decode(spec, np.stack([clean, noisy, clean]), max_iters=12, stop="frozen")
    assert res.iterations.tolist() == [1, 12, 1]
    assert res.converged.tolist() == [True, False, True]
    assert np.array_equal(res.u_hat[0], u)


def _result_rows(kind, spec, rng, count):
    # count frames of channel LLRs for random payloads. "awgn": BPSK through
    # Gaussian noise of a sigma drawn per frame, so that frames stop at
    # different iterations; "erasure": the codeword's +-inf with a share
    # drawn per frame erased to 0; "mixed" cycles those two with rows of
    # random +-inf, zeros and small values, which defy the frozen pins, and
    # with pure noise
    x = encode(spec, spec.assemble(rng.integers(0, 2, (count, spec.k_info))))
    sign = 1.0 - 2.0 * x
    sigma = rng.choice([0.5, 0.7, 0.9, 1.2], (count, 1))
    awgn = 2.0 * (sign + sigma * rng.normal(0.0, 1.0, x.shape)) / sigma**2
    erased = np.where(rng.random(x.shape) < rng.choice([0.4, 0.55, 0.7], (count, 1)), 0.0, sign * np.inf)
    if kind == "awgn":
        return awgn
    if kind == "erasure":
        return erased
    wild = rng.choice([np.inf, -np.inf, 0.0, 1.5, -0.25], x.shape)
    return np.choose((np.arange(count) % 4)[:, None], [awgn, erased, wild, rng.normal(0.0, 2.0, x.shape)])


def _bp_fields(res):
    # every field of a result, arrays with their dtype and shape, byte for
    # byte, scalars with their type
    return tuple((a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else (type(a).__name__, a)
                 for a in (res.u_hat, res.x_hat, res.iterations, res.converged, res.contradiction))


# sha256 prefixes over every BpResult field of one batch call per stop rule
# and of single calls on its first frames, recorded before bp_decode took
# stopped frames out of its state. Decisions pass through np.exp and
# np.log1p, so each case holds one digest per dispatch of those ufuncs:
# numpy's AVX-512 loops, then libm's (conftest.numpy_is_libm picks); a
# case that moves in neither repeats it. (code, m, rows, max_iters, frames,
# min_sum, digests)
BP_RESULT_PINS = [
    ("bec", 7, "awgn", 10, 16, False, ("ac7ec12d6ff58e9a",) * 2),
    ("bec", 7, "awgn", 10, 16, True, ("ce4a2250b94a1291",) * 2),
    ("bec", 6, "erasure", 40, 12, False, ("bc3fe0682c3c08c2",) * 2),
    ("bec", 6, "erasure", 40, 12, True, ("c922a79b5d1d6a86",) * 2),
    ("random", 5, "mixed", 8, 16, False, ("583ed5b509d1fcc8",) * 2),
    ("random", 5, "mixed", 8, 16, True, ("d3cb36d8b98694f4",) * 2),
    ("random", 4, "mixed", 40, 12, True, ("2c4e2711f8cc52ab",) * 2),
    ("random", 3, "mixed", 1, 8, False, ("c129b21bff5027f8",) * 2),
]


@pytest.mark.parametrize("code,m,kind,max_iters,count,min_sum,want", BP_RESULT_PINS)
def test_bp_every_result_field_pinned(code, m, kind, max_iters, count, min_sum, want):
    rng = np.random.default_rng([m, max_iters, count, min_sum])
    n = 2**m
    spec = construct_bec(m, 0.5, 0.5) if code == "bec" else CodeSpec(
        kernel_arikan(), m, {int(i): int(rng.integers(0, 2)) for i in rng.choice(n, n // 2, replace=False)})
    rows = _result_rows(kind, spec, rng, count)
    h = hashlib.sha256()
    for stop in STOP_RULES:
        res = bp_decode(spec, rows, max_iters=max_iters, stop=stop, min_sum=min_sum)
        h.update(repr(_bp_fields(res)).encode())
        for frame in rows[:3]:
            h.update(repr(_bp_fields(bp_decode(spec, frame, max_iters, stop, min_sum))).encode())
    assert h.hexdigest()[:16] == want[numpy_is_libm()]


def test_bp_batch_message_updates_sum_single_sweeps(arikan, rng):
    # every swept row counts, and a state taken from a batch holds copies
    # that sweep exactly as the frames' own calls do, counting from 0
    spec = CodeSpec(arikan, 4, {0: 0, 3: 1, 5: 0})
    # the all -inf row is the codeword of u = e_15, so u_3 = 0 defies its pin
    lam = np.stack([rng.normal(0.0, 2.0, 16), np.full(16, -np.inf), rng.normal(0.0, 2.0, 16)])
    singles = [bp_state(spec) for _ in lam]
    st = bp_state(spec, batch=3)
    bp_iteration(st, lam)
    for one, row in zip(singles, lam):
        bp_iteration(one, row[None])
    assert st.message_updates == sum(one.message_updates for one in singles)
    assert st.contradiction[1]  # the +-inf row contradicts its frozen pins
    before = [_message_digest(st, i) for i in range(3)]
    active = np.array([0, 2])
    sub = st.take(active)
    assert sub.message_updates == 0
    bp_iteration(sub, lam[active])
    counted = 0
    for i in active:
        counted -= singles[i].message_updates
        bp_iteration(singles[i], lam[i][None])
        counted += singles[i].message_updates
    assert sub.message_updates == counted
    assert [_message_digest(st, i) for i in range(3)] == before  # the batch it came from is untouched
    for j, i in enumerate(active):
        assert _message_digest(sub, j) == _message_digest(singles[i], 0), i


def test_bp_batch_rejects_tick_and_mismatched_shapes(arikan):
    spec = spec_all_free(arikan, 2)
    st = bp_state(spec, batch=2)
    with pytest.raises(ValueError):
        bp_iteration(st, np.zeros((2, 4)), tick=lambda *args: None)
    with pytest.raises(ValueError):
        bp_iteration(st, np.zeros(4))
    with pytest.raises(ValueError):
        bp_iteration(bp_state(spec), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        run_bp_line(spec, np.zeros((2, 4)))
    for bad in (np.zeros((2, 5)), np.zeros((1, 2, 4)), np.zeros((0, 4))):
        with pytest.raises(ValueError):
            bp_decode(spec, bad)


def test_bp_rejects_non_positive_iterations(arikan):
    spec = spec_all_free(arikan, 2)
    for iters in (0, -1):
        with pytest.raises(ValueError):
            bp_decode(spec, np.zeros(4), max_iters=iters)
        with pytest.raises(ValueError):
            bp_decode(spec, np.zeros((3, 4)), max_iters=iters)


# unobserved shortcuts --------------------------------------------------------
#
# An unobserved sweep runs rate-0 and rate-1 subtrees as level passes and
# runs size-2 nodes with a frozen left coordinate in numpy. An observed
# sweep takes neither, so a no-op tick gives the reference. Both take the
# value-checked node identities (bp._identity) in place of f; patched to
# find none, an observed sweep computes every f by the formula.


def _observe_nothing(d, r, op, outs):
    pass


def _draw_blocks(data, lo, n, frozen):
    # frozen pins for coordinates lo..lo+n-1, block by block: frozen to 0,
    # frozen with one pin of value 1, free, or two halves drawn alike
    shape = data.draw(hs.sampled_from(("split", "zeros", "with-one", "free")[n == 1 :]))
    if shape == "split":
        _draw_blocks(data, lo, n // 2, frozen)
        _draw_blocks(data, lo + n // 2, n // 2, frozen)
    elif shape != "free":
        frozen.update(dict.fromkeys(range(lo, lo + n), 0))
        if shape == "with-one":
            frozen[data.draw(hs.integers(lo, lo + n - 1))] = 1


def _evidence_row(data, n):
    rng = np.random.default_rng(data.draw(hs.integers(0, 2**32 - 1)))
    lam = rng.normal(0.0, 2.0, n)
    kind = data.draw(hs.sampled_from(("gauss", "inf", "nan", "huge")))
    if kind == "inf":
        hard = rng.random(n) < 0.45
        lam[hard] = rng.choice([np.inf, -np.inf], n)[hard]
    elif kind == "nan":
        lam[rng.random(n) < 0.15] = np.nan
        lam[rng.integers(n)] = np.nan
    elif kind == "huge":  # beyond BP_CLIP, as bp_iteration takes them: sums overflow
        return np.where(rng.random(n) < 0.5, lam, np.copysign(1e308, lam))
    return np.where(np.isfinite(lam), np.clip(lam, -BP_CLIP, BP_CLIP), lam)


def _same_bytes(got, want):
    # bit for bit, signed zeros included; NaN matches NaN by position, as a
    # NaN's sign bit already differs between sweeps of one frame
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


@settings(max_examples=120, deadline=None)
@given(hs.integers(1, 6), hs.data())
def test_bp_unobserved_sweep_matches_observed_walk(m, data):
    # every message, flag and count of an unobserved batch sweep equals the
    # observed walk of each frame alone, sweep after sweep; fresh evidence
    # at each sweep meets the messages the last one left, NaN included
    n = 2**m
    frozen = {}
    _draw_blocks(data, 0, n, frozen)
    spec = CodeSpec(kernel_arikan(), m, frozen)
    rows = data.draw(hs.integers(1, 3))
    fresh = data.draw(hs.booleans())
    min_sum = data.draw(hs.booleans())
    batch = bp_state(spec, min_sum=min_sum, batch=rows)
    singles = [bp_state(spec, min_sum=min_sum) for _ in range(rows)]
    for sweep in range(data.draw(hs.integers(1, 3))):
        if sweep == 0 or fresh:
            lam = np.array([_evidence_row(data, n) for _ in range(rows)])
        with np.errstate(over="ignore"):
            bp_iteration(batch, lam)
            for row, one in zip(lam, singles):
                bp_iteration(one, row[None], tick=_observe_nothing)
        for i, one in enumerate(singles):
            for got, want in zip((batch.u_msg, batch.x_out, *batch.mu_v), (one.u_msg, one.x_out, *one.mu_v)):
                assert _same_bytes(got[i], want[0]), (sweep, i)
            assert batch.contradiction[i] == one.contradiction[0], (sweep, i)
        assert batch.message_updates == sum(one.message_updates for one in singles), sweep


def _ticked_sweep(st, lam, formula_only):
    # one observed sweep; every tick as (d, r, op) and a copy of its outputs
    ticks = []
    tick = lambda d, r, op, outs: ticks.append(((d, r, op), np.array(outs, dtype=np.float64)))
    with pytest.MonkeyPatch.context() as mp:
        if formula_only:
            mp.setattr(bp, "_identity", lambda kind, msg, partner: None)
        bp_iteration(st, lam, tick=tick)
    return ticks


def _same_state(got, want, row):
    # every message of frame `row` of got, its flag and (for a batch of one)
    # its count equal those of the single-frame state want
    for a, b in zip((got.u_msg, got.x_out, *got.mu_v), (want.u_msg, want.x_out, *want.mu_v)):
        if not _same_bytes(a[row], b[0]):
            return False
    return got.contradiction[row] == want.contradiction[0]


@settings(max_examples=80, deadline=None)
@given(hs.integers(1, 6), hs.data())
def test_bp_node_identities_match_the_formula_tick_by_tick(m, data):
    # an observed sweep that takes the node identities ticks the same
    # operations, in the same order and with the same bytes, as one that
    # computes every f by the formula, sweep after sweep; so does the
    # unobserved batch sweep in every message, flag and count. Blocks frozen
    # with a 1 are no rate-0 node, and min-sum has no rate-1 identity.
    n = 2**m
    frozen = {}
    _draw_blocks(data, 0, n, frozen)
    spec = CodeSpec(kernel_arikan(), m, frozen)
    rows = data.draw(hs.integers(1, 3))
    fresh = data.draw(hs.booleans())
    min_sum = data.draw(hs.booleans())
    batch = bp_state(spec, min_sum=min_sum, batch=rows)
    fast = [bp_state(spec, min_sum=min_sum) for _ in range(rows)]
    slow = [bp_state(spec, min_sum=min_sum) for _ in range(rows)]
    for sweep in range(data.draw(hs.integers(1, 3))):
        if sweep == 0 or fresh:
            lam = np.array([_evidence_row(data, n) for _ in range(rows)])
        with np.errstate(over="ignore"):
            bp_iteration(batch, lam)
            for i, row in enumerate(lam):
                got = _ticked_sweep(fast[i], row[None], formula_only=False)
                want = _ticked_sweep(slow[i], row[None], formula_only=True)
                assert [op for op, _ in got] == [op for op, _ in want], (sweep, i)
                for (op, a), (_, b) in zip(got, want):
                    assert _same_bytes(a, b), (sweep, i, op)
                assert _same_state(fast[i], slow[i], 0), (sweep, i)
                assert _same_state(batch, slow[i], i), (sweep, i)
                assert fast[i].message_updates == slow[i].message_updates, (sweep, i)
        assert batch.message_updates == sum(one.message_updates for one in slow), sweep


@pytest.mark.parametrize("frozen", [{}, {0: 0, 1: 0, 2: 0, 3: 0}])
def test_bp_nan_left_in_mu_v_keeps_the_walk(frozen):
    # a NaN stored by an earlier sweep is fed back by the next one, even on
    # finite evidence, so that sweep must take every step too
    spec = CodeSpec(kernel_arikan(), 2, frozen)
    fast, walk = bp_state(spec), bp_state(spec)
    for lam in ([[np.nan, 1.0, 2.0, -1.0]], [[0.5, 1.0, 2.0, -1.0]]):
        bp_iteration(fast, np.array(lam))
        bp_iteration(walk, np.array(lam), tick=_observe_nothing)
        for got, want in zip((fast.u_msg, fast.x_out, *fast.mu_v), (walk.u_msg, walk.x_out, *walk.mu_v)):
            assert _same_bytes(got[0], want[0]), lam


def test_bp_grouped_level_passes_match_the_walk(monkeypatch):
    # construct_bec(7, 0.5, 0.5) has 5 rate-0 and 5 rate-1 subtrees at
    # depth 6, 3 + 3 at depth 5, 2 + 2 at depth 4 and 1 + 1 at depth 3: an
    # unobserved sweep runs one level pass per depth and kind, over all the
    # subtrees recorded there. Sweep 2 feeds +-inf, so some subtrees walk;
    # in sweep 3 a rate-0 pass then holds a subtree whose mu is not +inf
    # next to ones whose mu is +inf throughout, where f(x0, +inf) must keep
    # x0's bits. Every message, flag and count equals the walk of each frame.
    spec = construct_bec(7, 0.5, 0.5)
    passes = []
    level_pass = bp._level_pass

    def recorded(state, d, free, nodes, x):
        w = x.shape[2] // 2
        full = [bool((state.mu_v[d][:, r * w : (r + 1) * w] == np.inf).all()) for r in nodes.tolist()]
        passes.append((d, free, nodes.tolist(), full))
        level_pass(state, d, free, nodes, x)

    monkeypatch.setattr(bp, "_level_pass", recorded)
    rng = np.random.default_rng(5)
    for b in (1, 5):
        lam = channel_llr(spec, rng.normal(1.0, 1.0, (b, 128)))
        hard = lam.copy()
        pick = (rng.random((b, 128)) < 0.5) & (np.arange(128) < 112)
        pick[1:4] = False  # frames 1 to 3 stay within +-BP_CLIP
        hard[pick] = rng.choice([np.inf, -np.inf], (b, 128))[pick]
        fast = bp_state(spec, batch=b)
        walks = [bp_state(spec) for _ in range(b)]
        for sweep, llr in enumerate((lam, hard, lam)):
            passes.clear()
            bp_iteration(fast, llr)
            for row, one in zip(llr, walks):
                bp_iteration(one, row[None], tick=_observe_nothing)
            for i, one in enumerate(walks):
                assert _same_state(fast, one, i), (b, sweep, i)
            assert fast.message_updates == sum(one.message_updates for one in walks), (b, sweep)
            if sweep == 0:
                assert [(d, free, len(nodes)) for d, free, nodes, _ in sorted(passes)] == [
                    (3, False, 1), (3, True, 1), (4, False, 2), (4, True, 2),
                    (5, False, 3), (5, True, 3), (6, False, 5), (6, True, 5)]
        assert any(any(full) and not all(full) for d, free, _, full in passes if not free and d < 6), b


def test_bp_sweep_of_an_empty_batch():
    # a state of no frames sweeps to nothing, its level passes included
    spec = construct_bec(7, 0.5, 0.5)
    st = bp_state(spec, batch=0)
    bp_iteration(st, np.zeros((0, 128)))
    assert st.x_out.shape == st.u_msg.shape == (0, 128) and st.message_updates == 0


def _count_f_calls(monkeypatch):
    # the arguments of every scalar and every vector f the sweep makes
    calls = {"scalar": [], "vector": []}
    for name in ("f_plus", "f_plus_minsum"):
        fn = getattr(bp, name)
        monkeypatch.setattr(bp, name, lambda a, b, fn=fn: calls["scalar"].append((a, b)) or fn(a, b))
    vec = bp.f_plus_vec
    monkeypatch.setattr(bp, "f_plus_vec",
                        lambda a, b, min_sum=False: calls["vector"].append((a, b)) or vec(a, b, min_sum=min_sum))
    return calls


def test_bp_second_sweep_makes_no_f_call_inside_rate0_subtrees(monkeypatch):
    spec = construct_bec(7, 0.5, 0.5)
    assert set(spec.frozen.values()) == {0}
    lam = channel_llr(spec, np.random.default_rng(3).normal(1.0, 1.0, (4, 128)))
    st = bp_state(spec, batch=4)
    bp_iteration(st, lam)
    calls = _count_f_calls(monkeypatch)
    bp_iteration(st, lam)
    # a scalar f inside a rate-0 pair would take its prior +inf; only the
    # pairs with a free right coordinate make one, u0, per frame
    pairs = [(2 * i in spec.frozen, 2 * i + 1 in spec.frozen) for i in range(64)]
    assert (False, True) not in pairs
    assert len(calls["scalar"]) == 4 * pairs.count((False, False)) + 4 * pairs.count((True, False))
    assert all(math.isfinite(a) and math.isfinite(b) for a, b in calls["scalar"])
    # a vector f on a message that is +inf throughout is a copy: none runs
    assert calls["vector"]
    assert not any((np.asarray(v) == np.inf).all() for args in calls["vector"] for v in args)


@pytest.mark.parametrize("how", ["unobserved", "ticked", "nan", "min-sum"])
def test_bp_rate1_subtree_f_counts(monkeypatch, arikan, how):
    # an all-free code is one rate-1 subtree. The walk makes 3 scalar f per
    # size-2 node and 3 vector f per other node; the level pass one scalar f
    # per pair and one vector f per level above the pairs. A tick, a NaN or
    # the min-sum rule keeps the walk. A ticked walk on finite evidence
    # makes only u_out's vector f at each of the 7 nodes above the pairs:
    # their left child is rate-1 and sent back +-0, so a0e1 and x0_out are
    # +0.0 by the rate-1 identity. Here a NaN reaches every such node, and
    # min-sum has no rate-1 identity. The tick still sees every operation.
    spec = spec_all_free(arikan, 4)
    lam = channel_llr(spec, np.random.default_rng(4).normal(0.0, 2.0, (1, 16)))
    if how == "nan":
        lam[0, 5] = np.nan
    st = bp_state(spec, min_sum=how == "min-sum")
    bp_iteration(st, lam)
    calls = _count_f_calls(monkeypatch)
    ticks = []
    bp_iteration(st, lam, tick=(lambda d, r, op, outs: ticks.append(op)) if how == "ticked" else None)
    want = {"unobserved": (8, 3), "ticked": (24, 7)}.get(how, (24, 21))
    assert (len(calls["scalar"]), len(calls["vector"])) == want
    if how == "ticked":
        assert len(ticks) == (11 * 16 - 14) // 2
