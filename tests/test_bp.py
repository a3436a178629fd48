import math

import numpy as np
import pytest

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
from polarbench.kernels import CodeSpec, encode, kernel_linear
from polarbench.llrops import BP_CLIP, f_plus
from polarbench.hwsim import run_bp_line
from polarbench.sc import decode_sc_arikan

from conftest import random_llr, spec_all_free


def test_bp_requires_arikan():
    k = kernel_linear([[1, 1], [0, 1]], q=2)
    with pytest.raises(ValueError):
        bp_state(CodeSpec(kernel=k, m=2, frozen={}))


def test_bp_state_layout(arikan):
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 1})
    st = bp_state(spec)
    assert len(st.mu_v) == 3
    assert all(len(v) == 4 for v in st.mu_v)
    # deepest-level v-messages hold the odd-coordinate priors
    assert st.mu_v[2][0] == -np.inf  # coordinate 1 pinned to value 1
    assert list(st.mu_v[2][1:]) == [0.0, 0.0, 0.0]
    assert st.priors[0] == np.inf
    assert st.priors[1] == -np.inf
    assert list(st.priors[2:]) == [0.0] * 6


def test_bp_n2_single_iteration_semantics(arikan):
    # at N=2 one sweep reproduces the SC update pair exactly
    spec = CodeSpec(kernel=arikan, m=1, frozen={0: 0})
    lam = np.array([1.3, -0.4])
    st = bp_state(spec)
    bp_iteration(st, lam)
    assert st.u_msg[0] == pytest.approx(f_plus(1.3, -0.4))
    # u1 message: prior(u0) boxplus lam0, plus lam1
    assert st.u_msg[1] == pytest.approx(f_plus(np.inf, 1.3) + (-0.4))
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
        bp_iteration(st, llr)
        for d in range(st.m):
            assert set(np.asarray(st.mu_v[d]).tolist()) <= closed
            assert set(np.asarray(st.mu_u[d]).tolist()) <= closed
        assert set(st.u_msg.tolist()) <= closed
        assert set(st.x_out.tolist()) <= closed


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
            bp_iteration(st, llr)
        resolved = np.isinf(st.u_msg)
        assert np.array_equal(st.u_msg[resolved] < 0, u[resolved] == 1)


def test_bp_only_mu_v_persists(arikan):
    # poisoning every transient slot between iterations must not change
    # anything: the sweep reads only mu_v and the inputs
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(8)})
    rng = np.random.default_rng(5)
    u = spec.assemble(rng.integers(0, 2, 8))
    x = encode(spec, u)
    llr = transmit(bec(0.4), x, rng)

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
        bp_iteration(st, np.zeros(n))
        assert st.message_updates == (n // 2) * (7 * (m - 1) + 6)
        bp_iteration(st, np.zeros(n))
        assert st.message_updates == 2 * (n // 2) * (7 * (m - 1) + 6)


def test_bp_matches_sc_on_first_bit(arikan, rng):
    # the first input coordinate has no decision feedback, so one BP sweep
    # computes exactly the SC decision LLR for it
    spec = spec_all_free(arikan, 3)
    llr = random_llr(rng, 8)
    st = bp_state(spec)
    bp_iteration(st, llr)
    ref = decode_sc_arikan(spec, llr, trace=True)
    assert st.u_msg[0] == pytest.approx(ref.decision_llrs[0], abs=1e-9)


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
    bp_iteration(st, np.array([39.0, 39.0, 39.0, 39.0]))
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
    bp_iteration(st, np.array([0.5, -0.5, 0.25, -0.25]))
    u = _decisions(st, mask, vals)
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
