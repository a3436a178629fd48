import numpy as np
import pytest

from polarbench.channels import bec, biawgn, bsc, likelihood_rows_binary, transmit
from polarbench.construction import (
    bec_erasure_profile,
    construct_bec,
    construct_montecarlo,
    freeze_worst,
    montecarlo_error_profile,
)
from polarbench.kernels import CodeSpec, encode_unchecked, kernel_arikan, kernel_linear
from polarbench.llrops import LlrContradiction
from polarbench.montecarlo import LANE_SIZE
from polarbench.sc import decode_sc_arikan, decode_sc_general

from conftest import G4


def test_bec_profile_n4_exact():
    # one level from z: (2z - z^2, z^2); two levels from 0.5 give
    # (0.9375, 0.5625, 0.4375, 0.0625)
    z = bec_erasure_profile(2, 0.5)
    assert z == pytest.approx([0.9375, 0.5625, 0.4375, 0.0625])


def test_bec_profile_degenerate_ends():
    assert list(bec_erasure_profile(3, 0.0)) == [0.0] * 8
    assert list(bec_erasure_profile(3, 1.0)) == [1.0] * 8
    with pytest.raises(ValueError):
        bec_erasure_profile(2, 1.2)


def test_bec_profile_refuses_codes_beyond_max_n():
    # the profile is a list of N floats: a depth past MAX_N is refused first
    with pytest.raises(ValueError, match="exceeds the longest supported code length"):
        bec_erasure_profile(10**18, 0.5)


def test_bec_profile_conservation():
    # polarization preserves the average erasure probability
    for eps in (0.3, 0.5, 0.7):
        for m in (1, 4, 7):
            z = bec_erasure_profile(m, eps)
            assert z.mean() == pytest.approx(eps, abs=1e-12)


def test_bec_profile_last_is_best():
    z = bec_erasure_profile(5, 0.4)
    assert z[-1] == z.min()
    assert z[0] == z.max()


def test_freeze_worst_count_and_values():
    badness = np.array([0.9, 0.1, 0.5, 0.3])
    frozen = freeze_worst(badness, 0.5)
    assert frozen == {0: 0, 2: 0}
    assert freeze_worst(badness, 1.0) == {}
    assert set(freeze_worst(badness, 0.0)) == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        freeze_worst(badness, 1.5)


def test_freeze_worst_rounds_up():
    # N=4, rate 0.7 -> ceil(1.2) = 2 frozen
    frozen = freeze_worst(np.array([4.0, 3.0, 2.0, 1.0]), 0.7)
    assert len(frozen) == 2


def test_freeze_worst_tie_breaks_low_index():
    badness = np.array([0.5, 0.5, 0.5, 0.1])
    frozen = freeze_worst(badness, 0.5)
    assert set(frozen) == {0, 1}


def _profile_by_position(m, eps):
    # the recursion one position at a time, as a list of Python floats
    vec = [float(eps)]
    for _ in range(m):
        vec = [f(z) for z in vec for f in (lambda z: 2 * z - z * z, lambda z: z * z)]
    return vec


def _freeze_by_position(badness, rate):
    # worst first, equal scores toward the lower index
    order = sorted(range(len(badness)), key=lambda i: (-badness[i], i))
    return order[: int(np.ceil(len(badness) * (1.0 - rate)))]


@pytest.mark.parametrize("eps", [0.0, 0.03, 0.3, 0.5, 0.77, 1.0])
def test_bec_construction_on_arrays_matches_per_position(eps):
    # the array recursion and the stable argsort give the per-position
    # profile bit for bit, and the same frozen set in the same order
    for m in range(1, 13):
        ref = _profile_by_position(m, eps)
        z = bec_erasure_profile(m, eps)
        assert z.tolist() == ref
        for rate in (0.0, 0.25, 0.5, 0.8, 1.0):
            assert list(freeze_worst(z, rate)) == _freeze_by_position(ref, rate)


def test_freeze_worst_many_ties_matches_per_position():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        badness = rng.integers(0, 4, n) / 4.0
        rate = float(rng.random())
        assert list(freeze_worst(badness, rate)) == _freeze_by_position(badness, rate)


def test_construct_bec_spec():
    spec = construct_bec(3, 0.5, 0.5)
    assert spec.n == 8
    assert spec.k_info == 4
    assert all(v == 0 for v in spec.frozen.values())
    # the most reliable coordinate is never frozen at rate 1/2
    assert spec.n - 1 not in spec.frozen
    assert 0 in spec.frozen


def test_mc_profile_deterministic_and_sane(arikan):
    ch = bsc(0.05)
    p1 = montecarlo_error_profile(arikan, 3, ch, 60, rng=7)
    p2 = montecarlo_error_profile(arikan, 3, ch, 60, rng=7)
    assert np.array_equal(p1, p2)
    assert p1.shape == (8,)
    assert np.all(p1 >= 0) and np.all(p1 <= 1)
    # coordinate 0 sees the worst synthetic channel, coordinate N-1 the best
    assert p1[0] >= p1[-1]


def test_mc_profile_matches_bec_ordering(arikan):
    # on a BEC the empirical genie error rate tracks the exact erasure profile
    prof = montecarlo_error_profile(arikan, 3, bec(0.5), 400, rng=1)
    z = bec_erasure_profile(3, 0.5)
    assert prof[np.argmin(z)] <= prof[np.argmax(z)]


def test_mc_profile_rejects_nonbinary():
    k = kernel_linear([[1, 0], [1, 1]], q=4)
    with pytest.raises(ValueError):
        montecarlo_error_profile(k, 2, bec(0.5), 10, rng=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_mc_profile_rejects_trials_below_one(arikan, trials):
    # no frame gives no error rate: refused, not an all-NaN profile or a
    # code frozen in index order
    with pytest.raises(ValueError, match="trials must be >= 1"):
        montecarlo_error_profile(arikan, 2, bec(0.5), trials, rng=1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        construct_montecarlo(arikan, 2, bec(0.5), rate=0.5, trials=trials, rng=1)


def test_construct_montecarlo_general_kernel():
    k4 = kernel_linear(G4, q=2)
    spec = construct_montecarlo(k4, 1, bec(0.3), rate=0.5, trials=50, rng=3)
    assert spec.n == 4
    assert spec.k_info == 2
    assert all(v == 0 for v in spec.frozen.values())


def _genie_profile_per_frame(kernel, m, channel, trials, rng, min_sum=False):
    # the genie loop one (N,) or (N, q) decode at a time, in the same draw order
    rng = np.random.default_rng(rng)
    free = CodeSpec(kernel=kernel, m=m, frozen={})
    counts = np.zeros(free.n, dtype=np.int64)
    for _ in range(trials):
        u = rng.integers(0, 2, size=free.n)
        llr = transmit(channel, encode_unchecked(kernel, u), rng)
        if kernel.is_arikan:
            counts += decode_sc_arikan(free, llr, min_sum=min_sum, genie_u=u).u_hat != u
        else:
            counts += decode_sc_general(free, likelihood_rows_binary(llr), genie_u=u).u_hat != u
    return counts / trials


@pytest.mark.parametrize("channel,min_sum", [
    (bec(0.5), False), (bsc(0.08), False), (bsc(0.0), False), (biawgn(0.8), True),
])
@pytest.mark.parametrize("kernel,m", [(kernel_arikan(), 4), (kernel_linear(G4), 2)], ids=["arikan", "g4"])
def test_mc_profile_batched_matches_per_frame(kernel, m, channel, min_sum):
    # LANE_SIZE + 5 trials: one full chunk and one partial chunk, each one
    # batched genie call of the (u+v, v) or the general-kernel recursion
    trials = LANE_SIZE + 5
    if min_sum and not kernel.is_arikan:
        # min-sum is an f rule of the (u+v, v) recursion: refused, not ignored
        with pytest.raises(ValueError, match="min_sum"):
            montecarlo_error_profile(kernel, m, channel, trials, rng=6, min_sum=True)
        min_sum = False
    got = montecarlo_error_profile(kernel, m, channel, trials, rng=6, min_sum=min_sum)
    want = _genie_profile_per_frame(kernel, m, channel, trials, 6, min_sum)
    assert np.array_equal(got, want)


def test_mc_profile_general_chunks_capped(monkeypatch):
    # decode_frame hands a general-kernel genie chunk to the decoder in
    # slices of at most frames_per_call frames; the slices never change
    # the profile
    import polarbench.montecarlo as mc

    k4 = kernel_linear(G4)
    want = montecarlo_error_profile(k4, 2, bsc(0.08), 40, rng=9)
    calls = []

    def counting(spec, rows, **kw):
        calls.append(len(rows))
        return decode_sc_general(spec, rows, **kw)

    monkeypatch.setattr(mc, "decode_sc_general", counting)
    monkeypatch.setattr(mc, "SC_CELLS", 6 * 16 * 16)
    got = montecarlo_error_profile(k4, 2, bsc(0.08), 40, rng=9)
    assert calls == [6] * 6 + [4]
    assert np.array_equal(got, want)


def test_mc_profile_contradicting_evidence_raises(arikan, monkeypatch):
    # a channel cannot contradict the sent word; if the evidence does, the
    # genie profile raises rather than counting a meaningless frame
    import polarbench.construction as construction

    def lying(spec, channel, count, rng):
        u = np.zeros((count, spec.n), dtype=np.int64)
        llr = np.full((count, spec.n), np.inf)
        llr[:, 0] = -np.inf  # certain, and wrong, about one bit
        return u, llr

    monkeypatch.setattr(construction, "draw_frames", lying)
    with pytest.raises(LlrContradiction):
        montecarlo_error_profile(arikan, 3, bec(0.5), 10, rng=0)
