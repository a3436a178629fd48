import math
import types
import warnings

import numpy as np
import pytest

from polarbench.channels import (
    ChannelModel,
    DegenerateEvidenceError,
    apply_noise,
    bec,
    biawgn,
    bsc,
    draw_noise,
    likelihood_rows,
    likelihood_rows_binary,
    transmit,
)


def test_channel_validation():
    bec(0.0)
    bec(1.0)
    with pytest.raises(ValueError):
        bec(1.5)
    with pytest.raises(ValueError):
        bsc(0.5)
    with pytest.raises(ValueError):
        bsc(-0.1)
    with pytest.raises(ValueError):
        biawgn(0.0)
    # sigma**2 and 2 / sigma**2 must be finite and nonzero
    for bad in (1e300, 1e151, 1e-151, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="sigma"):
            biawgn(bad)
    with pytest.raises(ValueError):
        ChannelModel("laplace", 1.0)
    for kind in ("bec", "bsc", "biawgn"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                ChannelModel(kind, bad)


@pytest.mark.parametrize("sigma", [1e-150, 1e150])
def test_biawgn_sigma_range_ends_give_finite_llrs(sigma):
    llr = transmit(biawgn(sigma), np.array([0, 1, 0, 1]), np.random.default_rng(0))
    assert np.isfinite(llr).all() and (llr != 0.0).all()


def test_bsc_llr_magnitude():
    # p = 0.1: received 0 carries lambda = ln(0.9/0.1) = ln 9
    ch = bsc(0.1)
    x = np.zeros(2000, dtype=np.int64)
    llr = transmit(ch, x, np.random.default_rng(0))
    mag = math.log(9.0)
    assert set(np.round(llr, 12)) <= {round(mag, 12), round(-mag, 12)}
    # y=0 keeps the positive sign
    assert llr[0] == pytest.approx(mag) or llr[0] == pytest.approx(-mag)
    flips = (llr < 0).mean()
    assert 0.07 < flips < 0.13


def test_bsc_p_zero_is_noiseless():
    llr = transmit(bsc(0.0), np.array([0, 1, 1, 0]), np.random.default_rng(1))
    assert list(llr) == [np.inf, -np.inf, -np.inf, np.inf]


def test_bec_closure():
    # BEC outputs live in {0, +-inf} only
    ch = bec(0.4)
    x = np.random.default_rng(2).integers(0, 2, 500)
    llr = transmit(ch, x, np.random.default_rng(3))
    vals = set(llr.tolist())
    assert vals <= {0.0, math.inf, -math.inf}
    # unerased positions keep the transmitted sign
    keep = llr != 0.0
    assert np.all((llr[keep] > 0) == (x[keep] == 0))
    assert 0.3 < (llr == 0.0).mean() < 0.5


def test_bec_extremes():
    x = np.array([0, 1, 0, 1])
    assert list(transmit(bec(1.0), x, 0)) == [0.0, 0.0, 0.0, 0.0]
    assert list(transmit(bec(0.0), x, 0)) == [np.inf, -np.inf, np.inf, -np.inf]


def test_biawgn_llr_scaling():
    # lambda = 2y/sigma^2, so the all-zeros word at tiny noise gives large positive llr
    ch = biawgn(0.1)
    llr = transmit(ch, np.zeros(100, dtype=np.int64), np.random.default_rng(4))
    assert np.all(llr > 0)
    assert llr.mean() == pytest.approx(2.0 / 0.01, rel=0.1)
    # sign flips for transmitted ones
    llr1 = transmit(ch, np.ones(100, dtype=np.int64), np.random.default_rng(5))
    assert np.all(llr1 < 0)


def test_transmit_accepts_seed_or_generator():
    x = np.array([0, 1, 0, 1, 1, 0])
    a = transmit(biawgn(0.8), x, 42)
    b = transmit(biawgn(0.8), x, np.random.default_rng(42))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("ch,draw", [
    (bec(0.4), lambda rng, n: rng.random(n)),
    (bsc(0.08), lambda rng, n: rng.random(n)),
    (bsc(0.0), lambda rng, n: None),  # noiseless: no draw at all
    (biawgn(0.8), lambda rng, n: rng.normal(0.0, 0.8, size=n)),
], ids=["bec", "bsc", "bsc0", "biawgn"])
def test_transmit_draws_one_frame_of_noise(ch, draw):
    # the RNG contract of every seeded row: one documented draw per frame
    x = np.array([0, 1, 1, 0, 1])
    got, want = np.random.default_rng(8), np.random.default_rng(8)
    llr = transmit(ch, x, got)
    draw(want, len(x))
    assert got.bit_generator.state == want.bit_generator.state
    # the batched noise step gives each row what transmit gives that frame
    noise = np.stack([draw_noise(ch, len(x), np.random.default_rng(8)) for _ in range(3)])
    rows = apply_noise(ch, np.stack([x, 1 - x, x]), noise)
    assert np.array_equal(rows[0], llr) and np.array_equal(rows[2], llr)
    assert np.array_equal(rows[1], transmit(ch, 1 - x, np.random.default_rng(8)))


def _apply_noise_by_where(ch, x, noise):
    # the np.where form of apply_noise's bec and bsc steps: the reference
    # its table lookups must match byte for byte
    if ch.kind == "bec":
        llr = np.where(x == 0, np.inf, -np.inf)
        return np.where(noise < ch.param, 0.0, llr)
    p = ch.param
    if p == 0.0:
        return np.where(x == 0, np.inf, -np.inf)
    y = x ^ (noise < p)
    mag = math.log((1.0 - p) / p)
    return np.where(y == 0, mag, -mag)


@pytest.mark.parametrize("kind,param", [("bec", 0.4), ("bsc", 0.0), ("bsc", 0.08), ("bsc", 0.5)])
def test_apply_noise_lookup_matches_where_form(kind, param):
    # bsc at p = 0.5 (outside ChannelModel's range, so given as a bare
    # kind and param) has mag = 0.0, where the sign of each zero shows
    ch = types.SimpleNamespace(kind=kind, param=param)
    rng = np.random.default_rng(31)
    x = rng.integers(0, 2, (3, 5, 64))
    assert x.dtype == np.int64
    noise = np.zeros(x.shape) if (kind, param) == ("bsc", 0.0) else rng.random(x.shape)
    # uniforms exactly at the threshold neither erase nor flip
    noise[0, 0, :8] = param
    noise[0, 1, :8] = np.nextafter(param, 0.0) if param else 0.0
    got, want = apply_noise(ch, x, noise), _apply_noise_by_where(ch, x, noise)
    assert got.dtype == want.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    # the sign bit is the received bit, -0.0 included; an erasure is +0.0
    received = x ^ (noise < param) if kind == "bsc" else x & (noise >= param)
    assert (np.signbit(got) == received.astype(bool)).all()
    at = noise == param
    assert (received[at] == x[at]).all() and (kind == "bsc" or np.isinf(got[at]).all())


def test_likelihood_rows_validation():
    assert likelihood_rows(np.zeros((3, 4))).shape == (3, 4)
    assert likelihood_rows(np.zeros((2, 3, 4))).shape == (2, 3, 4)  # a batch of two frames
    for bad in (np.zeros(4), np.zeros((3, 1)), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError):
            likelihood_rows(bad)
    # LLRs against symbol 0 may carry any per-row offset
    assert np.array_equal(likelihood_rows([[0.0, 1.0, 3.0]]), likelihood_rows([[0.5, 1.5, 3.5]]))


def test_likelihood_rows_span_beyond_float_range():
    # 1e308 - (-1e308) overflows to inf, and exp(-inf) = 0 is the right value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = likelihood_rows(np.array([[0.0, 1e308, -1e308]]))
    assert out.tolist() == [[0.0, 0.0, 1.0]]


def test_likelihoods_round_trip():
    # rows back to LLRs must reproduce the input to high accuracy
    rng = np.random.default_rng(6)
    llr = rng.normal(0, 4, 64)
    rows = likelihood_rows_binary(llr)
    assert rows.shape == (64, 2)
    assert np.all(rows.max(axis=1) == 1.0)
    back = np.log(rows[:, 0]) - np.log(rows[:, 1])
    assert np.allclose(back, llr, atol=1e-12)


def test_likelihoods_known_values():
    # lambda = ln 3 means W(y|0) : W(y|1) = 3 : 1, i.e. rows (1, 1/3)
    rows = likelihood_rows_binary(np.array([math.log(3.0)]))
    assert rows[0, 0] == pytest.approx(1.0)
    assert rows[0, 1] == pytest.approx(1.0 / 3.0)
    # normalized posteriors would be (0.75, 0.25)
    post = rows[0] / rows[0].sum()
    assert post == pytest.approx([0.75, 0.25])


def test_likelihoods_infinities():
    rows = likelihood_rows_binary(np.array([np.inf, -np.inf, 0.0]))
    assert list(rows[0]) == [1.0, 0.0]
    assert list(rows[1]) == [0.0, 1.0]
    assert list(rows[2]) == [1.0, 1.0]


def test_likelihoods_nonbinary_and_errors():
    rows = likelihood_rows(np.array([[0.0, 1.0, np.inf, -0.5]]))
    assert rows.shape == (1, 4)
    assert rows[0, 2] == 0.0
    assert rows[0].max() == 1.0
    # the most plausible symbol (t=3, llr -0.5) carries the unit mass
    assert rows[0, 3] == 1.0
    with pytest.raises(ValueError, match="position 1: NaN"):
        likelihood_rows(np.array([[0.0, 1.0], [0.0, math.nan], [0.0, 2.0]]))


def test_degenerate_all_inf():
    with pytest.raises(DegenerateEvidenceError, match="position 2"):
        likelihood_rows(np.array([[0.0, 1.0], [0.0, np.inf], [np.inf, np.inf]]))
    # the first bad position decides which error is raised
    with pytest.raises(DegenerateEvidenceError):
        likelihood_rows(np.array([[np.inf, np.inf], [0.0, math.nan]]))


def test_minus_inf_wins_over_finite():
    rows = likelihood_rows(np.array([[0.0, -np.inf, 3.0], [np.inf, -np.inf, -np.inf]]))
    assert list(rows[0]) == [0.0, 1.0, 0.0]
    assert list(rows[1]) == [0.0, 1.0, 1.0]


def test_binary_rows_are_the_q2_case():
    llr = np.array([1.5, -2.0, 0.0, np.inf, -np.inf, 700.0, -700.0])
    rows = likelihood_rows_binary(llr)
    assert np.array_equal(rows, likelihood_rows(np.stack([np.zeros(7), llr], axis=1)))
    assert list(rows[3]) == [1.0, 0.0] and list(rows[4]) == [0.0, 1.0]


def test_likelihood_rows_batch_matches_per_frame_calls():
    # leading frame axes are converted row by row: each frame's rows are
    # what a call on that frame alone gives, bit for bit
    rng = np.random.default_rng(21)
    picks = np.array([0.0, np.inf, -np.inf, 1.0])
    for _ in range(200):
        b, n, q = rng.integers(1, 5), rng.integers(1, 6), rng.integers(2, 5)
        llr = rng.normal(0.0, 3.0, (b, n, q))
        hit = rng.random((b, n, q)) < 0.3
        llr[hit] = rng.choice(picks, hit.sum())
        singles = []
        for frame in llr:
            try:
                singles.append(likelihood_rows(frame))
            except DegenerateEvidenceError:
                singles.append(None)
        if any(s is None for s in singles):
            with pytest.raises(DegenerateEvidenceError, match=f"frame {singles.index(None)}, position"):
                likelihood_rows(llr)
            continue
        got = likelihood_rows(llr)
        assert np.array_equal(got, np.array(singles))
        assert np.array_equal(likelihood_rows_binary(llr[..., 1]), np.array(
            [likelihood_rows_binary(frame) for frame in llr[..., 1]]))
    with pytest.raises(ValueError, match="frame 1, position 2: NaN"):
        likelihood_rows_binary(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, math.nan]]))
