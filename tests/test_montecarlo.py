import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarbench.montecarlo as mc
from polarbench.bp import bp_decode
from polarbench.channels import (
    DegenerateEvidenceError,
    bec,
    biawgn,
    bsc,
    likelihood_rows,
    likelihood_rows_binary,
    transmit,
)
from polarbench.construction import construct_bec, construct_montecarlo
from polarbench.kernels import CodeSpec, encode, encode_unchecked, kernel_arikan, kernel_linear
from polarbench.llrops import LlrContradiction
from polarbench.montecarlo import (
    CSV_HEADER,
    LANE_SIZE,
    TrialStats,
    csv_row,
    decode_frame,
    draw_frames,
    frames_per_call,
    run_lane,
    run_trials,
)
from polarbench.sc import decode_sc_arikan, decode_sc_general
from polarbench.scl import decode_scl

from conftest import G4, Recorder


def test_trialstats_rates():
    s = TrialStats(trials=100, bit_errors=12, frame_errors=5, info_bits=4)
    assert s.ber == pytest.approx(12 / 400)
    assert s.fer == pytest.approx(0.05)
    empty = TrialStats(0, 0, 0, 4)
    assert empty.ber == 0.0
    assert empty.fer == 0.0


def test_trialstats_merge_associative():
    a = TrialStats(10, 3, 2, 4)
    b = TrialStats(20, 5, 4, 4)
    c = TrialStats(30, 7, 6, 4)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert left.trials == 60
    assert left.bit_errors == 15
    assert left.frame_errors == 12


@pytest.mark.parametrize("sizes", [[1], [LANE_SIZE], [LANE_SIZE, LANE_SIZE, 7]])
def test_run_trials_sums_its_lanes(sizes):
    # lane i takes the next LANE_SIZE trials (the last lane the rest),
    # drawn from default_rng([seed, i])
    spec = construct_bec(3, 0.5, 0.5)
    seed = 11
    want = TrialStats(0, 0, 0, spec.k_info)
    for i, count in enumerate(sizes):
        want = want.merge(run_lane(spec, bsc(0.05), "sc", count, np.random.default_rng([seed, i])))
    assert run_trials(spec, bsc(0.05), "sc", sum(sizes), seed) == want


def test_run_lane_clean_channel_no_errors():
    spec = construct_bec(3, 0.5, 0.5)
    stats = run_lane(spec, bec(0.0), "sc", 50, np.random.default_rng(0))
    assert stats.trials == 50
    assert stats.bit_errors == 0
    assert stats.frame_errors == 0


def test_run_lane_decoders_agree_on_interface():
    spec = construct_bec(3, 0.5, 0.5)
    rng = np.random.default_rng(1)
    for dec in ("sc", "scl", "bp"):
        stats = run_lane(spec, bsc(0.05), dec, 30, rng)
        assert stats.trials == 30
        assert 0 <= stats.frame_errors <= 30
        assert stats.bit_errors >= stats.frame_errors


def test_run_lane_validation():
    spec = construct_bec(2, 0.5, 0.5)
    with pytest.raises(ValueError):
        run_lane(spec, bec(0.1), "viterbi", 5, np.random.default_rng(0))
    k = kernel_linear([[1, 0], [1, 1]], q=4)
    with pytest.raises(ValueError):
        run_lane(CodeSpec(kernel=k, m=2, frozen={}), bec(0.1), "sc", 5, 0)


def _lane_reference(spec, ch, decoder, count, rng, min_sum=False, iters=40, list_size=8):
    # run_lane's RNG order, one (N,) decode per frame, failures caught
    k = spec.k_info
    info = spec.info_indices()
    bits = frames = failures = 0
    for _ in range(count):
        u = spec.assemble(rng.integers(0, 2, k))
        lam = transmit(ch, encode(spec, u), rng)
        try:
            u_hat = decode_frame(spec, decoder, lam, list_size, iters, min_sum)
        except LlrContradiction:
            failures += 1
            frames += 1
            bits += k
            continue
        errs = int((u_hat[info] != u[info]).sum())
        frames += errs > 0
        bits += errs
    return TrialStats(count, bits, frames, k), failures


# rate 1/2 at N = 64, frozen by the genie-aided construction on bec 0.5
G4_CODE = construct_montecarlo(kernel_linear(G4), 3, bec(0.5), 0.5, LANE_SIZE, rng=1)


@pytest.mark.parametrize("ch,min_sum", [
    (bec(0.6), False), (bec(0.4), True), (bsc(0.08), False), (biawgn(0.8), False), (biawgn(0.8), True),
])
@pytest.mark.parametrize("count", [1, 7, LANE_SIZE])
@pytest.mark.parametrize("spec", [construct_bec(5, 0.5, 0.5), G4_CODE], ids=["arikan", "g4"])
def test_run_lane_matches_per_frame_reference(spec, ch, min_sum, count):
    # SC decodes the whole lane in one recursion, (u+v, v) or general-kernel
    if min_sum and not spec.kernel.is_arikan:
        # min-sum is an f rule of the (u+v, v) recursion: refused, not ignored
        with pytest.raises(ValueError, match="min_sum"):
            run_lane(spec, ch, "sc", count, np.random.default_rng(count), min_sum=True)
        min_sum = False
    got = run_lane(spec, ch, "sc", count, np.random.default_rng(count), min_sum=min_sum)
    want, failures = _lane_reference(spec, ch, "sc", count, np.random.default_rng(count), min_sum)
    assert got == want
    if ch.kind == "bec" and ch.param == 0.6 and count == LANE_SIZE:
        assert failures > 20  # the batch really holds contradicting frames


@pytest.mark.parametrize("ch", [bec(0.6), bsc(0.08), biawgn(0.8)])
@pytest.mark.parametrize("list_size", [2, 8])
@pytest.mark.parametrize("count", [1, 7, LANE_SIZE])
def test_run_lane_row_loop_decoders_match_reference(ch, list_size, count):
    # SCL decodes the whole lane in one list recursion; the tally is that
    # of one call per frame, failed frames included
    spec = construct_bec(5, 0.5, 0.5)
    got = run_lane(spec, ch, "scl", count, np.random.default_rng(count), list_size=list_size)
    want, failures = _lane_reference(spec, ch, "scl", count, np.random.default_rng(count),
                                     list_size=list_size)
    assert got == want
    if ch.kind == "bec" and list_size == 2 and count == LANE_SIZE:
        assert failures > 10  # the batch really holds contradicting frames


@pytest.mark.parametrize("ch,min_sum", [
    (bec(0.5), False), (bsc(0.08), False), (biawgn(0.8), False), (biawgn(0.8), True),
])
@pytest.mark.parametrize("count", [1, 7, LANE_SIZE])
def test_run_lane_bp_matches_per_frame_reference(ch, min_sum, count):
    # the whole lane in one BP call, each frame stopping on its own
    spec = construct_bec(4, 0.5, 0.5)
    got = run_lane(spec, ch, "bp", count, np.random.default_rng(count), iters=12, min_sum=min_sum)
    want, failures = _lane_reference(spec, ch, "bp", count, np.random.default_rng(count), min_sum, 12)
    assert got == want
    assert failures == 0  # BP flags contradictions and never fails a frame


@pytest.mark.parametrize("ch", [bec(0.5), biawgn(0.8)])
def test_run_trials_bp_jobs_agree(ch):
    spec = construct_bec(4, 0.5, 0.5)
    one = run_trials(spec, ch, "bp", 2 * LANE_SIZE + 9, seed=13, iters=12, jobs=1)
    two = run_trials(spec, ch, "bp", 2 * LANE_SIZE + 9, seed=13, iters=12, jobs=2)
    assert one == two


def test_decode_failures_counted_not_raised():
    # at eps = 0.6 many erasure frames meet contradicting evidence after a
    # wrong guess; each counts as one frame error with every info bit wrong
    spec = construct_bec(5, 0.5, 0.5)
    k = spec.k_info
    rng = np.random.default_rng(2)
    u, lam = [], []
    for _ in range(200):  # run_lane's draw order
        u.append(spec.assemble(rng.integers(0, 2, k)))
        lam.append(transmit(bec(0.6), encode(spec, u[-1]), rng))
    u, lam = np.array(u), np.array(lam)
    u_hat, failed = decode_frame(spec, "sc", lam)
    assert failed.sum() > 10
    for b in range(len(lam)):
        if failed[b]:
            with pytest.raises(LlrContradiction):
                decode_frame(spec, "sc", lam[b])
    info = spec.info_indices()
    errs = (u_hat[:, info] != u[:, info]).sum(axis=1)
    ok = ~failed
    stats = run_lane(spec, bec(0.6), "sc", 200, np.random.default_rng(2))
    assert stats.frame_errors == int(failed.sum() + (errs[ok] > 0).sum())
    assert stats.bit_errors == int(failed.sum() * k + errs[ok].sum())


@pytest.mark.parametrize("ch", [bec(0.6), bsc(0.08)])
def test_run_trials_jobs_agree_on_batched_lanes(ch):
    spec = construct_bec(5, 0.5, 0.5)
    one = run_trials(spec, ch, "sc", 2 * LANE_SIZE + 9, seed=11, jobs=1)
    two = run_trials(spec, ch, "sc", 2 * LANE_SIZE + 9, seed=11, jobs=2)
    assert one == two


def test_decode_frame_batch_of_row_loop_decoders():
    # general-kernel SC, SCL and BP decode a batch in one call; each marks
    # failures per row (BP never fails a frame: it flags the contradiction
    # instead)
    arikan = CodeSpec(construct_bec(1, 0.5, 0.5).kernel, 1, {0: 0})
    g4 = CodeSpec(kernel_linear(G4), 1, {0: 0})
    lam2 = np.array([[3.0, 3.0], [-np.inf, np.inf], [0.5, -2.0]])
    # the second G4 row is certain of the word u = (1, 0, 0, 0), against the pin u0 = 0
    lam4 = np.array([[3.0, 3.0, 3.0, 3.0], [-np.inf, np.inf, np.inf, np.inf], [0.5, -2.0, 1.0, 0.25]])
    for spec, dec, lam in ((arikan, "scl", lam2), (arikan, "bp", lam2), (g4, "sc", lam4)):
        u_hat, failed = decode_frame(spec, dec, lam, list_size=2, iters=5)
        singles = []
        for row in lam:
            try:
                singles.append(decode_frame(spec, dec, row, list_size=2, iters=5))
            except (LlrContradiction, DegenerateEvidenceError):
                singles.append(None)
        assert failed.tolist() == [s is None for s in singles], dec
        for b, one in enumerate(singles):
            if one is not None:
                assert np.array_equal(u_hat[b], one), (dec, b)
    assert failed.tolist() == [False, True, False]


def test_decode_frame_scl_lane_in_one_call(monkeypatch):
    # a lane is one decode_scl call, or slices of at most SCL_CELLS frames
    # * list size * N for a long code, with the same decisions either way
    spec = construct_bec(4, 0.5, 0.5)
    lam = np.random.default_rng(3).normal(1.0, 1.5, (30, 16))
    calls = []

    def counting(spec, rows, list_size, crc=None):
        calls.append(rows.shape)
        return decode_scl(spec, rows, list_size, crc)

    monkeypatch.setattr(mc, "decode_scl", counting)
    whole = decode_frame(spec, "scl", lam, list_size=8)
    assert calls == [(30, 16, 2)]
    calls.clear()
    monkeypatch.setattr(mc, "SCL_CELLS", 4 * 8 * 16)
    sliced = decode_frame(spec, "scl", lam, list_size=8)
    assert [shape[0] for shape in calls] == [4] * 7 + [2]
    assert np.array_equal(whole[0], sliced[0]) and np.array_equal(whole[1], sliced[1])
    for bad in (lam[0], lam):  # the slice size never divides by a bad list size
        with pytest.raises(ValueError, match="list_size"):
            decode_frame(spec, "scl", bad, list_size=0)


def test_decode_frame_general_sc_in_slices(monkeypatch):
    # a general-kernel SC lane is sliced at SC_CELLS frames * N * q**ell,
    # with the same decisions and failures as one call
    spec = G4_CODE
    lam = np.random.default_rng(4).normal(1.0, 1.5, (30, spec.n))
    # row 3 is certain of the input word of all ones, against the pins
    lam[3] = np.where(encode_unchecked(spec.kernel, np.ones(spec.n, dtype=np.int64)) == 1, -np.inf, np.inf)
    calls = []

    def counting(spec, rows, **kw):
        calls.append(rows.shape)
        return decode_sc_general(spec, rows, **kw)

    monkeypatch.setattr(mc, "decode_sc_general", counting)
    whole = decode_frame(spec, "sc", lam)
    assert calls == [(30, spec.n, 2)]
    calls.clear()
    monkeypatch.setattr(mc, "SC_CELLS", 4 * spec.n * 16)
    sliced = decode_frame(spec, "sc", lam)
    assert [shape[0] for shape in calls] == [4] * 7 + [2]
    assert np.array_equal(whole[0], sliced[0]) and np.array_equal(whole[1], sliced[1])
    assert whole[1].tolist() == [b == 3 for b in range(30)]


def test_frames_per_call_bounds_memory():
    # the largest arrays of one call hold at most about SC_CELLS or
    # SCL_CELLS entries, and a call takes at least one frame
    g4_1024 = CodeSpec(kernel_linear(G4), 5, {})
    assert frames_per_call(g4_1024, "sc") == mc.SC_CELLS // (1024 * 16)
    assert frames_per_call(G4_CODE, "sc") >= LANE_SIZE  # N = 64: a lane in one call
    wide = CodeSpec(kernel_linear(np.eye(16, dtype=np.int64)), 1, {})  # q**ell = 2**16
    assert frames_per_call(wide, "sc") == 1
    arikan = construct_bec(7, 0.5, 0.5)
    assert frames_per_call(arikan, "scl", 8) == mc.SCL_CELLS // (8 * 128)
    assert frames_per_call(arikan, "scl", 0) == mc.SCL_CELLS // 128  # left to decode_scl


def test_run_trials_deterministic_across_jobs():
    spec = construct_bec(4, 0.5, 0.5)
    a = run_trials(spec, bsc(0.06), "sc", 700, seed=42, jobs=1)
    b = run_trials(spec, bsc(0.06), "sc", 700, seed=42, jobs=3)
    assert a == b
    c = run_trials(spec, bsc(0.06), "sc", 700, seed=43, jobs=1)
    assert c != a  # different seed shifts the counts with high probability


def test_run_trials_lane_split_invariant():
    # the per-lane generators depend only on (seed, lane index), so totals
    # are identical however the pool executes them
    spec = construct_bec(3, 0.4, 0.5)
    one = run_trials(spec, bec(0.4), "sc", LANE_SIZE + 100, seed=7)
    again = run_trials(spec, bec(0.4), "sc", LANE_SIZE + 100, seed=7, jobs=2)
    assert one == again


def test_run_trials_validation():
    spec = construct_bec(2, 0.5, 0.5)
    with pytest.raises(ValueError):
        run_trials(spec, bec(0.1), "sc", 0, seed=0)


def test_rate_zero_spec_counts_no_bit_errors():
    spec = CodeSpec(kernel=construct_bec(2, 0.5, 0.5).kernel, m=2, frozen={i: 0 for i in range(4)})
    stats = run_lane(spec, bec(0.9), "sc", 25, np.random.default_rng(3))
    assert stats.info_bits == 0
    assert stats.bit_errors == 0
    assert stats.ber == 0.0


def test_csv_row_format():
    spec = construct_bec(3, 0.5, 0.5)
    stats = TrialStats(1000, 25, 10, spec.k_info)
    row = csv_row("scl", bsc(0.08), spec, stats, seed=5, list_size=8)
    cols = row.split(",")
    assert len(cols) == len(CSV_HEADER.split(","))
    assert cols[0] == "scl"
    assert cols[1] == "bsc"
    assert cols[2] == "0.08"
    assert cols[3] == "8"
    assert cols[4] == "0.5"
    assert cols[5] == "8"
    assert cols[6] == "0"
    assert cols[7] == "1000"
    assert cols[8] == "0.00625"
    assert cols[9] == "0.01"
    assert cols[10] == "5"


def test_csv_row_precision():
    spec = construct_bec(2, 0.5, 0.75)
    stats = TrialStats(3, 1, 1, spec.k_info)
    row = csv_row("sc", bec(1 / 3), spec, stats, seed=0)
    cols = row.split(",")
    assert cols[2] == "0.333333"  # %g keeps six significant digits
    assert cols[8] == "0.11111111"  # ber printed at 8 significant digits


def test_scl_lane_uses_list_size():
    spec = construct_bec(3, 0.5, 0.5)
    rng = np.random.default_rng(11)
    s1 = run_lane(spec, bsc(0.09), "scl", 60, rng, list_size=1)
    rng = np.random.default_rng(11)
    s8 = run_lane(spec, bsc(0.09), "scl", 60, rng, list_size=8)
    # same noise, larger list: never more frame errors
    assert s8.frame_errors <= s1.frame_errors


def test_decode_frame_dispatch(monkeypatch):
    rng = np.random.default_rng(8)
    spec = construct_bec(3, 0.5, 0.5)
    g4 = CodeSpec(kernel_linear(G4), 1, {0: 0})
    q4 = CodeSpec(kernel_linear([[1, 0], [1, 1]], q=4), 2, {0: 0})
    llr = rng.normal(0, 2, 8)
    llr4 = np.hstack([np.zeros((4, 1)), rng.normal(0, 2, (4, 3))])
    # min_sum only where the decoder reads it: bp and SC on (u+v, v)
    cases = [
        (spec, "sc", llr, True, decode_sc_arikan(spec, llr, min_sum=True).u_hat),
        (spec, "bp", llr, True, bp_decode(spec, llr, max_iters=5, min_sum=True).u_hat),
        (spec, "scl", llr, False, decode_scl(spec, likelihood_rows_binary(llr), 2).u_hat),
        (g4, "sc", llr[:4], False, decode_sc_general(g4, likelihood_rows_binary(llr[:4])).u_hat),
        (q4, "sc", llr4, False, decode_sc_general(q4, likelihood_rows(llr4)).u_hat),
    ]
    for sp, dec, ev, min_sum, want in cases:
        got = decode_frame(sp, dec, ev, list_size=2, iters=5, min_sum=min_sum)
        assert np.array_equal(got, want), dec
        if not min_sum:
            # it would be ignored, so it is refused
            with pytest.raises(ValueError, match="min_sum"):
                decode_frame(sp, dec, ev, list_size=2, iters=5, min_sum=True)
    with pytest.raises(ValueError):
        decode_frame(spec, "viterbi", llr)

    # the (u+v, v) decoders read LLRs directly and never build likelihood rows
    def no_rows(_):
        raise AssertionError("likelihood rows built")

    monkeypatch.setattr(mc, "likelihood_rows_binary", no_rows)
    for dec in ("sc", "bp"):
        decode_frame(spec, dec, llr)
    with pytest.raises(AssertionError):
        decode_frame(spec, "scl", llr)


def _qary_frames(kernel, m, ch, count, rng):
    # count all-free q-ary frames as (u, LLR rows against symbol 0): bec
    # erases a symbol or reveals it, bsc replaces it by a uniform other
    # symbol, and biawgn sends symbol t as the level t plus Gaussian noise;
    # each row is -ln W(y|t), which likelihood_rows takes up to a constant
    q = kernel.q
    u = rng.integers(0, q, (count, kernel.ell**m))
    x = encode_unchecked(kernel, u)
    t = np.arange(q)
    if ch.kind == "bec":
        rows = np.where(t == x[..., None], 0.0, np.inf)
        rows[rng.random(x.shape) < ch.param] = 0.0
    elif ch.kind == "bsc":
        p = ch.param
        y = np.where(rng.random(x.shape) < p, (x + rng.integers(1, q, x.shape)) % q, x)
        rows = np.where(t == y[..., None], -np.log1p(-p), -np.log(p / (q - 1)))
    else:
        y = x + rng.normal(0.0, ch.param, x.shape)
        rows = (y[..., None] - t) ** 2 / (2 * ch.param**2)
    return u, rows


@pytest.mark.parametrize("ch", [bec(0.15), bsc(0.02), biawgn(0.45)], ids=["bec", "bsc", "biawgn"])
@pytest.mark.parametrize("kernel,m", [
    (kernel_arikan(), 5), (kernel_linear(G4), 2), (kernel_linear([[1, 0], [1, 1]], q=3), 3),
], ids=["arikan", "g4", "gf3"])
def test_genie_decisions_match_sc_through_first_error(kernel, m, ch):
    # fed the true inputs, SC decides each input as plain SC does for as
    # long as plain SC has decided right, so on an all-free code the genie
    # u_hat equals plain SC's up to and including plain SC's first wrong
    # input; both go through decode_frame
    rng = np.random.default_rng(13)
    spec = CodeSpec(kernel, m, {})
    if kernel.q == 2:
        u, ev = draw_frames(spec, ch, 150, rng)
    else:
        u, ev = _qary_frames(kernel, m, ch, 150, rng)
    plain, failed = decode_frame(spec, "sc", ev)
    genie, genie_failed = decode_frame(spec, "sc", ev, genie_u=u)
    assert not genie_failed.any()  # the true word never contradicts the evidence
    wrong = plain != u
    first = np.where(wrong.any(axis=1), wrong.argmax(axis=1), spec.n - 1)
    prefix = np.arange(spec.n) <= first[:, None]
    keep = ~failed  # a failed frame's plain u_hat is meaningless
    assert np.array_equal(np.where(prefix, genie, 0)[keep], np.where(prefix, plain, 0)[keep])
    # not vacuous: prefixes reach past the first input, and beyond them
    # the two decoders part
    assert (first[keep] > 0).sum() > 10 and (genie != plain)[keep].any()


def test_genie_u_only_with_sc():
    spec = construct_bec(3, 0.5, 0.5)
    llr = np.random.default_rng(4).normal(0, 2, (3, 8))
    u = np.zeros((3, 8), dtype=np.int64)
    decode_frame(spec, "sc", llr, genie_u=u)
    for dec in ("scl", "bp"):
        with pytest.raises(ValueError, match="genie_u"):
            decode_frame(spec, dec, llr, genie_u=u)
        with pytest.raises(ValueError, match="genie_u"):
            decode_frame(spec, dec, llr[0], genie_u=u[0])


def test_decode_frame_glued_uv_kernel(monkeypatch):
    # (u+v, v) with both inputs glued is not the Arikan kernel: SC decides
    # the pair jointly through the general decoder, and BP refuses it
    spec = CodeSpec(kernel_linear([[1, 0], [1, 1]], glue=[(0, 1)]), 1, {})
    assert not spec.kernel.is_arikan
    llr = np.array([0.3, -1.1])
    rec = Recorder()
    res = decode_sc_general(spec, likelihood_rows_binary(llr), hook=rec)
    assert [len(u) for _, u, _ in rec.decisions] == [2]

    def no_arikan(*args, **kwargs):
        raise AssertionError("the (u+v, v) fast path ignores glue groups")

    monkeypatch.setattr(mc, "decode_sc_arikan", no_arikan)
    assert np.array_equal(decode_frame(spec, "sc", llr), res.u_hat)
    with pytest.raises(ValueError):
        decode_frame(spec, "bp", llr)


def _frames_per_frame(spec, ch, count, rng):
    # the reference frame source: assemble, encode and transmit, one frame at a time
    u, lam = [], []
    for _ in range(count):
        u.append(spec.assemble(rng.integers(0, 2, spec.k_info)))
        lam.append(transmit(ch, encode(spec, u[-1]), rng))
    return np.array(u), np.array(lam)


# an odd ell gives odd k on a free spec, as construct --mc-trials chunks use
FRAME_KERNELS = [kernel_arikan(), kernel_linear(G4), kernel_linear([[1, 0, 0], [1, 1, 0], [1, 0, 1]])]
FRAME_CHANNELS = [bec(0.0), bec(0.4), bec(1.0), bsc(0.0), bsc(0.08), biawgn(0.8)]


def _same_state(a, b):
    # bit generator states are nested dicts, holding arrays for MT19937
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def _assert_same_frames(spec, ch, count, got_rng, want_rng):
    # draw_frames against the per-frame reference, and the rng state after
    u, lam = draw_frames(spec, ch, count, got_rng)
    u_ref, lam_ref = _frames_per_frame(spec, ch, count, want_rng)
    assert np.array_equal(u, u_ref)
    assert lam.shape == lam_ref.shape == (count, spec.n)
    assert np.array_equal(lam.view(np.uint64), lam_ref.view(np.uint64))
    assert _same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_draw_frames_matches_per_frame(data):
    kernel = data.draw(st.sampled_from(FRAME_KERNELS))
    m = data.draw(st.integers(1, 3 if kernel.ell == 2 else 2))
    n = kernel.ell**m
    which = data.draw(st.one_of(
        st.just([True] * n), st.just([False] * n),  # k = 0 and k = N
        st.lists(st.booleans(), min_size=n, max_size=n)))
    values = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    spec = CodeSpec(kernel, m, {i: v for i, (f, v) in enumerate(zip(which, values)) if f})
    ch = data.draw(st.sampled_from(FRAME_CHANNELS))
    count = data.draw(st.one_of(st.just(1), st.just(LANE_SIZE), st.integers(1, LANE_SIZE)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    # PCG64 takes the one-draw path for bec and bsc; MT19937 the frame loop
    bit_gen = data.draw(st.sampled_from([np.random.PCG64, np.random.MT19937]))
    got_rng, want_rng = np.random.Generator(bit_gen(seed)), np.random.Generator(bit_gen(seed))
    if data.draw(st.booleans()):
        # enter with half a raw word buffered
        got_rng.integers(0, 2, 1)
        want_rng.integers(0, 2, 1)
    for _ in range(data.draw(st.integers(1, 2))):
        _assert_same_frames(spec, ch, count, got_rng, want_rng)


@pytest.mark.parametrize("ch", FRAME_CHANNELS, ids=str)
@pytest.mark.parametrize("buffered", [False, True])
def test_draw_frames_odd_k_matches_per_frame(ch, buffered):
    # odd k leaves a half word buffered between frames and between calls
    odd = CodeSpec(kernel_arikan(), 3, {0: 0, 1: 1, 4: 0})
    free3 = CodeSpec(FRAME_KERNELS[2], 2, {})
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    if buffered:
        got_rng.integers(0, 2, 1)
        want_rng.integers(0, 2, 1)
    for spec, count in ((odd, 7), (odd, 1), (free3, 6), (free3, 3)):
        assert spec.k_info % 2 == 1
        _assert_same_frames(spec, ch, count, got_rng, want_rng)
