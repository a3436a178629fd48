import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from polarbench import scl
from polarbench.channels import bec, biawgn, bsc, likelihood_rows, likelihood_rows_binary, transmit
from polarbench.construction import construct_bec
from polarbench.kernels import CodeSpec, encode, kernel_arikan, kernel_linear
from polarbench.llrops import LlrContradiction
from polarbench.sc import UnsupportedCodeError, decode_sc_arikan, glue_values
from polarbench.scl import Crc, _base_node, _crc_best, _Ctx, _gather, _prep_outer_list, decode_scl

from conftest import G4, numpy_is_libm, random_llr, run_pytest_under_libm, spec_all_free
from oracle import ml_decode


def _bytes_to_bits(data: bytes) -> list[int]:
    return [(byte >> k) & 1 for byte in data for k in range(7, -1, -1)]


def test_crc8_standard_check_value():
    # CRC-8 with poly 0x07, zero init, no reflection: crc("123456789") = 0xF4
    crc = Crc()
    out = crc.compute(_bytes_to_bits(b"123456789"))
    assert len(out) == 8
    assert int("".join(map(str, out)), 2) == 0xF4


def test_crc_attach_check_roundtrip(rng):
    crc = Crc()
    for _ in range(20):
        data = rng.integers(0, 2, 24)
        payload = crc.attach(data)
        assert len(payload) == 32
        assert crc.check(payload)
        bad = payload.copy()
        flip = rng.integers(0, 32)
        bad[flip] ^= 1
        assert not crc.check(bad)


def test_crc_check_short_payload():
    assert not Crc().check([1, 0, 1])


@pytest.mark.parametrize("field,value", [("width", 0), ("width", -3), ("poly", -1)])
def test_crc_rejects_bad_parameters(field, value):
    with pytest.raises(ValueError, match=field):
        Crc(**{field: value})


def _crc_best_reference(crc, u_list, info):
    # the per-frame, per-candidate loop over Crc.check
    best = np.zeros(len(u_list), dtype=np.int64)
    for b in range(len(u_list)):
        for i in range(u_list.shape[1]):
            if crc.check(u_list[b, i, info]):
                best[b] = i
                break
    return best


@pytest.mark.parametrize("width", range(1, 17))
def test_crc_filter_matches_check_loop(arikan, width):
    # random lists where no row passes, row 0 passes or a later row is the
    # first to pass, on codes with more, as many and fewer information bits
    # than check bits
    rng = np.random.default_rng(width)
    for k_info in (width + 9, width + 1, width, width - 1, 24):
        if k_info < 1 or k_info > 32:
            continue
        crc = Crc(width, int(rng.integers(0, 2**width)))
        spec = CodeSpec(arikan, 5, {int(i): 0 for i in rng.choice(32, 32 - k_info, replace=False)})
        info = spec.info_indices()
        u_list = rng.integers(0, 2, (12, 8, 32))
        firsts = (None, 0, 3, 7, 0, 5)  # first passing row of frames 0-5; the rest stay random
        for b, first in enumerate(firsts if k_info >= width else ()):
            for i in range(8 if first is None else first):
                if crc.check(u_list[b, i, info]):
                    u_list[b, i, info[-1]] ^= 1  # a flipped check bit fails
            if first is not None:
                u_list[b, first, info] = crc.attach(rng.integers(0, 2, k_info - width))
        want = _crc_best_reference(crc, u_list, info)
        assert np.array_equal(_crc_best(spec, crc, u_list), want), (width, k_info)
        if k_info >= width:
            assert want[:6].tolist() == [0, 0, 3, 7, 0, 5]


def test_scl_list1_equals_sc(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=4, frozen={i: 0 for i in range(7)})
    for _ in range(25):
        llr = random_llr(rng, 16)
        ref = decode_sc_arikan(spec, llr)
        res = decode_scl(spec, likelihood_rows_binary(llr), 1)
        assert np.array_equal(res.u_hat, ref.u_hat)
        assert np.array_equal(res.x_hat, ref.x_hat)


def test_scl_saturated_equals_ml(arikan, rng):
    # with list_size >= q^K nothing is ever discarded, so the best survivor
    # is the maximum-likelihood word
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 0, 2: 0, 4: 0})
    for _ in range(25):
        rows = likelihood_rows_binary(random_llr(rng, 8))
        res = decode_scl(spec, rows, 16)
        u_ml, x_ml, _ = ml_decode(spec, rows)
        assert np.array_equal(res.u_hat, u_ml)
        assert np.array_equal(res.x_hat, x_ml)


def test_scl_probs_fixture(arikan):
    # two survivors with likelihood ratio 7:3 split the posterior 0.7 / 0.3
    spec = CodeSpec(kernel=arikan, m=1, frozen={0: 0})
    rows = np.array([[0.7, 0.3], [1.0, 1.0]])
    res = decode_scl(spec, rows, 2)
    assert res.u_list.tolist() == [[0, 0], [0, 1]]
    assert res.probs == pytest.approx([0.7, 0.3], abs=1e-12)
    assert res.best == 0


def test_scl_scores_sorted_and_normalized(arikan, rng):
    spec = spec_all_free(arikan, 3)
    res = decode_scl(spec, likelihood_rows_binary(random_llr(rng, 8)), 8)
    assert len(res.log_scores) == 8
    assert np.all(np.diff(res.log_scores) <= 1e-15)
    assert res.probs.sum() == pytest.approx(1.0)
    assert res.probs[0] == res.probs.max()
    # every listed word re-encodes consistently
    for u, x in zip(res.u_list, res.x_list):
        assert np.array_equal(encode(spec, u), x)


def test_scl_list_grows_with_free_decisions(arikan, rng):
    # occupancy doubles per free binary decision until it hits the cap
    spec = spec_all_free(arikan, 3)
    res = decode_scl(spec, likelihood_rows_binary(random_llr(rng, 8)), 4)
    assert res.u_list.shape == (4, 8)
    res_small = decode_scl(spec, likelihood_rows_binary(random_llr(rng, 8)), 3)
    assert res_small.u_list.shape == (3, 8)


def test_scl_ops_counter_monotone(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=5, frozen={i: 0 for i in range(16)})
    llr = random_llr(rng, 32)
    ops = [decode_scl(spec, likelihood_rows_binary(llr), m).ops for m in (1, 4, 8)]
    assert ops[0] > 0
    assert ops[0] < ops[1] < ops[2]


def test_scl_crc_filter_picks_first_passing(arikan):
    crc = Crc(width=2, poly=0x3)
    # N=4 all free, payload = 2 data bits + 2 crc bits
    spec = spec_all_free(arikan, 2)
    data = [1, 0]
    u = crc.attach(data)
    x = encode(spec, u)
    llr = np.where(x == 0, 4.0, -4.0).astype(float)
    res = decode_scl(spec, likelihood_rows_binary(llr), 4, crc=crc)
    assert crc.check(res.u_hat)
    assert np.array_equal(res.u_hat, u)


def test_scl_crc_fallback_row_zero(arikan, rng):
    # a CRC no survivor satisfies: best falls back to the top-scoring row
    crc = Crc(width=8, poly=0x07)
    spec = spec_all_free(arikan, 1)  # K=2 < crc width, check always fails
    res = decode_scl(spec, likelihood_rows_binary(random_llr(rng, 2)), 2, crc=crc)
    assert res.best == 0


def test_scl_crc_filter_skips_failing_rows(arikan):
    # frozen fixture: the three best-scoring survivors all fail the CRC,
    # so filtering walks down to row 3
    crc = Crc(width=2, poly=0x3)
    spec = spec_all_free(arikan, 2)
    llr = np.array(
        [0.18859533164008996, -0.19815729493695283, 0.9606339756649231, 0.15735017572955956]
    )
    res = decode_scl(spec, likelihood_rows_binary(llr), 4, crc=crc)
    assert res.u_list.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0]]
    assert not crc.check(res.u_list[0])
    assert res.best == 3
    assert crc.check(res.u_hat)


def test_scl_end_to_end_crc_recovery(arikan):
    # CRC-aided list decoding over a noisy channel: decoded payload passes
    # the check in the overwhelming majority of frames
    crc = Crc()
    spec = CodeSpec(kernel=arikan, m=5, frozen={i: 0 for i in range(16)})
    info = spec.info_indices()
    rng = np.random.default_rng(99)
    ch = bsc(0.02)
    hits = 0
    for _ in range(30):
        payload = crc.attach(rng.integers(0, 2, 8))
        u = spec.assemble(payload)
        x = encode(spec, u)
        llr = transmit(ch, x, rng)
        res = decode_scl(spec, likelihood_rows_binary(llr), 8, crc=crc)
        if np.array_equal(res.u_hat[info], payload):
            hits += 1
    assert hits >= 27


def test_scl_gf4_saturated_equals_ml(rng):
    k = kernel_linear([[1, 0], [1, 1]], q=4)
    spec = CodeSpec(kernel=k, m=2, frozen={0: 0, 1: 0})
    for _ in range(10):
        rows = rng.random((4, 4)) + 0.02
        res = decode_scl(spec, rows, 16)
        u_ml, _, _ = ml_decode(spec, rows)
        assert np.array_equal(res.u_hat, u_ml)


def test_scl_glue_saturated_equals_ml(rng):
    k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    spec = CodeSpec(kernel=k, m=1, frozen={0: 0})
    for _ in range(10):
        rows = likelihood_rows_binary(random_llr(rng, 4))
        res = decode_scl(spec, rows, 8)
        u_ml, _, _ = ml_decode(spec, rows)
        assert np.array_equal(res.u_hat, u_ml)


def test_scl_validation(arikan):
    spec = spec_all_free(arikan, 2)
    with pytest.raises(ValueError):
        decode_scl(spec, np.ones((4, 2)), 0)
    with pytest.raises(ValueError):
        decode_scl(spec, np.ones((3, 2)), 2)
    glue_k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    with pytest.raises(UnsupportedCodeError):
        decode_scl(CodeSpec(kernel=glue_k, m=2, frozen={}), np.ones((16, 2)), 2)
    with pytest.raises(ValueError):
        decode_scl(
            CodeSpec(kernel=kernel_linear([[1, 0], [1, 1]], q=4), m=1, frozen={}),
            np.ones((2, 4)),
            2,
            crc=Crc(),
        )


def test_scl_contradiction(arikan):
    spec = spec_all_free(arikan, 1)
    with pytest.raises(LlrContradiction):
        decode_scl(spec, np.array([[0.0, 0.0], [1.0, 1.0]]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_scl_rejects_non_finite_rows(arikan, bad):
    spec = spec_all_free(arikan, 3)
    rows = np.ones((8, 2))
    rows[5, 0] = bad
    with pytest.raises(ValueError, match="position 5"):
        decode_scl(spec, rows, 4)


@pytest.mark.parametrize("G,q", [(G4, 2), ([[1, 0, 0], [1, 1, 0], [1, 2, 1]], 3)])
def test_scl_prep_columns_independent(G, q):
    # each kernel instance's evidence is what a call on that instance alone
    # gives, whichever other instances share its decided prefix
    k = kernel_linear(G, q=q)
    rng = np.random.default_rng(q + 10)
    ell, blk = k.ell, 20
    pi = np.exp(rng.normal(0.0, 2.0, (q, 1, 3, blk * ell)))
    ctx = _Ctx(kernel=k, m_list=4, groups=[], failed=np.zeros(1, dtype=bool))
    for src in (np.array([[1]]), np.array([[0, 2, 2]])):
        xcols = rng.integers(0, q, (1, src.shape[1], blk, ell))
        for r in range(ell):
            got = _prep_outer_list(ctx, pi, src, xcols[..., :r], r)
            for b in range(blk):
                alone = _prep_outer_list(ctx, pi[..., b * ell : (b + 1) * ell], src,
                                         xcols[:, :, b : b + 1, :r], r)
                assert np.array_equal(got[..., b], alone[..., 0]), (src.shape[1], r, b)


def test_scl_prep_uv_fast_path_matches_general_branch():
    # the (u+v, v) branch of _prep_outer_list against the general branch on
    # the same kernel with is_arikan cleared: same evidence, same failed
    # marks; ops are counted differently by design and are not compared
    fast = kernel_arikan()
    general = copy.copy(fast)
    general.is_arikan = False
    rng = np.random.default_rng(29)
    for case in range(400):
        nb, n_in, blk = rng.integers(1, 4, 3)
        pi = rng.random((2, nb, n_in, 2 * blk))
        pi[rng.random(pi.shape) < rng.choice([0.0, 0.1, 0.4])] = 0.0
        pi[rng.random(pi.shape) < rng.choice([0.0, 0.5])] *= 1e-300  # products underflow
        src = None if case % 2 else rng.integers(0, n_in, (nb, rng.integers(1, 5)))
        rho = n_in if src is None else src.shape[1]
        xcols = rng.integers(0, 2, (nb, rho, blk, 1))
        for r in (0, 1):
            got = []
            for k in (fast, general):
                ctx = _Ctx(kernel=k, m_list=4, groups=[], failed=np.zeros(nb, dtype=bool))
                got.append((_prep_outer_list(ctx, pi, src, xcols[..., :r], r), ctx.failed))
            (p_fast, failed_fast), (p_general, failed_general) = got
            assert np.array_equal(p_fast, p_general), (case, r)
            assert np.array_equal(failed_fast, failed_general), (case, r)


def test_scl_base_node_uv_fast_path_matches_general_branch():
    # the (u+v, v) closed form of _base_node against conditioned_scores on
    # the same kernel with is_arikan cleared, for both glue groups free, for
    # group 1 alone after a pinned group 0 (src stays None there) and for
    # group 0 alone: same survivors, inputs, codewords, marks and ops
    fast = kernel_arikan()
    general = copy.copy(fast)
    general.is_arikan = False
    rng = np.random.default_rng(31)
    pins = [{}, {0: 0}, {0: 1}, {1: 0}, {1: 1}]
    for case in range(400):
        nb, rho = rng.integers(1, 4), rng.integers(1, 9)
        frozen = pins[case % len(pins)]
        mask = np.array([0 in frozen, 1 in frozen])
        vals = np.array([frozen.get(0, 0), frozen.get(1, 0)])
        pi = rng.random((2, nb, rho, 2))
        pi[rng.random(pi.shape) < rng.choice([0.0, 0.1, 0.4])] = 0.0
        pi[rng.random(pi.shape) < rng.choice([0.0, 0.5])] *= 1e-300  # products underflow
        m_list = int(rng.integers(1, 9))
        got = []
        for k in (fast, general):
            ctx = _Ctx(kernel=k, m_list=m_list, groups=glue_values(k, mask, vals),
                       failed=np.zeros(nb, dtype=bool))
            src, u_blk, x, rho_out = _base_node(ctx, pi, 0, int(rho))
            got.append((None if src is None else src.tolist(), u_blk.tolist(), x.tolist(), rho_out,
                        ctx.failed.tolist(), ctx.ops, ctx.reason))
        assert got[0] == got[1], case


def _gather_reference(a, sel, axis=1):
    # the broadcast fancy index on the frame and candidate axes
    if sel is None:
        return a
    frames = np.arange(len(sel))[:, None]
    return a[frames, sel] if axis == 1 else a[:, frames, sel]


def test_scl_gather_matches_fancy_index():
    # byte for byte on both candidate axes, over contiguous, transposed and
    # broadcast inputs (a rate-0 node returns broadcast views), one frame
    # and several, the list growing, staying and shrinking
    rng = np.random.default_rng(37)
    for nb in (1, 2, 5):
        for n_in, rho in ((1, 1), (1, 2), (2, 4), (4, 4), (8, 3), (8, 1)):
            sel = rng.integers(0, n_in, (nb, rho))
            base = rng.random((nb, n_in, 6))
            cands1 = [base, np.ascontiguousarray(base.transpose(2, 1, 0)).transpose(2, 1, 0),
                      np.broadcast_to(rng.integers(0, 3, 6), (nb, n_in, 6)),
                      rng.integers(0, 2, (nb, n_in, 3, 2))]
            cands2 = [rng.random((2, nb, n_in, 4)), rng.random((4, n_in, nb, 2)).transpose(3, 2, 1, 0),
                      np.broadcast_to(rng.random(4), (3, nb, n_in, 4))]
            for axis, cands in ((1, cands1), (2, cands2)):
                for a in cands:
                    got, want = _gather(a, sel, axis), _gather_reference(a, sel, axis)
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert _gather(base, None) is base


def test_scl_column_dying_in_an_inner_prep_is_marked(monkeypatch, rng):
    # evidence whose root preps keep every column alive but where a width-4
    # node's prep (2 columns) finds a column every candidate rules out:
    # that frame alone is marked, with the prep's reason, and its single
    # call raises with the same message
    spec = CodeSpec(kernel_arikan(), 3, {5: 0, 7: 0})
    bad = 2.0 ** -np.array([[300, 300], [0, 0], [300, 300], [300, 0],
                            [0, 600], [0, 1000], [0, 600], [1000, 300]], dtype=float)
    marks = []

    def recorded(ctx, p, fn=scl._normalize_columns):
        before = ctx.failed.copy()
        out = fn(ctx, p)
        marks.append((p.shape[3], (ctx.failed & ~before).tolist()))
        return out

    monkeypatch.setattr(scl, "_normalize_columns", recorded)
    with pytest.raises(LlrContradiction, match="^every list path is impossible at some position$"):
        decode_scl(spec, bad, 2)
    assert [w for w, new in marks if any(new)] == [2]
    clean = likelihood_rows_binary(rng.normal(0.0, 2.0, (2, 8)))
    rows = np.stack([clean[0], bad, clean[1]])
    marks.clear()
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        res = decode_scl(spec, rows, 2)
    assert res.failed.tolist() == [False, True, False]
    assert [new for w, new in marks if any(new)] == [[False, True, False]]
    for i in (0, 2):
        one = decode_scl(spec, rows[i], 2)
        for field in ("u_list", "x_list", "log_scores", "probs"):
            assert np.array_equal(getattr(res, field)[i], getattr(one, field)), (field, i)


# batch contract --------------------------------------------------------------

# sha256 prefixes over 200 frames of (u_list, log_scores, ops) bytes,
# recorded frame by frame before decode_scl took a frame axis, for numpy's
# AVX-512 exp and log loops; SCL_PINS_LIBM holds the case whose log_scores
# round differently under libm's, recorded with conftest.LIBM_DISPATCH
# (conftest.numpy_is_libm picks)
SCL_PINS = [
    ("bsc", 0.08, 7, 8, "78f117962e46c269"),
    ("bec", 0.4, 6, 8, "1797da8d4a76cce3"),
    ("biawgn", 0.8, 7, 4, "7eb8a1626143f72a"),
]
SCL_PINS_LIBM = {("biawgn", 0.8, 7, 4): "7c9db9ce7a1ddd3d"}


@pytest.mark.parametrize("kind,param,m,list_size,want", SCL_PINS)
def test_scl_batch_pinned_to_frame_by_frame_decodes(kind, param, m, list_size, want):
    ch = {"bsc": bsc, "bec": bec, "biawgn": biawgn}[kind](param)
    spec = construct_bec(m, param if kind == "bec" else 0.5, 0.5)
    rng = np.random.default_rng([m, list_size])
    lam = np.array([
        transmit(ch, encode(spec, spec.assemble(rng.integers(0, 2, spec.k_info))), rng)
        for _ in range(200)
    ])
    res = decode_scl(spec, likelihood_rows_binary(lam), list_size)
    h = hashlib.sha256()
    for b in range(len(lam)):
        if res.failed[b]:
            h.update(b"failed")
            continue
        h.update(res.u_list[b].tobytes())
        h.update(res.log_scores[b].tobytes())
        h.update(str(res.ops).encode())
    if numpy_is_libm():
        want = SCL_PINS_LIBM.get((kind, param, m, list_size), want)
    assert h.hexdigest()[:16] == want


@pytest.mark.skipif(numpy_is_libm(), reason="numpy already calls libm here: the pins ran on that column")
def test_scl_batch_pins_hold_under_libm_dispatch():
    # the case with a libm digest once more in a child process whose numpy
    # runs exp, log1p and log through libm, so that this host checks both
    # columns
    ids = [f"tests/test_scl.py::test_scl_batch_pinned_to_frame_by_frame_decodes[{kind}-{param}-{m}-{size}-{want}]"
           for kind, param, m, size, want in SCL_PINS if (kind, param, m, size) in SCL_PINS_LIBM]
    done = run_pytest_under_libm(*ids)
    assert done.returncode == 0, done.stdout[-2000:]
    assert f"{len(SCL_PINS_LIBM)} passed" in done.stdout


def _pin_rows(kind, param, spec, crc, rng, count):
    # count frames of channel rows for random payloads, which carry the CRC
    # if there is one; "mixed" cycles Gaussian rows, +-inf-laden LLRs,
    # zero-laden rows and rows near underflow
    q, n = spec.kernel.q, spec.n
    if kind in ("bsc", "bec", "biawgn"):
        ch = {"bsc": bsc, "bec": bec, "biawgn": biawgn}[kind](param)
        data = rng.integers(0, q, (count, spec.k_info - (crc.width if crc else 0)))
        payload = np.array([crc.attach(d) for d in data]) if crc else data
        x = encode(spec, spec.assemble(payload))
        return likelihood_rows_binary(np.array([transmit(ch, frame, rng) for frame in x]))
    rows = np.exp(rng.normal(0.0, 2.0, (count, n, q)))
    for f in range(count):
        if f % 4 == 1:
            llr = rng.choice([np.inf, -np.inf, 0.0, 1.5, -0.25], (n, q))
            llr[:, 0] = 0.0
            rows[f] = likelihood_rows(llr)
        elif f % 4 == 2:
            rows[f][rng.random((n, q)) < 0.3] = 0.0
        elif f % 4 == 3:
            rows[f] **= 40
            rows[f][rng.random((n, q)) < 0.1] = 1e-300
    return rows


# sha256 prefixes over every SclResult field (bytes, dtype and shape), ops
# and failed included, of one batch call and of single calls on its first
# frames (or their failure messages), recorded before decode_scl's
# gathers, preps and CRC filter went to fewer numpy calls. The rows and
# log_scores go through np.exp and np.log, so each case holds one digest
# per dispatch of those ufuncs: numpy's AVX-512 loops, then libm's
# (conftest.numpy_is_libm picks); a case that moves in neither repeats it.
SCL_FIELD_PINS = [
    ("arikan", 7, {}, "bsc", 0.08, 8, None, 24, ("8570521c13f36aed", "897141580bfcf400")),
    ("arikan", 7, {}, "bsc", 0.06, 8, (8, 0x07), 24, ("05af31580684344a", "edf8812175340bd1")),
    ("arikan", 6, {}, "bec", 0.4, 4, None, 24, ("338baec0df692ea1",) * 2),
    ("arikan", 5, {}, "biawgn", 0.8, 2, (3, 0x5), 24, ("be8bbe40e11322ac", "caf9bf8d0434525f")),
    ("arikan", 4, {}, "bsc", 0.1, 1, None, 24, ("67dc4b79d907efa7",) * 2),
    ("arikan", 3, {0: 1, 1: 0, 4: 1}, "mixed", None, 8, (2, 0x3), 16, ("8d1924c35415734c", "0f205aeca5cdd389")),
    ("arikan", 2, {0: 0}, "mixed", None, 4, None, 16, ("340123ebd288763e",) * 2),
    ("arikan", 6, {i: 0 for i in range(24)}, "mixed", None, 8, None, 16, ("bbf4bc6d39da6366", "cb69e504e684c1ad")),
    ("g4", 2, {0: 0, 1: 1, 2: 0, 4: 0, 8: 1}, "mixed", None, 4, None, 12, ("8e451879a1a0f1a0", "e2dc62bcc4ffc701")),
    ("gf3", 2, {0: 2, 1: 0, 3: 1}, "mixed", None, 4, None, 12, ("a50ac5d1142f0ff8", "39b282b85a60690c")),
]


@pytest.mark.parametrize("name,m,frozen,kind,param,list_size,crc,count,want", SCL_FIELD_PINS)
def test_scl_every_field_pinned(name, m, frozen, kind, param, list_size, crc, count, want):
    kernel = {"arikan": kernel_arikan(), "g4": kernel_linear(G4),
              "gf3": kernel_linear([[1, 0, 0], [1, 1, 0], [1, 2, 1]], q=3)}[name]
    spec = construct_bec(m, 0.5, 0.5) if kind in ("bsc", "bec", "biawgn") else CodeSpec(kernel, m, frozen)
    crc = None if crc is None else Crc(*crc)
    rows = _pin_rows(kind, param, spec, crc, np.random.default_rng([m, list_size, count]), count)
    h = hashlib.sha256()
    h.update(repr(_scl_fields(decode_scl(spec, rows, list_size, crc=crc))).encode())
    for frame in rows[:6]:
        try:
            h.update(repr(_scl_fields(decode_scl(spec, frame, list_size, crc=crc))).encode())
        except LlrContradiction as e:
            h.update(str(e).encode())
    assert h.hexdigest()[:16] == want[numpy_is_libm()]


SCL_KERNELS = {
    "uv": (kernel_arikan(), 5),
    "g4": (kernel_linear(G4), 2),
    "gf3": (kernel_linear([[1, 0, 0], [1, 1, 0], [1, 2, 1]], q=3), 2),
    "gf4": (kernel_linear([[1, 0], [1, 1]], q=4), 3),
    "glued": (kernel_linear(G4, glue=[(0, 1), (2,), (3,)]), 1),
}


def _scl_batch_rows(data, n, q, b):
    rows = []
    for _ in range(b):
        kind = data.draw(hs.sampled_from(("gauss", "inf", "zero")))
        rng = np.random.default_rng(data.draw(hs.integers(0, 2**32 - 1)))
        if kind == "gauss":
            rows.append(np.exp(rng.normal(0.0, 2.0, (n, q))))
        elif kind == "inf":
            # LLRs against symbol 0, most of them +-inf: killed symbols and
            # certain ones
            llr = rng.choice([np.inf, -np.inf, np.inf, -np.inf, 0.0, 1.5, -0.25], (n, q))
            llr[:, 0] = 0.0
            rows.append(likelihood_rows(llr))
        else:
            w = rng.random((n, q))
            w[rng.random((n, q)) < 0.6] = 0.0
            rows.append(w)
    return np.array(rows)


@settings(max_examples=80, deadline=None)
@given(hs.sampled_from(sorted(SCL_KERNELS)), hs.data())
def test_scl_batch_rows_match_single_calls(name, data):
    # a frame fails in the batch exactly when its own call raises, and every
    # other frame equals its own call in every field; no failing frame puts
    # a floating-point warning into the batch
    kernel, max_m = SCL_KERNELS[name]
    q = kernel.q
    m = data.draw(hs.integers(1, max_m))
    n = kernel.ell**m
    frozen = data.draw(hs.dictionaries(hs.integers(0, n - 1), hs.integers(0, q - 1)))
    spec = CodeSpec(kernel, m, frozen)
    list_size = data.draw(hs.integers(1, 8))
    crc = data.draw(hs.sampled_from([None, Crc(2, 0x3), Crc(3, 0x5)])) if q == 2 else None
    b = data.draw(hs.integers(1, 6))
    rows = _scl_batch_rows(data, n, q, b)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        res = decode_scl(spec, rows, list_size, crc=crc)
    assert res.failed.shape == res.best.shape == (b,)
    for i in range(b):
        try:
            one = decode_scl(spec, rows[i], list_size, crc=crc)
        except LlrContradiction:
            assert res.failed[i], i
            continue
        assert not res.failed[i], i
        for field in ("u_list", "x_list", "log_scores", "probs"):
            assert np.array_equal(getattr(res, field)[i], getattr(one, field)), (field, i)
        assert (res.best[i], res.ops) == (one.best, one.ops), i
        assert np.array_equal(res.u_hat[i], one.u_hat) and np.array_equal(res.x_hat[i], one.x_hat)
        assert isinstance(one.best, int) and one.failed is None


@pytest.mark.parametrize("m,frozen,list_size,bad,message", [
    (1, {}, 2, [[0.0, 0.0], [1.0, 1.0]], "evidence rules out every symbol"),
    (1, {0: 1}, 2, [-np.inf, -np.inf], "no surviving list path at a selection step"),
    (2, {0: 1, 1: 1, 3: 0}, 1, [-np.inf] * 4, "every list path is impossible"),
    (1, {1: 0}, 1, [-np.inf, -np.inf], "every surviving path has zero likelihood"),
])
def test_scl_batch_marks_each_kind_of_failure(arikan, rng, m, frozen, list_size, bad, message):
    # a frame whose own call raises at the root, at a selection step, while
    # preparing a column or at the final ranking is marked in a batch, and
    # the frames around it keep their single-call results
    spec = CodeSpec(arikan, m, frozen)
    bad = np.array(bad) if np.ndim(bad) == 2 else likelihood_rows_binary(np.array(bad))
    with pytest.raises(LlrContradiction, match=message):
        decode_scl(spec, bad, list_size)
    clean = likelihood_rows_binary(rng.normal(0.0, 2.0, (2, 2**m)))
    rows = np.stack([clean[0], bad, clean[1]])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        res = decode_scl(spec, rows, list_size)
    assert res.failed.tolist() == [False, True, False]
    for i in (0, 2):
        one = decode_scl(spec, rows[i], list_size)
        assert np.array_equal(res.u_list[i], one.u_list)
        assert np.array_equal(res.log_scores[i], one.log_scores)
        assert np.array_equal(res.probs[i], one.probs)


def test_scl_batch_shapes_and_validation(arikan, rng):
    spec = CodeSpec(arikan, 3, {0: 0, 1: 0, 2: 0, 4: 0})
    res = decode_scl(spec, likelihood_rows_binary(rng.normal(0.0, 2.0, (5, 8))), 4)
    assert res.u_list.shape == res.x_list.shape == (5, 4, 8)
    assert res.log_scores.shape == res.probs.shape == (5, 4)
    assert res.u_hat.shape == res.x_hat.shape == (5, 8)
    assert res.failed.tolist() == [False] * 5
    with pytest.raises(ValueError, match=r"\(B, 8, 2\)"):
        decode_scl(spec, np.ones((0, 8, 2)), 4)
    with pytest.raises(ValueError):
        decode_scl(spec, np.ones((2, 2, 8, 2)), 4)
    bad = np.ones((3, 8, 2))
    bad[2, 5, 1] = np.nan
    with pytest.raises(ValueError, match="frame 2, position 5"):
        decode_scl(spec, bad, 4)


# rate-0 nodes ----------------------------------------------------------------


def _count_scl_calls(monkeypatch):
    # how often the decode prepares evidence and calls conditioned_scores
    calls = {"_prep_outer_list": 0, "conditioned_scores": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(scl, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(scl, name, counted)
    return calls


def test_scl_bench_code_skips_every_rate0_node(monkeypatch):
    # the scl-bsc128 code at list 8: the walk prepares 126 times and calls
    # conditioned_scores 64 times; returning its rate-0 nodes whole leaves
    # 94 preps, and the (u+v, v) base nodes score in closed form
    spec = construct_bec(7, 0.5, 0.5)
    rng = np.random.default_rng(1)
    lam = np.array([
        transmit(bsc(0.08), encode(spec, spec.assemble(rng.integers(0, 2, spec.k_info))), rng)
        for _ in range(32)
    ])
    calls = _count_scl_calls(monkeypatch)
    res = decode_scl(spec, likelihood_rows_binary(lam), 8)
    assert calls == {"_prep_outer_list": 94, "conditioned_scores": 0}
    assert not res.failed.any()


@pytest.mark.parametrize("above", [True, False])
def test_scl_rate0_guard_edge(monkeypatch, above):
    # a code frozen everywhere is one rate-0 node whose evidence is the
    # normalized rows. With one entry just above the guard's floor the node
    # is returned whole; just below, it walks its two outer codes, whose
    # evidence passes their own looser guards. Either way the result and
    # ops are those of the full walk.
    spec = CodeSpec(kernel_arikan(), 3, {i: i % 2 for i in range(8)})
    rows = np.ones((8, 2))
    rows[3, 1] = scl._rate0_floor(spec.kernel, 8) * (1 + 2.0**-40 if above else 1 - 2.0**-40)
    calls = _count_scl_calls(monkeypatch)
    res = decode_scl(spec, rows, 8)
    assert calls["_prep_outer_list"] == (0 if above else 2)
    monkeypatch.setattr(scl, "_rate0_floor", lambda kernel, nd: np.inf)
    walk = decode_scl(spec, rows, 8)
    assert calls["_prep_outer_list"] == (0 if above else 2) + 6
    assert _scl_fields(res) == _scl_fields(walk)
    assert res.u_hat.tolist() == [i % 2 for i in range(8)]


def test_scl_rate0_guard_walks_positive_evidence_that_underflows():
    # evidence can be positive and still kill a frame inside a rate-0 walk:
    # the root's second outer code multiplies 2**-1000 by 2**-600 and 1 by
    # 2**-1200, both 0, and the two zeros rule out both values of a column
    # one level down. This node is far below its floor, so it walks and the
    # frame fails as in the full walk; a floor that did not tighten with
    # the node's width (q * 2**-1012 at every width) would skip the node
    # and decode the frame.
    spec = CodeSpec(kernel_arikan(), 3, {i: 0 for i in range(8)})
    rows = np.ones((8, 2))
    rows[4:] = 2.0 ** -np.array([[1000, 0], [600, 0], [0, 600], [0, 600]])
    assert rows.min() > 0 and rows.min() < scl._rate0_floor(spec.kernel, 8)
    for list_size in (1, 8):
        with pytest.raises(LlrContradiction, match="every list path is impossible"):
            decode_scl(spec, rows, list_size)
    assert decode_scl(spec, rows[None], 2).failed.tolist() == [True]


def _scl_fields(res):
    # every field of a result, arrays with their dtype and shape, byte for byte
    arrays = tuple((a.dtype.str, a.shape, a.tobytes())
                   for a in map(np.asarray, (res.u_list, res.x_list, res.log_scores, res.probs, res.best)))
    return arrays, res.ops, None if res.failed is None else res.failed.tobytes()


def _scl_outcomes(spec, rows, list_size):
    # the batch result, then each frame's own result or its failure message
    out = [_scl_fields(decode_scl(spec, rows, list_size))]
    for frame in rows:
        try:
            out.append(_scl_fields(decode_scl(spec, frame, list_size)))
        except LlrContradiction as e:
            out.append(str(e))
    return out


@settings(max_examples=80, deadline=None)
@given(hs.sampled_from(sorted(SCL_KERNELS)), hs.data())
def test_scl_rate0_skip_matches_forced_walk(name, data):
    # codes with whole aligned blocks frozen, to 0 or to drawn values, on
    # Gaussian rows, rows holding zeros and rows scaled toward underflow:
    # returning rate-0 nodes whole changes no field, ops, mark or message
    # against the walk that a guard of +inf forces
    kernel, max_m = SCL_KERNELS[name]
    q, ell = kernel.q, kernel.ell
    m = data.draw(hs.integers(1, max_m))
    n = ell**m
    rng = np.random.default_rng(data.draw(hs.integers(0, 2**32 - 1)))
    pinned = rng.choice(n, rng.integers(0, n // 2 + 1), replace=False)
    frozen = {int(i): int(rng.integers(0, q)) for i in pinned}
    for _ in range(data.draw(hs.integers(1, 3))):
        w = ell ** data.draw(hs.integers(1, m))
        start = w * data.draw(hs.integers(0, n // w - 1))
        vals = rng.integers(0, q, w) if data.draw(hs.booleans()) else np.zeros(w, dtype=np.int64)
        frozen.update(zip(range(start, start + w), vals.tolist()))
    spec = CodeSpec(kernel, m, frozen)
    list_size = data.draw(hs.sampled_from((1, 2, 8)))
    rows = np.exp(rng.normal(0.0, 2.0, (data.draw(hs.integers(1, 3)), n, q)))
    for f, kind in enumerate(data.draw(hs.lists(hs.sampled_from(("gauss", "zero", "under")),
                                                min_size=len(rows), max_size=len(rows)))):
        if kind == "zero":
            rows[f][rng.random((n, q)) < 0.3] = 0.0
        elif kind == "under":
            rows[f] **= 40
            rows[f][rng.random((n, q)) < 0.1] = 1e-300
    skip = _scl_outcomes(spec, rows, list_size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scl, "_rate0_floor", lambda kernel, nd: np.inf)
        walk = _scl_outcomes(spec, rows, list_size)
    assert skip == walk
