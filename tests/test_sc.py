import gc
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarbench.channels import bec, likelihood_rows_binary
from polarbench.construction import construct_bec
from polarbench.kernels import (
    CodeSpec,
    _words,
    encode,
    encode_unchecked,
    kernel_arikan,
    kernel_linear,
)
from polarbench.llrops import LlrContradiction
from polarbench.montecarlo import draw_frames
from polarbench.sc import (
    UnsupportedCodeError,
    _prep_outer,
    decode_sc_arikan,
    decode_sc_general,
    scores_to_llr,
)

from conftest import G4, Recorder, random_llr, spec_all_free
from oracle import marginal_llr_bruteforce


def test_sc_n4_trace_fixture(arikan):
    # frozen fixture: successive decision LLRs for lambda = (1.2, -0.7, 0.4, 2.1),
    # all coordinates free; cross-checked against exhaustive marginals
    spec = spec_all_free(arikan, 2)
    rec = Recorder()
    res = decode_sc_arikan(spec, np.array([1.2, -0.7, 0.4, 2.1]), hook=rec)
    assert list(res.u_hat) == [1, 0, 1, 0]
    assert list(res.x_hat) == [0, 1, 0, 0]
    want = [-0.055766495865, 0.676413479009, -1.474714634122, 4.4]
    assert rec.llrs() == pytest.approx(want, abs=1e-10)


def test_sc_matches_bruteforce_marginals(arikan, rng):
    # each successive-cancellation LLR equals the exact marginal given the
    # decisions made so far
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 0, 4: 1})
    for _ in range(5):
        llr = random_llr(rng, 8)
        rec = Recorder()
        res = decode_sc_arikan(spec, llr, hook=rec)
        rows = likelihood_rows_binary(llr)
        decided = {}
        for i in range(8):
            want = marginal_llr_bruteforce(spec, rows, i, decided)
            assert rec.llrs()[i] == pytest.approx(want[1], abs=1e-9)
            decided[i] = int(res.u_hat[i])
        assert np.array_equal(res.x_hat, encode_unchecked(arikan, res.u_hat))


def test_sc_hook_released_on_return(arikan):
    # the recursion must not keep its hook (an engine with its banks and
    # schedule) alive after returning, not even until a cycle collection
    gc.disable()
    try:
        hook = Recorder()
        ref = weakref.ref(hook)
        decode_sc_arikan(spec_all_free(arikan, 3), np.ones(8), hook=hook)
        del hook
        assert ref() is None
        hook = Recorder()
        ref = weakref.ref(hook)
        spec = spec_all_free(kernel_linear(G4), 2)
        decode_sc_general(spec, np.ones((16, 2)), hook=hook)
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
    assert np.array_equal(res.u_hat, u)
    # corrupt one observation hard: x0 is the sum of every input, so the
    # first decision goes wrong and shows in u_hat, while the genie keeps
    # later stages on track (the last input, repeated in all eight
    # observations, outvotes it) and the walk re-encodes the true word
    llr_bad = llr.copy()
    llr_bad[0] = -llr_bad[0]
    res_bad = decode_sc_arikan(spec, llr_bad, genie_u=u)
    assert res_bad.u_hat[0] != u[0]
    assert res_bad.u_hat[-1] == u[-1]
    assert np.array_equal(res_bad.x_hat, x)


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
    rec = Recorder()
    batch = decode_sc_arikan(spec, lam, min_sum=min_sum, hook=rec)
    batch_genie = decode_sc_arikan(spec, lam, min_sum=min_sum, genie_u=genie)
    assert batch.u_hat.shape == batch.x_hat.shape == rec.llrs().shape == lam.shape
    assert batch.u_hat.dtype == batch.x_hat.dtype == np.int64
    for b in range(len(lam)):
        one_rec = Recorder()
        one = decode_sc_arikan(spec, lam[b], min_sum=min_sum, hook=one_rec)
        assert np.array_equal(batch.u_hat[b], one.u_hat), b
        assert np.array_equal(batch.x_hat[b], one.x_hat), b
        assert np.array_equal(rec.llrs()[b], one_rec.llrs(), equal_nan=True), b
        one_genie = decode_sc_arikan(spec, lam[b], min_sum=min_sum, genie_u=genie[b])
        assert np.array_equal(batch_genie.u_hat[b], one_genie.u_hat), b
        assert np.array_equal(batch_genie.x_hat[b], one_genie.x_hat), b


def _single_or_none(spec, lam, **kw):
    try:
        return decode_sc_arikan(spec, lam, **kw)
    except LlrContradiction:
        return None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_sc_batch_failed_rows_match_single_calls(m, data):
    # a (B, N) call marks exactly the frames whose (N,) call raises, and
    # every other frame equals its single call, genie mode included. An
    # unobserved call (no hook), which walks erasure evidence on trits and
    # without genie skips f under a frozen leaf and looks nodes frozen to 0
    # up in tables (at m = 6, under two walked levels), gives bit for bit
    # what the float walk a recording hook observes gives, batch and single
    # frame
    n = 2**m
    frozen = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1)))
    spec = CodeSpec(kernel_arikan(), m, frozen)
    b = data.draw(st.integers(1, 6))
    erasures = [np.inf, -np.inf, 0.0, -0.0]
    mixed = [np.inf, -np.inf, np.inf, -np.inf, 0.0, -0.0, 1.5, -0.25]
    entries = st.sampled_from(data.draw(st.sampled_from([mixed, erasures])))
    lam = np.reshape(data.draw(st.lists(entries, min_size=b * n, max_size=b * n)), (b, n))
    genie = np.reshape(data.draw(st.lists(st.integers(0, 1), min_size=b * n, max_size=b * n)), (b, n))
    min_sum = data.draw(st.booleans())
    rec = Recorder()
    batch = decode_sc_arikan(spec, lam, min_sum=min_sum, hook=rec)
    batch_genie = decode_sc_arikan(spec, lam, min_sum=min_sum, genie_u=genie)
    observed_genie = decode_sc_arikan(spec, lam, min_sum=min_sum, genie_u=genie, hook=Recorder())
    quiet = decode_sc_arikan(spec, lam, min_sum=min_sum)
    assert batch.failed.shape == batch_genie.failed.shape == quiet.failed.shape == (b,)
    for got, want in ((quiet, batch), (batch_genie, observed_genie)):
        assert np.array_equal(got.u_hat, want.u_hat)
        assert np.array_equal(got.x_hat, want.x_hat)
        assert np.array_equal(got.failed, want.failed)
    for i in range(b):
        one_rec = Recorder()
        one = _single_or_none(spec, lam[i], min_sum=min_sum, hook=one_rec)
        assert batch.failed[i] == (one is None), i
        # a lone frame walks to the end before it raises
        assert len(one_rec.decisions) == n, i
        quiet_one = _single_or_none(spec, lam[i], min_sum=min_sum)
        assert (quiet_one is None) == (one is None), i
        if one is not None:
            assert np.array_equal(batch.u_hat[i], one.u_hat), i
            assert np.array_equal(batch.x_hat[i], one.x_hat), i
            assert np.array_equal(rec.llrs()[i], one_rec.llrs()), i
            assert np.array_equal(quiet_one.u_hat, one.u_hat), i
            assert np.array_equal(quiet_one.x_hat, one.x_hat), i
        one = _single_or_none(spec, lam[i], min_sum=min_sum, genie_u=genie[i], hook=Recorder())
        quiet_one = _single_or_none(spec, lam[i], min_sum=min_sum, genie_u=genie[i])
        assert batch_genie.failed[i] == (one is None) == (quiet_one is None), i
        if one is not None:
            assert np.array_equal(batch_genie.u_hat[i], one.u_hat), i
            assert np.array_equal(batch_genie.x_hat[i], one.x_hat), i
            assert np.array_equal(quiet_one.u_hat, one.u_hat), i
            assert np.array_equal(quiet_one.x_hat, one.x_hat), i


def test_sc_erasure_walk_skips_the_float_rules(monkeypatch):
    # an unobserved walk on evidence of 0 and +-inf never calls the float
    # rules; one finite nonzero entry, a NaN or a hook sends it to them
    import polarbench.sc as sc

    class FloatRule(Exception):
        pass

    def refuse(*args, **kwargs):
        raise FloatRule

    spec = construct_bec(6, 0.4, 0.5)
    u, lam = draw_frames(spec, bec(0.4), 16, np.random.default_rng(5))
    monkeypatch.setattr(sc, "f_plus_vec", refuse)
    monkeypatch.setattr(sc, "f_equal_vec", refuse)
    for min_sum in (False, True):
        assert decode_sc_arikan(spec, lam, min_sum=min_sum).failed.shape == (16,)
        for row in lam:
            _single_or_none(spec, row, min_sum=min_sum)
        assert not decode_sc_arikan(spec, lam, min_sum=min_sum, genie_u=u).failed.any()
        decode_sc_arikan(spec, lam[0], min_sum=min_sum, genie_u=u[0])
    with pytest.raises(FloatRule):
        decode_sc_arikan(spec, lam, hook=Recorder())
    for entry in (1.5, np.nan):
        bad = lam.copy()
        bad[2, 5] = entry
        with pytest.raises(FloatRule):
            decode_sc_arikan(spec, bad)
        with pytest.raises(FloatRule):
            decode_sc_arikan(spec, bad, genie_u=u)
        with pytest.raises(FloatRule):
            decode_sc_arikan(spec, bad[2])


def test_sc_erasure_tables_are_looked_up_by_unobserved_erasure_walks_only(monkeypatch):
    # node tables serve an unobserved, non-genie walk on evidence of 0 and
    # +-inf; a hook, a genie word, 1.5 or a NaN keeps the walk from them.
    # The tables of a code are built once per process and then reused.
    import polarbench.sc as sc

    spec = construct_bec(6, 0.4, 0.5)
    u, lam = draw_frames(spec, bec(0.4), 16, np.random.default_rng(5))
    monkeypatch.setattr(sc, "_TABLES", {})
    want = decode_sc_arikan(spec, lam, hook=Recorder())
    got = decode_sc_arikan(spec, lam)
    built = dict(sc._TABLES)
    mask, vals = spec.frozen_arrays()
    nodes = {tuple(row) for row in mask.reshape(-1, sc.TABLE_WIDTH)}
    assert sum(width == sc.TABLE_WIDTH for width, _ in built) == len(nodes) == 6
    assert not vals.any()
    decode_sc_arikan(spec, lam)
    decode_sc_arikan(spec, lam[3], min_sum=True)
    assert sc._TABLES.keys() == built.keys()
    assert all(sc._TABLES[key] is table for key, table in built.items())
    for field in ("u_hat", "x_hat", "failed"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field

    class Lookup(Exception):
        pass

    class Refusing:
        # a node table whose every read raises
        def take(self, *args, **kwargs):
            raise Lookup

    def refusing_tables(spec, width):
        return dict.fromkeys(range(0, spec.n, width), Refusing())

    monkeypatch.setattr(sc, "_erasure_tables", refusing_tables)
    with pytest.raises(Lookup):
        decode_sc_arikan(spec, lam)
    with pytest.raises(Lookup):
        decode_sc_arikan(spec, lam[0])
    decode_sc_arikan(spec, lam, hook=Recorder())
    decode_sc_arikan(spec, lam, genie_u=u)
    decode_sc_arikan(spec, lam[0], genie_u=u[0])
    for entry in (1.5, np.nan):
        bad = lam.copy()
        bad[2, 5] = entry
        decode_sc_arikan(spec, bad)
        _single_or_none(spec, bad[2])


def test_sc_erasure_table_keys_are_derived_once_per_code(monkeypatch):
    # which nodes are looked up, and in which table, is a property of the
    # code: derived on its first erasure decode, read on every later one,
    # and derived again by an unpickled copy
    import polarbench.sc as sc

    spec = construct_bec(6, 0.4, 0.5)
    _, lam = draw_frames(spec, bec(0.4), 16, np.random.default_rng(6))
    calls, derive = [], sc._erasure_nodes

    def counted(code, key):
        # the table builds walk codes of width 8 and less: count this one
        # and its unpickled copy
        if code.n == spec.n:
            calls.append(key)
        return derive(code, key)

    monkeypatch.setattr(sc, "_erasure_nodes", counted)
    want = decode_sc_arikan(spec, lam)
    for _ in range(3):
        got = decode_sc_arikan(spec, lam)
    assert calls == [("erasure", sc.TABLE_WIDTH)]
    assert np.array_equal(got.u_hat, want.u_hat) and np.array_equal(got.failed, want.failed)
    nodes = spec.cached(("erasure", sc.TABLE_WIDTH), counted)
    assert len(calls) == 1 and nodes == derive(spec, ("erasure", sc.TABLE_WIDTH))
    copy = pickle.loads(pickle.dumps(spec))
    assert np.array_equal(decode_sc_arikan(copy, lam).u_hat, want.u_hat)
    assert len(calls) == 2


def _trit_inputs(width):
    # every erasure input of a node, row i holding base-3 digit j of i as
    # the LLR (-inf, 0, +inf)[digit] of input j
    digits = np.indices((3,) * width).reshape(width, -1)[::-1].T
    return np.array([-np.inf, 0.0, np.inf])[digits]


def test_sc_erasure_tables_match_the_float_walk(arikan):
    # every table a width-8 node frozen to 0 can have, on each of its 3**8
    # inputs, holds what the observed float walk of that node gives
    import polarbench.sc as sc

    width = sc.TABLE_WIDTH
    lam = _trit_inputs(width)
    bits = 1 << np.arange(width)
    for frozen in range(2**width):
        spec = CodeSpec(arikan, 3, {i: 0 for i in range(width) if frozen >> i & 1})
        want = decode_sc_arikan(spec, lam, hook=Recorder())
        table = sc._erasure_table(width, frozen)
        assert np.array_equal(table & 0xFF, want.u_hat @ bits), frozen
        assert np.array_equal(table >> width == 1, want.failed), frozen
        assert np.array_equal(sc._word_rows(width)[1][table], want.x_hat), frozen


@pytest.mark.parametrize("frozen", [{}, {9: 0, 10: 0, 12: 0}, {i: 0 for i in range(16)}, {9: 0, 12: 1}])
def test_sc_erasure_table_node_in_a_walk(arikan, frozen):
    # LLRs 0 on the even inputs of an N = 16 code hand its right width-8
    # node the odd inputs unchanged, so that node sees all 3**8 inputs. A
    # node frozen to 0 is looked up there, one with a frozen 1 is walked;
    # the unobserved walk equals the observed float walk either way, failed
    # rows included
    import polarbench.sc as sc

    spec = CodeSpec(arikan, 4, frozen)
    lam = np.zeros((3**8, 16))
    lam[:, 1::2] = _trit_inputs(8)
    tables = sc._erasure_tables(spec, 8)
    assert (8 in tables) == (1 not in frozen.values())
    want = decode_sc_arikan(spec, lam, hook=Recorder())
    got = decode_sc_arikan(spec, lam)
    for field in ("u_hat", "x_hat", "failed"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    # only frozen inputs make opposite certainties meet
    assert want.failed.any() == bool(frozen)


class _Events:
    """Schedule hook of decode_sc_arikan that keeps a copy of every array
    each f, g and decide event hands it, in order."""

    def __init__(self):
        self.events = []

    def f(self, off, width, inputs, out):
        self.events.append(("f", off, width, *map(np.array, inputs), np.array(out)))

    def g(self, off, width, inputs, out, x0):
        self.events.append(("g", off, width, *map(np.array, inputs), np.array(out), np.array(x0)))

    def decide(self, off, u, llr):
        self.events.append(("decide", off, np.array(u), np.array(llr)))


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_same_walk(got, got_events, want, want_events, row):
    # the fields and every hook array of `got` equal those of batch row
    # `row` of `want` (rows 0..row-1 when row is a slice); a frozen
    # decision, shape (1,), broadcasts over the batch and is compared whole
    def cut(x):
        return x[row] if x.ndim == 2 else x

    assert _same_bits(got.u_hat, want.u_hat[row])
    assert _same_bits(got.x_hat, want.x_hat[row])
    if got.failed is not None:
        assert _same_bits(got.failed, want.failed[row])
    if got_events is None:
        return
    assert len(got_events.events) == len(want_events.events)
    for event, other in zip(got_events.events, want_events.events):
        assert event[:2] == other[:2]
        for x, y in zip(event[2:], other[2:]):
            if isinstance(x, np.ndarray):
                assert _same_bits(x, cut(y)), event[:2]
            else:
                assert x == y, event[:2]


def _finite_edge_llrs(m, rows, rng):
    # finite root LLRs drawn from +-0, the smallest subnormal, 1e-300, the
    # saturation bound 2**(1022 - m) and one ulp beyond it, and Gaussians
    bound = 2.0 ** (1022 - m)
    edge = [0.0, 5e-324, 1e-300, bound, np.nextafter(bound, np.inf)]
    pool = np.concatenate([edge, np.negative(edge), rng.normal(0.0, 2.0, 10)])
    return rng.choice(pool, (rows, 2**m))


@pytest.mark.parametrize("min_sum", [False, True])
@pytest.mark.parametrize("m", range(1, 11))
def test_sc_finite_walk_matches_the_general_float_walk(arikan, m, min_sum):
    # finite evidence takes the finite rules; the same frames next to one
    # frame holding an infinity take the general float rules. Both give the
    # same bits: u_hat, x_hat, failed and every array the hook sees, plain
    # and genie walks, observed and not, batch rows and single frames
    rng = np.random.default_rng(100 + m)
    n = 2**m
    spec = CodeSpec(arikan, m, {i: i % 2 for i in range(0, n, 3)})
    lam = _finite_edge_llrs(m, 3, rng)
    extra = lam[:1].copy()
    extra[0, rng.integers(n)] = rng.choice([np.inf, -np.inf])
    mixed = np.concatenate([lam, extra])
    genie = rng.integers(0, 2, mixed.shape)
    for genie_u in (None, genie):
        for hook in (None, _Events):

            def run(rows, at):
                events = hook and hook()
                genie_at = None if genie_u is None else genie_u[at]
                return decode_sc_arikan(spec, rows, min_sum, genie_at, hook=events), events

            want, want_events = run(mixed, slice(None))
            got, got_events = run(lam, slice(0, 3))
            assert not got.failed.any()
            _assert_same_walk(got, got_events, want, want_events, slice(0, 3))
            for b in range(3):
                _assert_same_walk(*run(lam[b], b), want, want_events, b)


def test_sc_finite_walk_skips_the_probing_rules(monkeypatch):
    # a walk on finite evidence never calls f_plus_vec or f_equal_vec; one
    # NaN or +-inf anywhere in a batch sends the whole call to them and
    # away from the finite rules, and each row still equals its single call
    import polarbench.sc as sc

    calls = {}

    def counted(name):
        rule = getattr(sc, name)

        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return rule(*args, **kwargs)

        return count

    for name in ("f_plus_vec", "f_equal_vec", "f_plus_finite", "f_equal_finite"):
        monkeypatch.setattr(sc, name, counted(name))
    spec = construct_bec(6, 0.4, 0.5)
    lam = np.random.default_rng(6).normal(0.0, 2.0, (8, 64))
    lam[0, :5] = [0.0, -0.0, 5e-324, 1e308, -1e308]  # saturated, still finite
    genie = np.random.default_rng(7).integers(0, 2, lam.shape)
    for min_sum in (False, True):
        for hook in (None, Recorder()):
            decode_sc_arikan(spec, lam, min_sum, hook=hook)
            decode_sc_arikan(spec, lam[1], min_sum, hook=hook)
        decode_sc_arikan(spec, lam, min_sum, genie)
        decode_sc_arikan(spec, lam[1], min_sum, genie[1], hook=Recorder())
    assert calls.keys() == {"f_plus_finite", "f_equal_finite"}
    for entry in (np.nan, np.inf, -np.inf):
        for at in ((0, 0), (7, 63), (3, 17)):
            bad = lam.copy()
            bad[at] = entry
            calls.clear()
            rec = Recorder()
            batch = decode_sc_arikan(spec, bad, hook=rec)
            assert calls.keys() == {"f_plus_vec", "f_equal_vec"}, (entry, at)
            assert not batch.failed.any()
            for b in range(len(bad)):
                one_rec = Recorder()
                one = decode_sc_arikan(spec, bad[b], hook=one_rec)
                assert np.array_equal(batch.u_hat[b], one.u_hat), (entry, at, b)
                assert np.array_equal(batch.x_hat[b], one.x_hat), (entry, at, b)
                assert _same_bits(rec.llrs()[b], one_rec.llrs()), (entry, at, b)
            calls.clear()
            quiet = decode_sc_arikan(spec, bad)
            assert calls.keys() == {"f_plus_vec", "f_equal_vec"}, (entry, at)
            assert np.array_equal(quiet.u_hat, batch.u_hat)


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


def test_failing_lone_frame_is_observed_to_the_end(arikan, k4, rng):
    # a lone frame that contradicts itself is walked to the end, each
    # decision reported to the hook, and raises only then
    spec = _batch_spec(arikan)
    _, lam = _known_codewords(spec, rng, 1)
    lam[0, 7] = -lam[0, 7]
    for min_sum in (False, True):
        rec = Recorder()
        with pytest.raises(LlrContradiction):
            decode_sc_arikan(spec, lam[0], min_sum=min_sum, hook=rec)
        assert [i for i, _, _ in rec.decisions] == list(range(32))
    spec = CodeSpec(k4, 2, {0: 0, 5: 1})
    rows = rng.random((16, 2))
    rows[6] = 0.0
    rec = Recorder()
    with pytest.raises(LlrContradiction):
        decode_sc_general(spec, rows, hook=rec)
    assert [i for i, _, _ in rec.decisions] == list(range(16))


@pytest.mark.parametrize("min_sum", [False, True])
def test_sc_huge_finite_llrs_saturate(arikan, min_sum):
    # finite LLRs near the float64 ceiling decide as large ones of the same
    # signs do, with no overflow (RuntimeWarnings are errors) and no failed
    # frame; the caller's array is left as it is
    rng = np.random.default_rng(8)
    for m in range(1, 13):
        spec = CodeSpec(arikan, m, {i: i % 2 for i in range(0, 2**m, 3)})
        signs = rng.choice([-1.0, 1.0], (20, 2**m))
        huge = 1e308 * signs
        huge[:, -1] = np.inf * signs[:, -1]  # infinities pass unchanged
        got = decode_sc_arikan(spec, huge, min_sum=min_sum)
        assert np.array_equal(huge[:, :-1], 1e308 * signs[:, :-1])
        big = 2.0**60 * signs
        big[:, -1] = huge[:, -1]
        want = decode_sc_arikan(spec, big, min_sum=min_sum)
        assert not got.failed.any() and not want.failed.any(), m
        assert np.array_equal(got.u_hat, want.u_hat), m
        assert np.array_equal(decode_sc_arikan(spec, huge[0], min_sum=min_sum).u_hat, got.u_hat[0])


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
        failed = np.zeros(len(w_blk), dtype=bool)
        got = _prep_outer(k, w_blk, decided[:, :r], r, failed)
        for i in range(len(w_blk)):
            alone = _prep_outer(k, w_blk[i : i + 1], decided[i : i + 1, :r], r, failed[i : i + 1])
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
    ref, gen = Recorder(), Recorder()
    decode_sc_arikan(spec, llr, hook=ref)
    decode_sc_general(spec, likelihood_rows_binary(llr), hook=gen)
    assert len(gen.decisions) == len(ref.decisions) == 4
    for (i, u, vec), (j, v, want) in zip(gen.decisions, ref.decisions):
        assert i == j and len(u) == 1 and u == v
        assert vec[1] == pytest.approx(want[0], abs=1e-9)


def test_general_binary_4x4_matches_bruteforce(k4, rng):
    # exact marginals are exponential in N; one word and the first half of
    # the decisions already exercise every prep depth
    spec = CodeSpec(kernel=k4, m=2, frozen={0: 0, 1: 0, 3: 1})
    llr = random_llr(rng, 16)
    rows = likelihood_rows_binary(llr)
    rec = Recorder()
    res = decode_sc_general(spec, rows, hook=rec)
    decided = {}
    for idx, u, vec in rec.decisions[:8]:
        assert len(u) == 1
        want = marginal_llr_bruteforce(spec, rows, idx, decided)
        assert vec[1] == pytest.approx(want[1], abs=1e-8)
        decided[idx] = int(res.u_hat[idx])


def test_general_gf4_matches_bruteforce(rng):
    k = kernel_linear([[1, 0], [1, 1]], q=4)
    spec = CodeSpec(kernel=k, m=2, frozen={0: 0})
    for _ in range(3):
        rows = rng.random((4, 4)) + 0.01
        rec = Recorder()
        res = decode_sc_general(spec, rows, hook=rec)
        decided = {}
        for idx, _, vec in rec.decisions:
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
    rec = Recorder()
    res = decode_sc_general(spec, rows, hook=rec)
    widths = [len(u) for _, u, _ in rec.decisions]
    assert widths == [2, 1, 1]
    # the joint decision maximizes the exact group marginal
    totals = np.zeros(4)
    for idx in range(16):
        x = k.map(_words(2, 4)[idx])
        totals[idx // 4] += np.prod([rows[j, x[j]] for j in range(4)])
    want = scores_to_llr(totals)
    got_vec = rec.decisions[0][2]
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
    assert np.array_equal(res.u_hat, u)
    assert np.array_equal(res.x_hat, x)


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
    rec = Recorder()
    with np.errstate(over="raise"):
        res = decode_sc_general(spec, rows, hook=rec)
    (i, u, llr), (j, v, llr2) = rec.decisions
    assert (i, len(u)) == (0, 1)
    # scores of u0 = 0, 1, 2: 1e600 + 1, 1e300 + 1, 2e300
    assert np.all(np.isfinite(llr))
    assert llr == pytest.approx([0.0, 300 * np.log(10), 300 * np.log(10) - np.log(2)])
    # given u0 = 0, the scores of u1 = 0, 1, 2 are 1e600, 0 and 1: the
    # scaled rows make the last a product of two entries near 1e-300, which
    # underflows, yet value 2 is possible and only value 1 is not
    assert (j, v.tolist()) == (1, [0])
    assert llr2[:2].tolist() == [0.0, np.inf]
    assert llr2[2] == pytest.approx(600 * np.log(10))
    assert res.u_hat.tolist() == [0, 0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: sc._prep_outer multiplies in the linear domain")
def test_general_outer_stage_totals_beyond_float_range():
    # input 2's totals lie beyond the float range: the log-domain values
    # (brute force over all 81 words) are [0, -1104.55, -736.13], while the
    # linear-domain outer stages give [0, -inf, -inf]
    spec = spec_all_free(kernel_linear([[1, 0], [1, 1]], q=3), 2)
    rows = np.array([[1e-160, 1, 1e160], [1e-160, 1e-160, 1e160], [1e160, 1e160, 1e-160], [1, 1e160, 1]])
    rec = Recorder()
    decode_sc_general(spec, rows, hook=rec)
    i, _, llr = rec.decisions[2]
    assert i == 2
    assert llr == pytest.approx([0.0, -1104.55, -736.13], abs=0.01)


def test_general_row_scaling_is_exact(k4, rng):
    # scaling rows by powers of two changes no decision LLR bit
    spec = CodeSpec(k4, 2, {0: 0, 5: 1})
    rows = np.exp(rng.normal(0.0, 2.0, (16, 2)))
    want, got = Recorder(), Recorder()
    decode_sc_general(spec, rows, hook=want)
    scaled = np.ldexp(rows, rng.integers(-40, 40, (16, 1)))
    decode_sc_general(spec, scaled, hook=got)
    for (i, w, a), (j, v, b) in zip(want.decisions, got.decisions):
        assert i == j and np.array_equal(w, v)
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
    assert batch.u_hat.shape == batch.x_hat.shape == batch_genie.u_hat.shape == (b, n)
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


def test_general_batch_observers_and_shapes(k4, rng):
    spec = spec_all_free(k4, 2)
    rows = rng.random((3, 16, 2))

    with pytest.raises(ValueError):
        decode_sc_general(spec, rows, hook=Recorder())
    with pytest.raises(ValueError):
        decode_sc_general(spec, rows, genie_u=np.zeros(16, dtype=np.int64))
    with pytest.raises(ValueError):
        decode_sc_general(spec, np.ones((0, 16, 2)))
    assert decode_sc_general(spec, rows[0]).failed is None
    res = decode_sc_general(spec, rows[:1])
    assert res.failed.tolist() == [False]
    assert np.array_equal(res.u_hat[0], decode_sc_general(spec, rows[0], hook=Recorder()).u_hat)


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
