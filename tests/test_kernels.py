import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarbench.gf import alphabet
from polarbench.kernels import (
    MAX_N,
    POWER_ROWS,
    CodeLengthError,
    CodeSpec,
    FrozenMismatchError,
    InvalidKernelError,
    Kernel,
    SpecFormatError,
    _pack,
    _words,
    code_depth,
    dump_codespec,
    dump_kernel,
    encode,
    encode_matrix,
    encode_unchecked,
    kernel_arikan,
    kernel_from_table,
    kernel_linear,
    load_codespec,
    load_kernel,
)

from conftest import G4, spec_all_free


def test_pack_unpack_roundtrip():
    for q, width in [(2, 3), (3, 2), (4, 4), (5, 2)]:
        words = _words(q, width)
        assert words.shape == (q**width, width)
        for idx, syms in enumerate(words):
            assert _pack(syms, q) == idx


def test_pack_is_big_endian_in_first_symbol():
    # first coordinate is the most significant digit
    assert _pack((1, 0), 2) == 2
    assert _pack((0, 1), 2) == 1
    assert _pack((2, 1), 4) == 9


def test_arikan_map():
    k = kernel_arikan()
    assert k.ell == 2 and k.q == 2
    assert k.is_arikan
    assert k.map((0, 0)) == (0, 0)
    assert k.map((0, 1)) == (1, 1)
    assert k.map((1, 0)) == (1, 0)
    assert k.map((1, 1)) == (0, 1)


def test_arikan_n4_combination_pattern():
    spec = spec_all_free(kernel_arikan(), 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.integers(0, 2, 4)
        x = encode(spec, u)
        assert x[0] == (u[0] + u[1] + u[2] + u[3]) % 2
        assert x[1] == (u[2] + u[3]) % 2
        assert x[2] == (u[1] + u[3]) % 2
        assert x[3] == u[3]


@pytest.mark.parametrize(
    "q,ell,seed",
    [(2, 2, 0), (2, 3, 1), (2, 4, 2), (3, 2, 3), (4, 2, 4), (4, 3, 5), (5, 2, 6),
     (8, 2, 7), (8, 3, 8), (9, 2, 9), (16, 2, 10)],
)
def test_random_linear_kernel_bijective(q, ell, seed):
    a = alphabet(q)
    rng = np.random.default_rng(seed)
    # rejection-sample an invertible generator
    while True:
        G = rng.integers(0, q, (ell, ell))
        try:
            k = kernel_linear(G, q=q)
            break
        except InvalidKernelError:
            continue
    seen = set()
    for u in _words(q, ell):
        x = k.map(u)
        assert x == tuple(int(v) for v in a.matvec(u, G))
        seen.add(x)
    assert len(seen) == q**ell


def test_singular_generator_rejected():
    with pytest.raises(InvalidKernelError):
        kernel_linear(np.array([[1, 1], [1, 1]]), q=2)
    with pytest.raises(InvalidKernelError):
        kernel_linear(np.zeros((3, 3), dtype=int), q=4)


def test_oversized_generator_rejected_before_building():
    # q**ell = 2**30 words: refused from the shape alone, before the
    # (here invalid) symbols are read or any table is built
    with pytest.raises(InvalidKernelError, match="exceeds"):
        kernel_linear(np.full((30, 30), 7), q=2)


def test_nonlinear_table_kernel():
    # a bijection over GF(2)^2 that is not linear (constant offset)
    table = [[1, 1], [1, 0], [0, 0], [0, 1]]
    k = kernel_from_table(table, q=2)
    assert k.generator is None
    assert not k.is_arikan
    assert k.map((0, 0)) == (1, 1)
    with pytest.raises(InvalidKernelError):
        kernel_from_table([[0, 0], [0, 0], [0, 1], [1, 0]], q=2)  # not a bijection


def test_map_columns_matches_map(k4):
    rng = np.random.default_rng(9)
    cols = rng.integers(0, 2, (10, 4))
    out = k4.map_columns(cols)
    for j in range(10):
        assert tuple(out[j]) == k4.map(tuple(cols[j]))


def test_glue_groups_default_singletons(arikan, k4):
    assert arikan.glue == ((0,), (1,))
    assert k4.glue == ((0,), (1,), (2,), (3,))
    assert k4.group_at(2) == (2,)


def test_glue_groups_validated():
    with pytest.raises(InvalidKernelError):
        kernel_linear(G4, q=2, glue=[(0, 2), (1,), (3,)])  # not consecutive
    with pytest.raises(InvalidKernelError):
        kernel_linear(G4, q=2, glue=[(0, 1), (2,)])  # does not cover
    with pytest.raises(InvalidKernelError):
        kernel_linear([[1, 0], [1, 1]], q=2, glue=[(0, 1), ()])  # an empty group
    k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    assert k.group_at(0) == (0, 1)
    with pytest.raises(ValueError):
        k.group_at(1)  # interior of a group is not a boundary


def test_marginal_table_shape_and_content(arikan):
    # row p of the view for the group at c is the lookup for prefix p:
    # entry [p, t, s] is the output for inputs (prefix, t, suffix)
    t0 = arikan.marginal_view(0)
    assert t0.shape == (1, 2, 2, 2)
    for t in range(2):
        for s in range(2):
            assert tuple(t0[0, t, s]) == arikan.map((t, s))
    t1 = arikan.marginal_view(1)
    assert t1.shape == (2, 2, 1, 2)
    for t in range(2):
        assert tuple(t1[1, t, 0]) == arikan.map((1, t))
    assert np.shares_memory(t1, arikan.table)
    # a glued group spans several digits; GF(3) packs base 3
    k = kernel_linear([[1, 0, 0], [1, 1, 0], [1, 2, 1]], q=3, glue=[(0,), (1, 2)])
    view = k.marginal_view(1)
    assert view.shape == (3, 9, 1, 3)
    for p in range(3):
        for t in range(9):
            assert tuple(view[p, t, 0]) == k.map((p, *_words(3, 2)[t]))
    with pytest.raises(ValueError):
        k.marginal_view(2)  # interior of a group is not a boundary


def test_is_arikan_from_structure():
    # the flag follows the table and the glue groups, not how the kernel was built
    table = [[0, 0], [1, 1], [1, 0], [0, 1]]
    built = kernel_from_table(table, q=2)
    assert built.is_arikan
    u = np.random.default_rng(4).integers(0, 2, 16)
    ref = kernel_arikan()
    assert np.array_equal(encode_unchecked(built, u), encode_unchecked(ref, u))
    assert list(encode_unchecked(built, u)) == _encode_by_definition(ref, list(u))
    assert kernel_linear([[1, 0], [1, 1]]).is_arikan
    assert not kernel_linear([[1, 0], [1, 1]], glue=[(0, 1)]).is_arikan
    assert not kernel_linear([[1, 0], [1, 1]], q=3).is_arikan
    assert not kernel_linear([[1, 1], [0, 1]]).is_arikan  # (u, u+v): another table


def test_encode_equals_matrix_small_kernels():
    rng = np.random.default_rng(11)
    cases = [(2, 2, 4), (2, 3, 3), (2, 4, 2), (4, 2, 3), (3, 3, 2)]
    for q, ell, m in cases:
        while True:
            G = rng.integers(0, q, (ell, ell))
            try:
                kern = kernel_linear(G, q=q)
                break
            except InvalidKernelError:
                continue
        spec = spec_all_free(kern, m)
        a = alphabet(q)
        gmat = encode_matrix(spec)
        for _ in range(25):
            u = rng.integers(0, q, spec.n)
            assert np.array_equal(encode(spec, u), a.matvec(u, gmat))


def _encode_by_definition(kernel, u):
    # output position ell*i+j is g_j of column i of the ell partial codewords
    n, ell = len(u), kernel.ell
    if n == ell:
        return list(kernel.map(u))
    blk = n // ell
    parts = [_encode_by_definition(kernel, u[r * blk : (r + 1) * blk]) for r in range(ell)]
    return [s for i in range(blk) for s in kernel.map([p[i] for p in parts])]


ENCODE_KERNELS = pytest.mark.parametrize("kernel", [
    kernel_arikan(), kernel_linear(G4), kernel_linear([[1, 0], [1, 1]], q=3),
    kernel_from_table([[1, 1], [1, 0], [0, 0], [0, 1]], q=2),
    kernel_linear(G4, glue=[(0, 1), (2,), (3,)]),
], ids=["arikan", "g4", "gf3", "table", "glued"])


@ENCODE_KERNELS
def test_encode_unchecked_batch_matches_rows(kernel):
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        u = rng.integers(0, kernel.q, (9, kernel.ell**m))
        before = u.copy()
        got = encode_unchecked(kernel, u)
        assert got.shape == u.shape and np.array_equal(u, before)
        for row, x in zip(u, got):
            assert list(x) == _encode_by_definition(kernel, list(row))
            assert np.array_equal(x, encode_unchecked(kernel, row))
    # a one-frame codeword is a new array, not a view of the kernel table
    table = kernel.table.copy()
    x = encode_unchecked(kernel, np.zeros(kernel.ell, dtype=np.int64))
    x += 1
    assert np.array_equal(kernel.table, table)
    # so is the codeword of a length-1 word, where no level runs
    u1 = np.zeros((3, 1), dtype=np.int64)
    assert not np.shares_memory(encode_unchecked(kernel, u1), u1)


@ENCODE_KERNELS
@pytest.mark.parametrize("lead", [(), (4,), (2, 3), (0,)], ids=["1d", "batch", "batch2", "empty"])
def test_encode_unchecked_matches_definition_any_leading_shape(kernel, lead):
    # every kernel takes the same level loop: one word, a batch, a batch of
    # batches and an empty (0, N) batch all encode word by word
    rng = np.random.default_rng(23)
    for m in (1, 2, 3):
        u = rng.integers(0, kernel.q, lead + (kernel.ell**m,))
        got = encode_unchecked(kernel, u)
        assert got.shape == u.shape and got.dtype == np.int64
        for idx in np.ndindex(lead):
            assert list(got[idx]) == _encode_by_definition(kernel, list(u[idx]))


def _encode_by_levels(kernel, u):
    # the loop of one level per pass, one kernel-table lookup per column,
    # that encode_unchecked's multi-level passes must reproduce
    x = np.array(u, dtype=np.int64)
    lead, n, ell = x.shape[:-1], x.shape[-1], kernel.ell
    s = 1
    while s < n:
        parts = x.reshape(lead + (n // (ell * s), ell, s))
        x = np.take(kernel.table, kernel.radix @ parts, axis=0)
        s *= ell
    return x.reshape(lead + (n,))


# each kernel with the depths it is encoded at and the sizes of its power
# tables: Arikan at m = 0..10 meets every remainder of m mod 3
POWER_CASES = pytest.mark.parametrize("kernel,depths,widths", [
    (kernel_arikan(), range(11), [2, 4, 8]),
    (kernel_linear([[1, 0], [1, 1]], q=3), range(6), [2, 4]),
    (kernel_linear(G4), range(4), [4]),
    (kernel_from_table([[1, 1], [1, 0], [0, 0], [0, 1]], q=2), range(7), [2, 4, 8]),
    (kernel_linear([[1, 0], [2, 1]], q=4), range(6), [2, 4]),
], ids=["arikan", "gf3", "g4", "table", "q4"])


@POWER_CASES
@pytest.mark.parametrize("lead", [(), (5,), (2, 3), (0,)], ids=["1d", "batch", "batch2", "empty"])
@pytest.mark.parametrize("pickled", [False, True], ids=["kernel", "unpickled"])
def test_encode_power_passes_match_level_loop(kernel, depths, widths, lead, pickled):
    # a pass of the K-fold power's table encodes what K passes of the
    # kernel's table encode, and so does the shorter last pass; a kernel
    # sent to a worker process (run_trials with jobs > 1) encodes the same
    if pickled:
        kernel = pickle.loads(pickle.dumps(kernel))
    rng = np.random.default_rng(29)
    for m in depths:
        u = rng.integers(0, kernel.q, lead + (kernel.ell**m,))
        got = encode_unchecked(kernel, u)
        assert got.dtype == np.int64 and got.shape == u.shape
        assert np.array_equal(got, _encode_by_levels(kernel, u)), m
        if m == 0:
            assert np.array_equal(got, u) and not np.shares_memory(got, u)
        elif m <= 5:
            for idx in np.ndindex(lead):
                assert list(got[idx]) == _encode_by_definition(kernel, list(u[idx])), (m, idx)


@POWER_CASES
def test_power_tables_are_read_only_and_built_once(kernel, depths, widths):
    kernel = pickle.loads(pickle.dumps(kernel))  # a kernel of its own
    powers = kernel.power_tables()
    assert sorted(powers) == widths
    for w, (radix, table) in powers.items():
        assert not radix.flags.writeable and not table.flags.writeable
        assert table.shape == (kernel.q**w, w)
        assert table.shape[0] <= POWER_ROWS or w == kernel.ell
        assert np.array_equal(radix, kernel.q ** np.arange(w - 1, -1, -1))
        assert np.array_equal(table, _encode_by_levels(kernel, _words(kernel.q, w)))
    # the largest power that fits: the next one would exceed POWER_ROWS
    assert kernel.q ** (max(widths) * kernel.ell) > POWER_ROWS
    encode_unchecked(kernel, np.zeros((2, kernel.ell ** max(depths)), dtype=np.int64))
    again = kernel.power_tables()
    assert again is powers
    assert all(again[w][1] is powers[w][1] for w in widths)
    # an unpickled copy builds its own, read-only again
    copy = pickle.loads(pickle.dumps(kernel))
    for w, (radix, table) in copy.power_tables().items():
        assert table is not powers[w][1] and np.array_equal(table, powers[w][1])
        assert not radix.flags.writeable and not table.flags.writeable


def test_encode_names_first_mismatch_of_first_bad_frame(arikan):
    # pins broken in frames 1 and 3 (frame 3 at a lower index): the error
    # names frame 1, at its lowest mismatching coordinate
    spec = CodeSpec(arikan, 4, {0: 0, 3: 1, 6: 0, 9: 1, 12: 0})
    u = spec.assemble(np.random.default_rng(4).integers(0, 2, (5, spec.k_info)))
    u[1, 12] = 1
    u[1, 9] = 0
    u[3, 0] = 1
    with pytest.raises(FrozenMismatchError, match=r"^frame 1: u\[9\]=0 but coordinate is pinned to 1$"):
        encode(spec, u)
    with pytest.raises(FrozenMismatchError, match=r"^frame 0: u\[0\]=1 but coordinate is pinned to 0$"):
        encode(spec, u[3:])
    with pytest.raises(FrozenMismatchError, match=r"^u\[9\]=0 but coordinate is pinned to 1$"):
        encode(spec, u[1])
    u[1, [9, 12]] = 1, 0
    u[3, 0] = 0
    assert np.array_equal(encode(spec, u), encode_unchecked(arikan, u))


def test_encode_batch_checks_every_frame(arikan):
    spec = CodeSpec(arikan, 3, {0: 0, 5: 1})
    u = spec.assemble(np.random.default_rng(2).integers(0, 2, (6, spec.k_info)))
    assert np.array_equal(encode(spec, u), np.stack([encode(spec, row) for row in u]))
    u[4, 5] = 0
    with pytest.raises(FrozenMismatchError, match=r"frame 4: u\[5\]=0 but coordinate is pinned to 1"):
        encode(spec, u)
    with pytest.raises(FrozenMismatchError, match=r"^u\[5\]=0 but"):
        encode(spec, u[4])
    u[4, 5] = 2
    with pytest.raises(ValueError, match="symbols out of range"):
        encode(spec, u)


def test_assemble_batch_matches_rows(arikan):
    spec = CodeSpec(arikan, 3, {1: 1, 2: 0, 6: 1})
    payload = np.random.default_rng(5).integers(0, 2, (4, 3, spec.k_info))
    u = spec.assemble(payload)
    assert u.shape == (4, 3, spec.n)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(u[idx], spec.assemble(payload[idx]))
    assert list(u[0, 0, [1, 2, 6]]) == [1, 0, 1]
    with pytest.raises(ValueError, match="payload length"):
        spec.assemble(payload[..., 1:])


def test_encode_matrix_requires_linear():
    k = kernel_from_table([[1, 1], [1, 0], [0, 0], [0, 1]], q=2)
    spec = spec_all_free(k, 2)
    with pytest.raises(InvalidKernelError):
        encode_matrix(spec)


def test_encode_unchecked_matches_encode(arikan):
    spec = spec_all_free(arikan, 3)
    rng = np.random.default_rng(2)
    u = rng.integers(0, 2, 8)
    assert np.array_equal(encode(spec, u), encode_unchecked(arikan, u))


def test_codespec_properties(arikan):
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 0, 2: 1})
    assert spec.n == 8
    assert spec.k_info == 5
    assert spec.rate == pytest.approx(5 / 8)
    assert list(spec.info_indices()) == [3, 4, 5, 6, 7]
    mask, vals = spec.frozen_arrays()
    assert list(np.flatnonzero(mask)) == [0, 1, 2]
    assert list(vals[:3]) == [0, 0, 1]
    assert not vals[3:].any()
    # computed once and shared by every caller, so read-only, also after a
    # pickle; a node plan read before pickling comes back equal
    plans = [spec.node_plan(2**k) for k in range(4)]
    again = pickle.loads(pickle.dumps(spec))
    for s in (spec, again):
        assert not any(a.flags.writeable for a in (s.info_indices(), *s.frozen_arrays()))
        assert not any(a.flags.writeable for k in range(4) for a in s.node_plan(2**k))
    assert list(again.info_indices()) == [3, 4, 5, 6, 7]
    for k, plan in enumerate(plans):
        assert all(np.array_equal(a, b) for a, b in zip(again.node_plan(2**k), plan)), k
    u = spec.assemble([1, 0, 1, 1, 0])
    assert list(u) == [0, 0, 1, 1, 0, 1, 1, 0]
    with pytest.raises(ValueError):
        spec.assemble([1, 0])


def _node_plan_reference(spec, width):
    # per node, by brute force: its frozen-input count, and whether every
    # frozen value is 0 (true for a node with no frozen input)
    frozen, zero = [], []
    for off in range(0, spec.n, width):
        pins = [spec.frozen[i] for i in range(off, off + width) if i in spec.frozen]
        frozen.append(len(pins))
        zero.append(not any(pins))
    return frozen, zero


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("ell,m", [(2, 5), (3, 3), (4, 3)])
def test_node_plan_matches_per_node_reference(ell, m, q):
    # random frozen sets with random values, and whole random nodes frozen
    # to 0 or to random values, so that every kind of node occurs at every
    # width ell**k, k = 0..m
    kernel = kernel_linear(np.tril(np.ones((ell, ell), dtype=np.int64)), q=q)
    n = ell**m
    rng = np.random.default_rng(100 * ell + q)
    for case in range(40):
        pinned = rng.choice(n, rng.integers(0, n + 1), replace=False)
        frozen = {int(i): (int(rng.integers(0, q)) if case % 2 else 0) for i in pinned}
        for _ in range(rng.integers(0, 3)):
            w = ell ** int(rng.integers(1, m + 1))
            start = w * int(rng.integers(0, n // w))
            vals = rng.integers(0, q, w) if rng.random() < 0.5 else np.zeros(w, dtype=np.int64)
            frozen.update(zip(range(start, start + w), vals.tolist()))
        spec = CodeSpec(kernel, m, frozen)
        for k in range(m + 1):
            width = ell**k
            plan = spec.node_plan(width)
            assert [a.tolist() for a in plan] == list(_node_plan_reference(spec, width)), (case, k)
            assert not any(a.flags.writeable for a in plan)
            # built once per width: a second read gives the same arrays
            assert all(a is b for a, b in zip(spec.node_plan(width), plan))


def test_codespec_validation(arikan):
    with pytest.raises(ValueError):
        CodeSpec(kernel=arikan, m=0, frozen={})
    with pytest.raises(ValueError):
        CodeSpec(kernel=arikan, m=2, frozen={4: 0})
    with pytest.raises(ValueError):
        CodeSpec(kernel=arikan, m=2, frozen={0: 2})


def test_code_length_limit(arikan, k4):
    # N up to MAX_N is a code; beyond it nothing of length N is built, and
    # a huge depth is refused without forming ell**m
    assert code_depth(MAX_N, 2) == 20
    assert CodeSpec(kernel=k4, m=10, frozen={}).n == MAX_N
    for call in (
        lambda: code_depth(2 * MAX_N, 2),
        lambda: code_depth(2**40, 4),
        lambda: CodeSpec(kernel=arikan, m=21, frozen={}),
        lambda: CodeSpec(kernel=k4, m=11, frozen={}),
        lambda: CodeSpec(kernel=arikan, m=10**18, frozen={}),
    ):
        with pytest.raises(CodeLengthError, match="exceeds the longest supported code length"):
            call()
    with pytest.raises(CodeLengthError, match="is not a power"):
        code_depth(6, 2)


def test_encode_rejects_frozen_mismatch(arikan):
    spec = CodeSpec(kernel=arikan, m=2, frozen={0: 0})
    encode(spec, np.array([0, 1, 1, 0]))
    with pytest.raises(FrozenMismatchError):
        encode(spec, np.array([1, 1, 1, 0]))


def test_kernel_serialization_roundtrip(k4):
    text = dump_kernel(k4)
    k2 = load_kernel(text)
    assert k2.ell == k4.ell and k2.q == k4.q
    assert np.array_equal(k2.generator, k4.generator)
    assert np.array_equal(k2.table, k4.table)


def test_codespec_serialization_roundtrip(arikan):
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 0, 5: 1})
    text = dump_codespec(spec)
    back = load_codespec(text)
    assert back.m == spec.m
    assert back.frozen == spec.frozen
    assert np.array_equal(back.kernel.table, spec.kernel.table)


def test_serialization_glue_and_comments():
    k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    text = dump_kernel(k)
    assert "glue" in text
    commented = "# leading comment\n" + text.replace("\n", "  # trailing\n", 1)
    back = load_kernel(commented)
    assert back.glue == ((0, 1), (2,), (3,))


def test_load_errors():
    with pytest.raises(SpecFormatError):
        load_kernel("m 3\n")  # missing header
    with pytest.raises(SpecFormatError):
        load_kernel("kernel ell=3 q=2\n")  # no map for this shape
    with pytest.raises(SpecFormatError):
        load_kernel("kernel ell=2 q=2\nG 1 0\n")  # wrong row count
    with pytest.raises(SpecFormatError):
        load_codespec("kernel ell=2 q=2\n")  # missing m
    with pytest.raises(SpecFormatError):
        load_kernel("kernel ell=2 q=2\nbogus 1\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_encode_is_bijective_on_free_specs(m, data):
    spec = spec_all_free(kernel_arikan(), m)
    u = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.n, max_size=spec.n)))
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.n, max_size=spec.n)))
    if not np.array_equal(u, v):
        assert not np.array_equal(encode(spec, u), encode(spec, v))


def test_table_rows_are_output_symbols(arikan):
    assert isinstance(arikan, Kernel)
    assert arikan.table.shape == (4, 2)
    packed = {int(2 * r[0] + r[1]) for r in arikan.table}
    assert packed == {0, 1, 2, 3}
