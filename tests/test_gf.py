import hashlib

import numpy as np
import pytest

from polarbench.gf import Alphabet, AlphabetError, alphabet


def _inv(a, x):
    """The symbol whose product with x is 1 (0 if there is none)."""
    return int(np.argmax(a.mul_table[x] == 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 256])
def test_field_axioms_spot(q):
    a = alphabet(q)
    add, mul, neg = a.add_table, a.mul_table, a.neg_table
    rng = np.random.default_rng(q)
    xs = rng.integers(0, q, 30)
    ys = rng.integers(0, q, 30)
    zs = rng.integers(0, q, 30)
    for x, y, z in zip(xs, ys, zs):
        assert add[x, y] == add[y, x]
        assert mul[x, y] == mul[y, x]
        assert add[add[x, y], z] == add[x, add[y, z]]
        assert mul[mul[x, y], z] == mul[x, mul[y, z]]
        # distributivity
        assert mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]
        assert add[x, neg[x]] == 0
        if x:
            assert mul[x, _inv(a, x)] == 1


@pytest.mark.parametrize("q", [2, 4, 5, 8])
def test_mul_inverse_exhaustive(q):
    a = alphabet(q)
    mul = a.mul_table
    for x in range(1, q):
        assert mul[x, _inv(a, x)] == 1
        # (x * 3) / x == 3
        assert mul[mul[x, 3 % q], _inv(a, x)] == 3 % q or q <= 3


def test_nonzero_elements_cyclic():
    a = alphabet(8)
    # some symbol's powers hit every nonzero symbol once

    def powers(g):
        x, seen = 1, set()
        for _ in range(7):
            seen.add(x)
            x = int(a.mul_table[x, g])
        return seen

    assert any(powers(g) == set(range(1, 8)) for g in range(2, 8))


def test_gf2_matches_xor():
    a = alphabet(2)
    assert a.add_table[1, 1] == 0
    assert a.mul_table[1, 1] == 1
    assert a.mul_table[0, 1] == 0


def test_bad_q_rejected():
    with pytest.raises(AlphabetError):
        Alphabet(6)
    with pytest.raises(AlphabetError):
        Alphabet(12)
    with pytest.raises(AlphabetError):
        alphabet(512)


def test_matvec_linear():
    a = alphabet(5)
    rng = np.random.default_rng(1)
    mat = rng.integers(0, 5, (3, 4))
    u = rng.integers(0, 5, 3)
    v = rng.integers(0, 5, 3)
    lhs = a.matvec(a.add_table[u, v], mat)
    rhs = a.add_table[a.matvec(u, mat), a.matvec(v, mat)]
    assert np.array_equal(lhs, rhs)


def test_check_symbols():
    a = alphabet(4)
    a.check_symbols(np.array([0, 1, 2, 3]))
    with pytest.raises(ValueError):
        a.check_symbols(np.array([0, 4]))


# First 16 hex digits of the sha256 of each table as little-endian int64,
# recorded from the exp/log-table implementation these tables replaced:
# (q, add_table, mul_table, neg_table) for every prime power q <= 256.
TABLE_DIGESTS = [
    (2, "db7f8e2aa97f8d23", "013f21dd7052786e", "9d34149fbd1fe777"),
    (3, "39b5a26cf03bff46", "700c6daf40792c6c", "0f004f117335020e"),
    (4, "cd18db5001222f5a", "474cf06ceecdd9b0", "a1e03200f1f82ad2"),
    (5, "6542d32fd342e740", "ffb2bb9fe974ea5c", "713ef470ed4dddb6"),
    (7, "4f3ec518c1dfcfa2", "9152747bdc6c526d", "e01e040f9340fa47"),
    (8, "0c36cc322607a32c", "9cd634e6136c6df8", "fece8d601cd4c902"),
    (9, "86ac843ff1f14f5e", "570c990a2f2314c2", "0b567cf282f27d20"),
    (11, "16316db26e0e6e1a", "974bba06bdd3d707", "891dc8eebed7ac2b"),
    (13, "7cf6f5a6ca4df23c", "2e949bc4fccbfb95", "ebd10ec63f01f536"),
    (16, "c23e73c80b6902c1", "208e9a18ae935386", "f23d672bb9b341f9"),
    (17, "1ec5bd98caea9d44", "1c7e38a33850e88c", "530352d15f747e20"),
    (19, "818f8069068fc548", "468f70d9f0d611f6", "18a4fb39cb6996a2"),
    (23, "6850011df6613b8d", "80c833cdb6d3f589", "7bc77aaef5a195ab"),
    (25, "35ca85530c66b2ee", "1f48e17724f49906", "bb18c51471126f25"),
    (27, "8a032eac974c725c", "bb93500b8e94723b", "87cc86f3a55d8ee9"),
    (29, "92b30b09219057de", "5989fb71f98f8307", "bf56a07a56120bf6"),
    (31, "2ca7ce459adc5db9", "0f5bc0439b4d5b05", "f7701f50013a9103"),
    (32, "5f7df29d5dcb6897", "8160a0dbedcd4ef8", "bcc9bcfc670935c6"),
    (37, "42a0fab736ebd6b1", "771681a7a8876c03", "69a2ede18fe933f1"),
    (41, "8d33a79f91988e66", "4a8162abd99f62cd", "ae3c47d359e9b1e5"),
    (43, "f15a28bfff988914", "3baf563d59efba1b", "7b98a2740aa099f8"),
    (47, "2b210923d95883a0", "914c51df01e7c760", "a67bd908ed448ecd"),
    (49, "73678cf071cf7baa", "c3ebe1de5a2aecf0", "f4bbfebcd7279250"),
    (53, "f109063bb06069b0", "41168bc5f8c7be98", "2905df363e6a63b0"),
    (59, "50643f5eff2da494", "60d6ebbacf4e4e50", "d07959612d43e770"),
    (61, "2b6f6dc50b35e03b", "ad59b27faccf9cd3", "ee23fd94c27a4e52"),
    (64, "779fcd7c371f9bad", "232b9cb0cb5b75f9", "7a4644928f3a08db"),
    (67, "0c6c708708d2ea35", "b9fea434c79ce21f", "197bc0716632ff0c"),
    (71, "cd81ae83cdb7aba8", "5b7ee6f592b4eec7", "e8963142814ea5d1"),
    (73, "443f9f8590a5b1bc", "b875745fedb067eb", "86b61030035e07d2"),
    (79, "85e414702166b3fd", "58c6804ef36d7930", "0da6df5c801cf54e"),
    (81, "03ed3956e07257e3", "bc43a66dadfafc5b", "d493f43140b56ddc"),
    (83, "cbf5ad294b708164", "4714ef2a1b5c5522", "d11b993148f40976"),
    (89, "e1e9e33ba2c13aa0", "8cb6878cce1c85df", "aacd1d031e1b7658"),
    (97, "47c4141f3f9ed234", "7895b7c3fd29b98e", "8f27287e2853fdd9"),
    (101, "fed6b255904f7113", "cdcda5a134fb2410", "96c5360969bd3051"),
    (103, "1a50ca0797354954", "4f4fbfd57fbb1abf", "f8d5274eb892adcb"),
    (107, "043e13c21d9edb5c", "9c3f3e1f0fcd59f4", "7b06860e8b750ff2"),
    (109, "3a5a76d4604142d4", "b41db517cf200e65", "7357085eb1d68af1"),
    (113, "500714a94310edb0", "6b7b660845e71010", "77b24f7232401669"),
    (121, "2c5d9b9d8f002071", "98efd4110564fec6", "7cc1ad7194ae2e28"),
    (125, "de248ad0a4cc2193", "6ccd7d4de58c8390", "b0f74a3f4143b815"),
    (127, "b67ef69e55c3f2d1", "f77ddbe9ef5dfa02", "5a6239a4c228defa"),
    (128, "88b1e5f011366261", "3731b9db8e234bbd", "3e4f0a2fd9498da7"),
    (131, "7308837cb19b28f5", "5d9ef52cfdef3e83", "bd0d2f3ead5c6b82"),
    (137, "e0b4bce4c4e3b6e0", "2a46a8e9dc106d87", "f10b6bd43cdc4194"),
    (139, "80ec09f080ee5be4", "77ee4971e8f90197", "72af58de326f19cf"),
    (149, "ed9ae69957390892", "e4efbc83fbc8ef6a", "b36b4952788b3d87"),
    (151, "f12f37468bce83a2", "02a67877f3c6b7f2", "669ff27f1c933dd4"),
    (157, "c29b2aa4761fc611", "f9dc1c213cc79277", "bb5efb4e85b31c87"),
    (163, "5f7be445d03a3811", "fedb01bff2a5af14", "570e5f2a9fd8f6e7"),
    (167, "b738d48568d38038", "6794c36c1b338ddb", "6964fa2b9f25648c"),
    (169, "0a78fdd01b38120f", "1ab0a2edb9c8030b", "961078bf97a13e96"),
    (173, "7794a8e7ccb31c9c", "983c59c189e069cd", "5681372cd4cd738b"),
    (179, "80b874e29fb98ced", "6f2632383ee2cdbc", "64525a8e1747bef1"),
    (181, "592c2bb41ab914d6", "b858b0a5f134f3fd", "9870ef54e81bd683"),
    (191, "1a66a3ee7ad64973", "ec781fac16d0032b", "dba12d8325b59781"),
    (193, "f22f4b0ef2091d5b", "518f511e2cd25d45", "6c71738240fe2287"),
    (197, "f298b826d6849e5c", "ee45af8a787cf391", "6189bb8b810757a6"),
    (199, "a386b38a1d994d30", "430d4875eb412e85", "19adba3f80392e86"),
    (211, "8f4c3067c94062d8", "3fb9037cba645c73", "e2e38521cbcbd8ad"),
    (223, "0433da2eb4aeabac", "579311ffe6bf5c6c", "504d3fd664ce09b2"),
    (227, "a42c1457a0f5c05c", "cdf2bc52f22ef751", "b43509acc0e3dd6c"),
    (229, "8eca62a82b30969d", "6d996e4b5f02c55e", "c3d3dfced1f0a17c"),
    (233, "e5fb41b3ac50cad5", "bf1519251cb728e2", "2596c6b01d00d7cd"),
    (239, "acf89f1df4a29ede", "7c8a409b13e8aca1", "f4baffea54bad3f7"),
    (241, "3cd10bde6a76b408", "89b481981550bcb0", "0ab0d24a0299568e"),
    (243, "f51377565878b2dc", "d8389f2b377846a0", "b8be5d82384bf17a"),
    (251, "717311783145275a", "120c75f6d98df542", "ab075f18ab287718"),
    (256, "8789a1484021cb8c", "d2a6415b01c36ec3", "bbd330b12e8159e1"),
]


@pytest.mark.parametrize("q,add,mul,neg", TABLE_DIGESTS, ids=[str(t[0]) for t in TABLE_DIGESTS])
def test_tables_pinned(q, add, mul, neg):
    a = alphabet(q)

    def digest(table):
        return hashlib.sha256(np.ascontiguousarray(table, dtype="<i8").tobytes()).hexdigest()[:16]

    assert (digest(a.add_table), digest(a.mul_table), digest(a.neg_table)) == (add, mul, neg)

