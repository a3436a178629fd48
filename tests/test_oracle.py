import math

import numpy as np
import pytest

from polarbench.channels import likelihood_rows_binary
from polarbench.kernels import CodeSpec, encode_unchecked

from conftest import spec_all_free
from oracle import (
    OracleTooLarge,
    marginal_llr_bruteforce,
    ml_decode,
    ml_scores,
    marginal_llr_bruteforce as brute_llr,
)


def test_ml_decode_noiseless(arikan, rng):
    spec = CodeSpec(kernel=arikan, m=3, frozen={0: 0, 1: 0, 2: 0})
    u = spec.assemble(rng.integers(0, 2, 5))
    x = encode_unchecked(arikan, u)
    rows = likelihood_rows_binary(np.where(x == 0, 30.0, -30.0))
    u_hat, x_hat, post = ml_decode(spec, rows)
    assert np.array_equal(u_hat, u)
    assert np.array_equal(x_hat, x)
    assert post == pytest.approx(1.0, abs=1e-9)


def test_ml_decode_posterior_fixture(arikan):
    # frozen fixture: N=4, frozen {0:0, 1:0}, rows from
    # llr = (1.2, -0.7, 0.4, 2.1); winner is the all-zero word
    spec = CodeSpec(kernel=arikan, m=2, frozen={0: 0, 1: 0})
    rows = likelihood_rows_binary(np.array([1.2, -0.7, 0.4, 2.1]))
    u_hat, x_hat, post = ml_decode(spec, rows)
    assert list(u_hat) == [0, 0, 0, 0]
    assert list(x_hat) == [0, 0, 0, 0]
    assert post == pytest.approx(0.575240699200, abs=1e-10)


def test_ml_decode_tie_prefers_lexicographic(arikan):
    # all-erased evidence: every hypothesis ties, payload (0,...) must win
    spec = CodeSpec(kernel=arikan, m=2, frozen={0: 0})
    rows = likelihood_rows_binary(np.zeros(4))
    u_hat, _, post = ml_decode(spec, rows)
    assert list(u_hat) == [0, 0, 0, 0]
    assert post == pytest.approx(1.0 / 8.0)


def test_ml_decode_all_zero_likelihood(arikan):
    spec = CodeSpec(kernel=arikan, m=1, frozen={0: 0})
    rows = np.array([[0.0, 0.0], [0.0, 0.0]])
    u_hat, x_hat, post = ml_decode(spec, rows)
    assert post == 0.0
    assert list(u_hat) == [0, 0]


def test_ml_scores_enumeration_order(arikan):
    spec = CodeSpec(kernel=arikan, m=1, frozen={})
    rows = likelihood_rows_binary(np.array([1.0, -0.5]))
    scored = ml_scores(spec, rows)
    assert [p for p, _ in scored] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # scores must match direct computation for one entry
    x = encode_unchecked(arikan, np.array([1, 0]))
    direct = math.fsum(math.log(rows[j, int(x[j])]) for j in range(2))
    assert scored[2][1] == pytest.approx(direct, abs=1e-12)


def test_oracle_size_guard(arikan):
    # N=32 with 21 free coordinates: 2^21 hypotheses > the 2^20 limit
    spec = CodeSpec(kernel=arikan, m=5, frozen={i: 0 for i in range(11)})
    with pytest.raises(OracleTooLarge):
        ml_decode(spec, np.ones((spec.n, 2)))
    with pytest.raises(OracleTooLarge):
        marginal_llr_bruteforce(spec_all_free(arikan, 5), np.ones((32, 2)), 5, {})


def test_marginal_llr_sign_convention(arikan):
    # N=2 all free, strong evidence for x=(0,0): u0 marginal favors 0
    spec = spec_all_free(arikan, 1)
    rows = likelihood_rows_binary(np.array([3.0, 3.0]))
    llr = marginal_llr_bruteforce(spec, rows, 0, {})
    assert llr[0] == 0.0
    assert llr[1] > 0.0
    # after deciding u0=0, u1 sees both observations
    llr1 = marginal_llr_bruteforce(spec, rows, 1, {0: 0})
    assert llr1[1] == pytest.approx(6.0, abs=1e-9)


def test_marginal_llr_infinite_cases(arikan):
    spec = spec_all_free(arikan, 1)
    # x0 erased, x1 surely 1: u1 = x1 = 1 regardless of u0
    rows = likelihood_rows_binary(np.array([0.0, -np.inf]))
    llr1 = marginal_llr_bruteforce(spec, rows, 1, {0: 0})
    assert llr1[1] == -math.inf
    rows2 = likelihood_rows_binary(np.array([0.0, np.inf]))
    llr2 = marginal_llr_bruteforce(spec, rows2, 1, {0: 0})
    assert llr2[1] == math.inf


def test_marginal_llr_n2_closed_form(arikan, rng):
    # u0 marginal equals the boxplus of the two observation llrs
    from polarbench.llrops import f_plus

    spec = spec_all_free(arikan, 1)
    for _ in range(20):
        a, b = rng.normal(0, 2, 2)
        rows = likelihood_rows_binary(np.array([a, b]))
        llr = brute_llr(spec, rows, 0, {})
        assert llr[1] == pytest.approx(f_plus(a, b), abs=1e-9)


def test_marginal_llr_respects_decided(arikan):
    spec = spec_all_free(arikan, 1)
    rows = likelihood_rows_binary(np.array([2.0, -1.0]))
    # flipping the decided u0 flips which observation u1 combines against
    l_a = brute_llr(spec, rows, 1, {0: 0})
    l_b = brute_llr(spec, rows, 1, {0: 1})
    assert l_a[1] == pytest.approx(2.0 + (-1.0), abs=1e-9)
    assert l_b[1] == pytest.approx(-2.0 + (-1.0), abs=1e-9)
