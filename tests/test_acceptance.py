"""Acceptance checks, one test per stated requirement.

Each test appends a single PASS/FAIL verdict line that the conftest
summary hook prints at the end of the run. The general-kernel line cycle
form only tracks the dependency-faithful schedule for up to two recursion
levels; that check is a strict xfail so the discrepancy stays visible
without masking everything else.
"""

import math
import sys
import time

import numpy as np
import pytest

from polarbench.channels import bec, bsc, likelihood_rows_binary
from polarbench.construction import construct_bec
from polarbench.gf import alphabet
from polarbench.hwsim import (
    check_formulas,
    formulas_general_line,
    general_line_true_cycles,
    run_bp_line,
    run_general_line,
    run_sc,
    run_sc_multi,
)
from polarbench.bp import bp_decode, bp_iteration, bp_state
from polarbench.kernels import (
    CodeSpec,
    encode,
    encode_matrix,
    kernel_arikan,
    kernel_linear,
)
from polarbench.montecarlo import run_trials
from polarbench.sc import decode_sc_arikan, decode_sc_general
from polarbench.scl import decode_scl

from conftest import G4, Recorder, message_values
from oracle import ml_decode

ACCEPTANCE_LINES: list[str] = []


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)
    assert ok, line


def _note_expected_fail(tag: str, detail: str) -> None:
    line = f"[{tag}] FAIL (expected): {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)


def _rate_half(m: int) -> CodeSpec:
    return construct_bec(m, 0.5, 0.5)


# 1. closed-form resource/latency audit ---------------------------------------


def test_criterion1_closed_forms():
    t0 = time.perf_counter()
    cells = 0
    for m in range(1, 11):
        n = 2**m
        spec = _rate_half(m)
        llr = np.random.default_rng(n).normal(0, 2, n)
        for arch in ("sc_pipeline", "sc_line"):
            rep = run_sc(spec, llr, arch=arch).report
            assert check_formulas(rep) == [], (arch, n, check_formulas(rep))
            cells += 1
        for i in range(1, m + 1):
            rep = run_sc(spec, llr, arch="sc_limited", i_param=i).report
            assert check_formulas(rep) == [], ("sc_limited", n, i)
            if n == 64 and i == 4:
                # the canonical parallelism cut: 34 cycles over the full line
                assert rep.cycles == (2 * 64 - 2) + 34 == 160
            cells += 1
        rng = np.random.default_rng(n + 1)
        words = [rng.normal(0, 2, n) for _ in range(max(1, n - 1))]
        rep = run_sc_multi(spec, words).report
        assert check_formulas(rep) == [], ("sc_multi", n)
        assert rep.cycles == 3 * n - 4
        assert rep.contention == 0
        cells += 1
        rep = run_bp_line(spec, llr, iterations=2).report
        assert check_formulas(rep) == [], ("bp_line", n)
        assert 2 * rep.extra["cycles_per_iteration"] == rep.cycles
        assert 2 * rep.extra["cycles_per_iteration"] == 2 * (11 * n - 14) // 2
        cells += 1
    # general-kernel line, the depths where the cycle form is exact
    for ell, G in ((2, [[1, 0], [1, 1]]), (4, G4)):
        kern = kernel_linear(G, q=2)
        for m in (1, 2):
            n = ell**m
            spec = CodeSpec(kern, m, {i: 0 for i in range(n // 2)})
            rows = likelihood_rows_binary(np.random.default_rng(n).normal(0, 2, n))
            rep = run_general_line(spec, rows).report
            assert check_formulas(rep) == [], ("general_line", ell, m)
            cells += 1
    dt = time.perf_counter() - t0
    _report(
        "criterion 1",
        dt < 60.0,
        f"all {cells} closed-form cells exact for N in 2..1024 "
        f"(multi at p=N-1 gives 3N-4; limited i=4 at N=64 gives 160), {dt:.1f}s",
    )


@pytest.mark.xfail(strict=True, reason="general-line cycle form undercounts beyond two levels")
def test_criterion1_general_line_deep():
    # the schedule needs ell*(N-1)/(ell-1) cycles; N + ell*(log_ell N - 1)
    # falls behind from three levels up, and no constant multiple can fix
    # both N=4 (ratio 3/4) and N=8 (ratio 7/6) at once
    examples = []
    for ell, G, depths in ((2, [[1, 0], [1, 1]], range(3, 11)), (4, G4, range(3, 6))):
        kern = kernel_linear(G, q=2)
        for m in depths:
            n = ell**m
            spec = CodeSpec(kern, m, {i: 0 for i in range(n // 2)})
            rows = likelihood_rows_binary(np.random.default_rng(n).normal(0, 2, n))
            rep = run_general_line(spec, rows).report
            assert rep.cycles == general_line_true_cycles(ell, m)
            want = formulas_general_line(ell, m)["cycles"]
            if rep.cycles != want:
                examples.append(f"ell={ell} N={n}: counted {rep.cycles} vs formula {want}")
    _note_expected_fail(
        "criterion 1, general-line cycles",
        "form N+ell*(log_ell N - 1) undercounts the dependency-faithful "
        f"schedule ell*(N-1)/(ell-1) at three or more levels ({examples[0]}; "
        f"{examples[1]}; ...); exact only for log_ell N <= 2",
    )
    assert not examples, examples


# 2. list/oracle equivalences ---------------------------------------------------


def test_criterion2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)

    trials_per_n = 1000
    for n in (8, 64, 128):
        spec = _rate_half(n.bit_length() - 1)
        for _ in range(trials_per_n):
            llr = rng.normal(0, 2, n)
            ref = decode_sc_arikan(spec, llr)
            res = decode_scl(spec, likelihood_rows_binary(llr), 1)
            assert np.array_equal(res.u_hat, ref.u_hat), n
            assert np.array_equal(res.x_hat, ref.x_hat), n

    # saturated list keeps every path, so its best row is the ML word
    spec8 = CodeSpec(kernel_arikan(), 3, {0: 0, 1: 0, 2: 0, 4: 0})
    for _ in range(500):
        rows = likelihood_rows_binary(rng.normal(0, 1.5, 8))
        res = decode_scl(spec8, rows, 16)
        u_ml, _, _ = ml_decode(spec8, rows)
        assert np.array_equal(res.u_hat, u_ml)

    # the generic recursion on the (u+v, v) kernel reproduces the
    # specialized decoder's decision llrs
    worst = 0.0
    for n in (8, 32):
        spec = _rate_half(n.bit_length() - 1)
        for _ in range(100):
            llr = rng.normal(0, 2, n)
            ref_rec, gen_rec = Recorder(), Recorder()
            ref = decode_sc_arikan(spec, llr, hook=ref_rec)
            gen = decode_sc_general(spec, likelihood_rows_binary(llr), hook=gen_rec)
            assert np.array_equal(gen.u_hat, ref.u_hat)
            assert len(gen_rec.decisions) == n
            for (idx, u, vec), want in zip(gen_rec.decisions, ref_rec.llrs()):
                assert len(u) == 1
                worst = max(worst, abs(vec[1] - want))
    assert worst < 1e-9
    dt = time.perf_counter() - t0
    _report(
        "criterion 2",
        dt < 300.0,
        f"list(M=1) == plain SC over {trials_per_n} trials each at N=8/64/128; "
        f"saturated list == exhaustive ML over 500 draws at N=8 K=4; generic "
        f"recursion matches the specialized one to {worst:.2e} (< 1e-9), {dt:.1f}s",
    )


# 3. hardware/software bit-exactness -------------------------------------------


def test_criterion3_hw_sw_bit_exact():
    t0 = time.perf_counter()
    trials = 100
    checked = []
    g2 = kernel_linear([[1, 0], [1, 1]], q=2)
    for n in (8, 32, 64):
        m = n.bit_length() - 1
        spec = _rate_half(m)
        rng = np.random.default_rng(300 + n)

        for arch, kw in (
            ("sc_pipeline", {}),
            ("sc_line", {}),
            ("sc_limited", {"i_param": 2}),
        ):
            for _ in range(trials):
                llr = rng.normal(0, 2, n)
                ref = decode_sc_arikan(spec, llr)
                run = run_sc(spec, llr, arch=arch, **kw)
                assert np.array_equal(run.u_hat, ref.u_hat), (arch, n)
                assert np.array_equal(run.x_hat, ref.x_hat), (arch, n)
            checked.append(f"{arch}@{n}")

        # interleaved codewords: 34 runs of 3 words covers 102 decodes
        for _ in range(34):
            words = [rng.normal(0, 2, n) for _ in range(3)]
            run = run_sc_multi(spec, words)
            for (u_hat, x_hat), llr in zip(run.results, words):
                ref = decode_sc_arikan(spec, llr)
                assert np.array_equal(u_hat, ref.u_hat), ("sc_multi", n)
                assert np.array_equal(x_hat, ref.x_hat), ("sc_multi", n)
        checked.append(f"sc_multi@{n}")

        for _ in range(trials):
            llr = rng.normal(0, 2, n)
            run = run_bp_line(spec, llr, iterations=3)
            ref = bp_decode(spec, llr, max_iters=3, stop="none")
            assert np.array_equal(run.u_hat, ref.u_hat), ("bp_line", n)
            assert np.array_equal(run.x_hat, ref.x_hat), ("bp_line", n)
        checked.append(f"bp_line@{n}")

        gl_spec = CodeSpec(g2, m, spec.frozen)
        for _ in range(trials):
            rows = likelihood_rows_binary(rng.normal(0, 2, n))
            run = run_general_line(gl_spec, rows)
            ref = decode_sc_general(gl_spec, rows)
            assert np.array_equal(run.u_hat, ref.u_hat), ("general_line", n)
            assert np.array_equal(run.x_hat, ref.x_hat), ("general_line", n)
        checked.append(f"general_line@{n}")
    dt = time.perf_counter() - t0
    _report(
        "criterion 3",
        dt < 300.0,
        f"every architecture bit-exact against its software decoder, "
        f">=100 trials per cell ({len(checked)} cells, N in 8/32/64), {dt:.1f}s",
    )


# 4. belief-propagation invariants ----------------------------------------------


def test_criterion4_bp_invariants():
    t0 = time.perf_counter()
    closed = {0.0, math.inf, -math.inf}

    # (a) erasure evidence keeps every message in {0, +-inf}
    spec = _rate_half(6)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u = spec.assemble(rng.integers(0, 2, spec.k_info))
        x = encode(spec, u)
        llr = np.array([v if rng.random() > 0.45 else 0.0 for v in np.where(x == 0, np.inf, -np.inf)])
        st = bp_state(spec)
        for _ in range(4):
            seen = set()
            bp_iteration(st, llr[None], tick=message_values(seen))
            assert seen <= closed
            for d in range(st.m):
                assert set(st.mu_v[d].ravel().tolist()) <= closed
            assert set(st.u_msg.ravel().tolist()) <= closed
            assert set(st.x_out.ravel().tolist()) <= closed

    # (b) only the v-side messages persist: poisoning all other storage
    # between iterations changes nothing
    spec32 = _rate_half(5)
    llr = np.random.default_rng(41).normal(0, 2, 32)[None]
    st_a, st_b = bp_state(spec32), bp_state(spec32)
    for _ in range(5):
        bp_iteration(st_a, llr)
        bp_iteration(st_b, llr)
        for d in range(5):
            assert np.array_equal(st_a.mu_v[d], st_b.mu_v[d])
        assert np.array_equal(st_a.u_msg, st_b.u_msg)
        assert np.array_equal(st_a.x_out, st_b.x_out)
        st_b.scrub_transients()

    # (c) update-count audit: the base layer does 6 per butterfly, every
    # other layer 7 (the check-side message is recomputed after the second
    # child, which is the doubled update)
    for m in range(1, 8):
        spec_m = CodeSpec(kernel_arikan(), m, {})
        n = spec_m.n
        st = bp_state(spec_m)
        bp_iteration(st, np.zeros((1, n)))
        assert st.message_updates == (n // 2) * (7 * (m - 1) + 6), m
    dt = time.perf_counter() - t0
    _report(
        "criterion 4",
        dt < 60.0,
        "erasure closure over {0, +-inf}, v-message-only persistence under "
        f"scrubbing, and the N/2*(7(m-1)+6) update audit for m in 1..7, {dt:.1f}s",
    )


# 5. statistical behavior --------------------------------------------------------


def _sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def test_criterion5_statistics():
    t0 = time.perf_counter()
    jobs = 4

    # (a) BP beats or matches SC bit error rate on a matched-erasure code
    spec64 = construct_bec(6, 0.4, 0.5)
    n_tr = 20000
    sc_a = run_trials(spec64, bec(0.4), "sc", n_tr, seed=11, jobs=jobs)
    bp_a = run_trials(spec64, bec(0.4), "bp", n_tr, seed=11, jobs=jobs)
    nbits = n_tr * spec64.k_info
    band_a = 3.0 * math.hypot(_sigma(sc_a.ber, nbits), _sigma(bp_a.ber, nbits))
    ok_a = bp_a.ber <= sc_a.ber + band_a

    # (b) list-8 frame error rate at or below plain SC on a bit-flip channel
    spec128 = construct_bec(7, 0.5, 0.5)
    n_fr = 10000
    sc_b = run_trials(spec128, bsc(0.08), "sc", n_fr, seed=12, jobs=jobs)
    scl_b = run_trials(spec128, bsc(0.08), "scl", n_fr, seed=12, list_size=8, jobs=jobs)
    band_b = 3.0 * math.hypot(_sigma(sc_b.fer, n_fr), _sigma(scl_b.fer, n_fr))
    ok_b = scl_b.fer <= sc_b.fer + band_b

    # (c) frame error rate rises with the erasure probability
    fers = []
    n_mono = 6000
    for eps in (0.3, 0.4, 0.5):
        st = run_trials(spec64, bec(eps), "sc", n_mono, seed=13, jobs=jobs)
        fers.append(st.fer)
    ok_c = all(
        lo <= hi + 3.0 * math.hypot(_sigma(lo, n_mono), _sigma(hi, n_mono))
        for lo, hi in zip(fers, fers[1:])
    )
    dt = time.perf_counter() - t0
    _report(
        "criterion 5",
        ok_a and ok_b and ok_c and dt < 600.0,
        f"BP ber {bp_a.ber:.4f} <= SC {sc_a.ber:.4f} (+{band_a:.4f}) on erasure 0.4 @ N=64/{n_tr}; "
        f"list-8 fer {scl_b.fer:.4f} <= SC {sc_b.fer:.4f} (+{band_b:.4f}) on flip 0.08 @ N=128/{n_fr}; "
        f"SC fer monotone {fers[0]:.3f} <= {fers[1]:.3f} <= {fers[2]:.3f}, {dt:.0f}s",
    )


# 6. encoding identities ----------------------------------------------------------


def test_criterion6_encoding_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)

    matrix_cells = 0
    cases = [(2, 2, 4), (2, 3, 3), (2, 4, 2), (3, 2, 3), (4, 2, 2), (5, 2, 2)]
    for q, ell, m in cases:
        a = alphabet(q)
        while True:
            G = rng.integers(0, q, (ell, ell))
            try:
                kern = kernel_linear(G, q=q)
                break
            except ValueError:
                continue
        spec = CodeSpec(kern, m, {})
        gmat = encode_matrix(spec)
        for _ in range(100):
            u = rng.integers(0, q, spec.n)
            assert np.array_equal(encode(spec, u), a.matvec(u, gmat)), (q, ell, m)
        matrix_cells += 1

    # bijectivity re-checked by independent enumeration at the table limit
    bij_cells = 0
    for q, ell in ((2, 12), (4, 6), (8, 4), (16, 3)):
        a = alphabet(q)
        while True:
            G = rng.integers(0, q, (ell, ell))
            try:
                kern = kernel_linear(G, q=q)
                break
            except ValueError:
                continue
        assert q**ell <= 4096
        radix = q ** np.arange(ell - 1, -1, -1, dtype=np.int64)
        packed = kern.table @ radix
        assert len(set(packed.tolist())) == q**ell, (q, ell)
        bij_cells += 1
    dt = time.perf_counter() - t0
    _report(
        "criterion 6",
        dt < 60.0,
        f"encode == generator-matrix product on {matrix_cells} kernel/depth cells "
        f"x 100 random words; bijectivity exhaustive at q^ell = 4096 "
        f"({bij_cells} alphabets), {dt:.1f}s",
    )


# 7. list-decoder complexity shape ------------------------------------------------


def test_criterion7_complexity_shape():
    t0 = time.perf_counter()
    ratios = {}
    for n in (64, 128, 256):
        m = n.bit_length() - 1
        spec = construct_bec(m, 0.5, 0.75)
        rng = np.random.default_rng(700 + n)
        for M in (1, 4, 8):
            ops = [
                decode_scl(spec, likelihood_rows_binary(rng.normal(0, 2, n)), M).ops for _ in range(2)
            ]
            assert ops[0] == ops[1]  # work depends on the code and M only
            ratios[(n, M)] = ops[0] / (M * n * m)
    spread = max(ratios.values()) / min(ratios.values())
    dt = time.perf_counter() - t0
    _report(
        "criterion 7",
        spread <= 1.5 and dt < 60.0,
        f"ops / (M N log2 N) spans x{spread:.3f} (<= x1.5) over N in 64/128/256, "
        f"M in 1/4/8 at rate 3/4, {dt:.1f}s",
    )
