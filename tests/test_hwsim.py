import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarbench.channels import bec, likelihood_rows_binary
from polarbench.construction import construct_bec
from polarbench.hwsim import (
    SC_ARCHS,
    CycleReport,
    check_formulas,
    formulas_bp_line,
    formulas_general_line,
    formulas_sc_limited,
    formulas_sc_line,
    formulas_sc_multi,
    formulas_sc_pipeline,
    general_line_true_cycles,
    run_bp_line,
    run_general_line,
    run_sc,
    run_sc_multi,
)
from polarbench.bp import bp_decode, bp_state, bp_iteration, channel_llr
from polarbench.hwsim.general_line import _GeneralLineEngine
from polarbench.kernels import CodeSpec, Kernel, kernel_arikan, kernel_linear
from polarbench.hwsim.sc_arch import PartialSumMismatch, _contention, _ScEngine
from polarbench.llrops import LlrContradiction
from polarbench.montecarlo import decode_frame, draw_frames
from polarbench.sc import decode_sc_arikan, decode_sc_general

from conftest import G4, random_llr

ARIKAN = kernel_arikan()


def _spec(m, n_frozen):
    return CodeSpec(kernel=ARIKAN, m=m, frozen={i: 0 for i in range(n_frozen)})


# SC architectures --------------------------------------------------------


@pytest.mark.parametrize("arch", SC_ARCHS)
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_sc_archs_bit_exact(arch, m, rng):
    spec = _spec(m, spec_n := 2 ** (m - 1))
    for _ in range(10):
        llr = random_llr(rng, spec.n)
        ref = decode_sc_arikan(spec, llr)
        run = run_sc(spec, llr, arch=arch)
        assert np.array_equal(run.u_hat, ref.u_hat), arch
        assert np.array_equal(run.x_hat, ref.x_hat), arch


def test_sc_pipeline_counts(rng):
    spec = _spec(3, 4)
    run = run_sc(spec, random_llr(rng, 8), arch="sc_pipeline")
    rep = run.report
    assert rep.cycles == 14  # 2N - 2
    assert rep.pe_count == 7  # N - 1
    assert rep.llr_regs == 14  # 2N - 2
    assert check_formulas(rep) == []


def test_sc_line_counts(rng):
    spec = _spec(4, 8)
    run = run_sc(spec, random_llr(rng, 16), arch="sc_line")
    rep = run.report
    assert rep.cycles == 30
    assert rep.pe_count == 8  # N/2
    assert rep.llr_regs == 15  # N - 1
    assert rep.ps_flops == 14  # N - 2
    assert check_formulas(rep) == []


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_sc_limited_counts(i, rng):
    spec = _spec(5, 16)
    run = run_sc(spec, random_llr(rng, 32), arch="sc_limited", i_param=i)
    rep = run.report
    assert rep.cycles == 2 * 32 + (i - 2) * 2**i
    assert rep.pe_count == 32 // 2**i
    assert rep.extra["i"] == i
    assert check_formulas(rep) == []


def test_sc_limited_i1_matches_line(rng):
    # i = 1 is the full line: same latency, same PE count
    spec = _spec(4, 8)
    llr = random_llr(rng, 16)
    line = run_sc(spec, llr, arch="sc_line")
    lim = run_sc(spec, llr, arch="sc_limited", i_param=1)
    assert lim.report.cycles == line.report.cycles
    assert lim.report.pe_count == line.report.pe_count


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
def test_formula_sweep_small(n):
    m = n.bit_length() - 1
    spec = _spec(m, n // 2)
    llr = random_llr(np.random.default_rng(n), n)
    for arch in SC_ARCHS:
        if arch == "sc_limited":
            for i in range(1, m + 1):
                rep = run_sc(spec, llr, arch=arch, i_param=i).report
                assert check_formulas(rep) == [], (arch, n, i)
        else:
            rep = run_sc(spec, llr, arch=arch).report
            assert check_formulas(rep) == [], (arch, n)


def test_sc_min_sum_variant(rng):
    spec = _spec(4, 8)
    llr = random_llr(rng, 16)
    ref = decode_sc_arikan(spec, llr, min_sum=True)
    run = run_sc(spec, llr, arch="sc_line", min_sum=True)
    assert np.array_equal(run.u_hat, ref.u_hat)


def test_sc_trace_format(rng):
    spec = _spec(2, 2)
    run = run_sc(spec, random_llr(rng, 4), arch="sc_line", trace=True)
    text = run.trace.to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "cycle,unit,op,inputs,outputs"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2].startswith(("f", "g"))


@pytest.mark.parametrize("arch", ["sc_line", "sc_limited"])
def test_sc_line_bank_corruption_raises(arch, rng):
    # the flip-flop banks are updated from the leaf decisions alone; one
    # flipped bit must be caught where the bank meets the re-encoded half
    spec = _spec(4, 8)
    llr = random_llr(rng, 16)
    eng = _ScEngine(spec, arch, i_param=2)
    decode_sc_arikan(spec, llr, hook=eng)  # clean run: banks agree at every STEP III
    eng = _ScEngine(spec, arch, i_param=2)
    decide = eng.decide

    def corrupting_decide(off, u, llr):
        decide(off, u, llr)
        if off == 8:  # inside the right half: depth 1 bank is open
            eng.banks[1][0] ^= 1

    eng.decide = corrupting_decide
    with pytest.raises(PartialSumMismatch):
        decode_sc_arikan(spec, llr, hook=eng)


def test_report_text_format(rng):
    spec = _spec(3, 4)
    run = run_sc(spec, random_llr(rng, 8), arch="sc_pipeline")
    text = run.report.to_text()
    assert "arch=sc_pipeline" in text
    assert "n=8" in text
    assert "cycles=14" in text


def test_sc_arch_validation(rng):
    spec = _spec(2, 2)
    with pytest.raises(ValueError):
        run_sc(spec, np.zeros(4), arch="bogus")
    k4 = kernel_linear(G4, q=2)
    with pytest.raises(ValueError):
        run_sc(CodeSpec(kernel=k4, m=1, frozen={}), np.zeros(4))


# multi-codeword line ------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 7])
def test_sc_multi_bit_exact_and_counts(p, rng):
    spec = _spec(3, 4)
    words = [random_llr(rng, 8) for _ in range(p)]
    if p == 7:
        words[5][:] = 0.0  # ties
        words[6][::3] = np.nan
    for min_sum in (False, True):
        run = run_sc_multi(spec, words, min_sum=min_sum)
        rep = run.report
        assert rep.codewords == p
        assert rep.cycles == 2 * 8 - 2 + (p - 1)
        assert rep.contention == 0
        assert check_formulas(rep) == []
        assert len(run.results) == p
        for (u_hat, x_hat), llr in zip(run.results, words):
            assert u_hat.shape == x_hat.shape == (8,)
            # the batched walk gives each codeword its single-frame decisions
            hw = run_sc(spec, llr, arch="sc_pipeline", min_sum=min_sum)
            assert np.array_equal(u_hat, hw.u_hat), min_sum
            assert np.array_equal(x_hat, hw.x_hat), min_sum
            ref = decode_sc_arikan(spec, llr, min_sum=min_sum)
            assert np.array_equal(u_hat, ref.u_hat), min_sum
            assert np.array_equal(x_hat, ref.x_hat), min_sum


def _contradicting_word():
    # fully known evidence for a weight-1 word, which _spec(3, 4) excludes
    return np.array([-np.inf] + [np.inf] * 7)


def test_sc_multi_checks_every_length_before_decoding(rng):
    spec = _spec(3, 4)
    # codeword 0 would raise LlrContradiction if it were decoded first
    words = [_contradicting_word(), random_llr(rng, 8), random_llr(rng, 7)]
    with pytest.raises(ValueError):
        run_sc_multi(spec, words)


def test_sc_multi_contradiction_raises(rng):
    spec = _spec(3, 4)
    for pos in (0, 2):
        words = [random_llr(rng, 8) for _ in range(4)]
        words[pos] = _contradicting_word()
        with pytest.raises(LlrContradiction):
            run_sc_multi(spec, words)


@pytest.mark.parametrize("arch", ["sc_pipeline", "sc_line", "sc_limited"])
def test_sc_engine_contradiction_raises_after_the_walk(arch):
    # the decoder walks a contradicting frame to its end under the engine,
    # whose banks stay true to the decisions, and then raises
    spec = _spec(4, 8)
    llr = np.array([-np.inf] + [np.inf] * 15)  # a weight-1 word, which u0 = 0 excludes
    with pytest.raises(LlrContradiction):
        run_sc(spec, llr, arch=arch, i_param=2)


def test_sc_engines_match_the_erasure_lane_decode():
    # an unobserved lane decode walks erasure evidence on trits, the engines
    # walk it on the float LLRs they observe; on every frame that does not
    # contradict itself, all give the same words
    spec = construct_bec(6, 0.4, 0.5)
    u, lam = draw_frames(spec, bec(0.4), 24, np.random.default_rng(14))
    assert ((lam == 0) | np.isinf(lam)).all()
    u_hat, failed = decode_frame(spec, "sc", lam)
    lane = decode_sc_arikan(spec, lam)
    assert np.array_equal(lane.u_hat, u_hat) and np.array_equal(lane.failed, failed)
    keep = np.flatnonzero(~failed)
    assert 0 < len(keep) < len(lam)
    for b in keep:
        for arch in SC_ARCHS:
            run = run_sc(spec, lam[b], arch=arch, i_param=2)
            assert np.array_equal(run.u_hat, u_hat[b]), (arch, b)
            assert np.array_equal(run.x_hat, lane.x_hat[b]), (arch, b)
    multi = run_sc_multi(spec, list(lam[keep]))
    for (u_b, x_b), b in zip(multi.results, keep):
        assert np.array_equal(u_b, u_hat[b]), b
        assert np.array_equal(x_b, lane.x_hat[b]), b


def test_general_line_contradiction_raises_after_the_walk(rng):
    spec = CodeSpec(kernel_linear(G4), 2, {0: 0, 5: 1})
    rows = rng.random((16, 2))
    rows[9] = 0.0  # evidence ruling out both symbols
    with pytest.raises(LlrContradiction):
        run_general_line(spec, rows)


def test_sc_multi_instances_per_depth(rng):
    # 2^d PE instances serve depth d; N-1 instances in total
    spec = _spec(4, 8)
    words = [random_llr(rng, 16) for _ in range(15)]
    rep = run_sc_multi(spec, words).report
    for d in range(4):
        assert rep.extra[f"instances_d{d}"] == 2**d
    assert sum(rep.extra[f"instances_d{d}"] for d in range(4)) == 15
    # p + m*N/2 processing elements
    assert rep.pe_count == 15 + 4 * 8


def test_sc_multi_contention_free_at_max_load(rng):
    spec = _spec(5, 16)
    words = [random_llr(rng, 32) for _ in range(31)]
    rep = run_sc_multi(spec, words).report
    assert rep.contention == 0
    assert rep.cycles == 2 * 32 - 2 + 30


def _dense_contention(inst_ids, cycles, p):
    # the instances x absolute cycles firing grid, every slot counted
    grid = np.zeros((inst_ids.max() + 1, cycles.max() + p), dtype=np.int64)
    for c in range(p):
        np.add.at(grid, (inst_ids, cycles + c), 1)
    return int((grid > 1).sum())


def test_sc_multi_contention_count_matches_dense_grid(rng):
    # run_sc_multi's own schedules never collide, so the count is checked
    # on colliding ones: the pipeline schedule with instances keyed by
    # (depth, cycle mod r) for r < N - 1, and random schedules on three
    # instances, against the dense firing grid
    spec = _spec(4, 8)
    eng = _ScEngine(spec, "sc_pipeline")
    decode_sc_arikan(spec, random_llr(rng, 16), hook=eng)
    depths, cycles = map(np.array, zip(*eng.sched))
    counts = set()
    for r in (1, 2, 5, 15):
        inst_ids = depths * r + cycles % r
        for p in (1, 2, 7, 15):
            got = _contention(inst_ids, cycles, p, int(cycles.max()) + p)
            assert got == _dense_contention(inst_ids, cycles, p), (r, p)
            counts.add(got)
    assert 0 in counts and len(counts) > 3
    for _ in range(50):
        cycles = np.sort(rng.choice(40, size=int(rng.integers(1, 20)), replace=False))
        inst_ids = rng.integers(0, 3, len(cycles))
        p = int(rng.integers(1, 9))
        got = _contention(inst_ids, cycles, p, int(cycles.max()) + p)
        assert got == _dense_contention(inst_ids, cycles, p)
    # one instance fired at cycles 0 and 1 by two codewords: slot 1 twice
    assert _contention(np.array([0, 0]), np.array([0, 1]), 2, 3) == 1


def test_sc_multi_rejects_bad_p(rng):
    spec = _spec(3, 4)
    with pytest.raises(ValueError):
        run_sc_multi(spec, [])
    with pytest.raises(ValueError):
        run_sc_multi(spec, [random_llr(rng, 8) for _ in range(8)])  # p > N-1


# BP line -------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_bp_line_cycles(m, rng):
    n = 2**m
    spec = _spec(m, n // 2)
    iters = 3
    run = run_bp_line(spec, random_llr(rng, n), iterations=iters)
    rep = run.report
    assert rep.extra["cycles_per_iteration"] == (11 * n - 14) // 2
    assert rep.cycles == iters * (11 * n - 14) // 2
    assert rep.mem_cells == (n // 2) * m
    assert rep.units == m
    assert check_formulas(rep) == []


def test_bp_line_matches_software(rng):
    spec = _spec(4, 8)
    llr = random_llr(rng, 16)
    run = run_bp_line(spec, llr, iterations=4)
    ref = bp_decode(spec, llr, max_iters=4, stop="none")
    assert np.array_equal(run.u_hat, ref.u_hat)
    assert np.array_equal(run.x_hat, ref.x_hat)
    assert run.report.iterations == 4
    assert run.contradiction == ref.contradiction


def test_bp_line_internal_state_matches_software(rng):
    # after each sweep the engine's persistent memory equals the software
    # decoder's, element for element
    spec = _spec(3, 4)
    llr = random_llr(rng, 8)
    run = run_bp_line(spec, llr, iterations=5)
    st = bp_state(spec)
    lam = np.where(np.isfinite(llr), np.clip(llr, -40, 40), llr)[None]
    for _ in range(5):
        bp_iteration(st, lam)
    for d in range(3):
        assert np.array_equal(run.state.mu_v[d], st.mu_v[d])
    assert np.array_equal(run.state.u_msg, st.u_msg)


@pytest.mark.parametrize("min_sum", [False, True])
def test_bp_line_matches_level_passes_on_bec_code(min_sum, rng):
    # construct_bec's frozen set holds wide rate-0 and rate-1 subtrees: the
    # software sweep runs them as level passes, the line model walks every
    # node, and both leave the same state after each iteration
    spec = construct_bec(8, 0.5, 0.5)
    llr = random_llr(rng, spec.n)
    st = bp_state(spec, min_sum=min_sum)
    for iters in (1, 2, 3):
        run = run_bp_line(spec, llr, iterations=iters, min_sum=min_sum)
        ref = bp_decode(spec, llr, max_iters=iters, stop="none", min_sum=min_sum)
        assert np.array_equal(run.u_hat, ref.u_hat), iters
        assert np.array_equal(run.x_hat, ref.x_hat), iters
        assert run.contradiction == ref.contradiction, iters
        bp_iteration(st, channel_llr(spec, llr)[None])
        for got, want in zip((run.state.u_msg, run.state.x_out, *run.state.mu_v), (st.u_msg, st.x_out, *st.mu_v)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), iters


def test_bp_line_message_audit(rng):
    spec = _spec(3, 4)
    run = run_bp_line(spec, random_llr(rng, 8), iterations=2)
    n, m = 8, 3
    assert run.state.message_updates == 2 * (n // 2) * (7 * (m - 1) + 6)


def test_bp_line_trace_units(rng):
    spec = _spec(2, 2)
    run = run_bp_line(spec, random_llr(rng, 4), iterations=1, trace=True)
    units = {row[1] for row in run.trace.rows}
    # one physical unit per level, tagged with the realization it serves
    assert all(u.startswith("u0") or u.startswith("u1") for u in units)


# general line ---------------------------------------------------------------


def _gl_spec(ell, m, q=2, G=None):
    if G is None:
        G = [[1, 0], [1, 1]] if ell == 2 else G4
    k = kernel_linear(G, q=q)
    n = ell**m
    return CodeSpec(kernel=k, m=m, frozen={i: 0 for i in range(n // 2)})


@pytest.mark.parametrize("ell,m", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2)])
def test_general_line_bit_exact(ell, m, rng):
    spec = _gl_spec(ell, m)
    for _ in range(5):
        rows = likelihood_rows_binary(random_llr(rng, spec.n))
        ref = decode_sc_general(spec, rows)
        run = run_general_line(spec, rows)
        assert np.array_equal(run.u_hat, ref.u_hat)
        assert np.array_equal(run.x_hat, ref.x_hat)


def test_general_line_gf4(rng):
    k = kernel_linear([[1, 0], [1, 1]], q=4)
    spec = CodeSpec(kernel=k, m=2, frozen={0: 0, 1: 0})
    for _ in range(5):
        rows = rng.random((4, 4)) + 0.01
        ref = decode_sc_general(spec, rows)
        run = run_general_line(spec, rows)
        assert np.array_equal(run.u_hat, ref.u_hat)


def test_general_line_true_cycles():
    # the dependency-faithful schedule costs ell*(N-1)/(ell-1) cycles
    for ell, m in [(2, 1), (2, 2), (2, 5), (4, 1), (4, 3)]:
        n = ell**m
        rng = np.random.default_rng(n + ell)
        spec = _gl_spec(ell, m)
        q = spec.kernel.q
        rows = rng.random((n, q)) + 0.01
        run = run_general_line(spec, rows)
        assert run.report.cycles == general_line_true_cycles(ell, m)
        assert run.report.pe_count == n // ell
        assert run.report.llr_regs == (n - ell) // (ell - 1)


def test_general_line_formula_agreement_shallow_only():
    # the closed form tracks the schedule up to two levels and then
    # undercounts; the mismatch pattern is part of the contract
    for ell in (2, 4):
        for m in (1, 2):
            assert formulas_general_line(ell, m)["cycles"] == general_line_true_cycles(
                ell, m
            ), (ell, m)
        for m in (3, 4):
            assert formulas_general_line(ell, m)["cycles"] < general_line_true_cycles(
                ell, m
            ), (ell, m)


def test_general_line_mismatch_reported(rng):
    spec = _gl_spec(2, 3)
    rows = likelihood_rows_binary(random_llr(rng, 8))
    rep = run_general_line(spec, rows).report
    lines = check_formulas(rep)
    assert len(lines) == 1
    assert lines[0].startswith("cycles: counted 14, formula 12")


def test_check_formulas_needs_a_closed_form():
    # the model that made a report stores its closed form there; a report
    # built without one has nothing to be checked against
    with pytest.raises(ValueError, match="no closed forms for arch 'sc_line'"):
        check_formulas(CycleReport(arch="sc_line", n=8, cycles=14))


def test_general_line_rejects_unsupported():
    glue_k = kernel_linear(G4, q=2, glue=[(0, 1), (2,), (3,)])
    spec = CodeSpec(kernel=glue_k, m=2, frozen={})
    from polarbench.sc import UnsupportedCodeError

    with pytest.raises(UnsupportedCodeError):
        run_general_line(spec, np.ones((16, 2)))


def test_general_line_validation(rng):
    spec = _gl_spec(2, 2)
    with pytest.raises(ValueError):
        run_general_line(spec, np.ones((3, 2)))
    with pytest.raises(ValueError):
        run_general_line(spec, -np.ones((4, 2)))
    for bad in (np.nan, np.inf):
        rows = np.ones((4, 2))
        rows[2, 0] = bad
        with pytest.raises(ValueError, match="position 2"):
            run_general_line(spec, rows)


def test_general_line_accumulators_checked_at_every_node():
    spec = _gl_spec(2, 3)
    rows = likelihood_rows_binary(np.full(8, -3.0))  # every free decision is 1
    # a generator that disagrees with the kernel table trips the base check
    k = spec.kernel
    skew = Kernel(ell=2, alph=k.alph, table=k.table, generator=np.array([[1, 1], [0, 1]]))
    with pytest.raises(PartialSumMismatch, match="base"):
        run_general_line(CodeSpec(skew, 3, spec.frozen), rows)

    # a re-encoded codeword that disagrees with its outer codewords trips the
    # check of that node
    class Corrupt:
        def __init__(self, width):
            self.eng = _GeneralLineEngine(spec, False)
            self.prep, self.decide = self.eng.prep, self.eng.decide
            self.width = width

        def node(self, off, x):
            self.eng.node(off, x ^ 1 if len(x) == self.width else x)

    for width, depth in ((4, 1), (8, 0)):
        with pytest.raises(PartialSumMismatch, match=f"depth {depth}"):
            decode_sc_general(spec, rows, hook=Corrupt(width))


# closed forms directly -------------------------------------------------------


def test_formula_values_spot():
    assert formulas_sc_pipeline(8) == {"cycles": 14, "pe_count": 7, "llr_regs": 14}
    assert formulas_sc_line(8) == {
        "cycles": 14,
        "pe_count": 4,
        "llr_regs": 7,
        "ps_flops": 6,
    }
    assert formulas_sc_limited(64, 4) == {"cycles": 160, "pe_count": 4}
    assert formulas_sc_multi(8, 7) == {"cycles": 20}
    bp4 = formulas_bp_line(4, iterations=1)
    assert bp4["cycles_per_iteration"] == 15
    assert formulas_general_line(2, 2)["cycles"] == 6
    assert general_line_true_cycles(2, 3) == 14


def test_formula_report_script_runs():
    # the table README's formula-gap section points to; its one mismatch
    # is the general-line N = 8 cell
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(root / "scripts" / "hw_formula_report.py"), "--max-m", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "22 cells, 1 with formula mismatch"
    bad = [line for line in done.stdout.splitlines() if "undercounts" in line]
    assert len(bad) == 1 and bad[0].startswith("general-line ell=2") and bad[0].split()[2] == "8"
