"""The benchmark's workloads, their traced rebuilds and the correctness gate.

Every workload is closed-loop and single-process: one frame after another,
jobs=1, no pool. It reaches polarbench only through public entry points of
montecarlo, kernels, channels, sc, scl, bp, construction and hwsim, and
times them from here.

Each workload's `measure` returns:
  timing   the untraced rounds: codewords, seconds, calibration seconds
  layers   in traced runs, the per-layer metrics every workload reports
  detail   the workload's own layer table, as (name, value, unit, note)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from polarbench import hwsim
from polarbench.bp import bp_decode
from polarbench.channels import (
    ChannelModel,
    DegenerateEvidenceError,
    likelihood_rows_binary,
    transmit,
)
from polarbench.construction import construct_bec
from polarbench.kernels import CodeSpec, encode, kernel_linear
from polarbench.llrops import LlrContradiction
from polarbench.montecarlo import LANE_SIZE, run_trials
from polarbench.sc import decode_sc_arikan, decode_sc_general
from polarbench.scl import decode_scl

from tracing import Tracer, quantile

perf = time.perf_counter

DEFAULT_SEED = 0
# calibration task length, and its usual time in seconds when uncontended on
# a 2-vCPU 2.0 GHz Xeon virtual machine; the constant only sets the scale of
# calibrated seconds, and comparisons between commits do not depend on it
CALIB_STEPS = 8000
CALIB_REF_S = 0.040
# calibration keeps pace with the timed work: at least this share of its time
CALIB_SHARE = 0.12
# warm-up inputs are fixed so that set-up time does not depend on --seed
WARM_SEED = 99
WARM_FRAMES = 4

# (trials, bit errors, frame errors, decode failures) of round 0 on the
# default seed; a change that moves any of these changed a decision bit
GOLDEN = {
    "sc-bec64": (128, 570, 30, 13),
    "scl-bsc128": (32, 171, 8, 0),
    "bp-awgn128": (16, 60, 3, 0),
}

# binary length-4 kernel of the general-line model (two nested butterflies)
G4 = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]


def round_seed(seed: int, r: int) -> int:
    """run_trials seed of round r; distinct rounds and seeds never share lanes."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


class Gate:
    """Correctness checks of one run; fail_ratio = failed / attempted."""

    def __init__(self):
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.checks)


def check_golden(gate: Gate, name: str, tally: tuple, golden=GOLDEN) -> bool:
    want = golden[name]
    return gate.check(f"{name}.golden", tuple(tally) == tuple(want), f"got {tuple(tally)}, committed {want}")


def calibrate(steps: int = CALIB_STEPS) -> float:
    """Seconds taken by a fixed interpreter-bound task that uses no polarbench code.

    Its mix of small numpy calls and Python arithmetic slows down with the
    decoders when the shared cores are busy, so its time tracks the host's
    speed at the moment.
    """
    t0 = perf()
    a = np.linspace(-1.0, 1.0, 32)
    acc = 0.0
    for i in range(steps):
        b = np.where(a > 0.0, a, -a) + i
        acc += float(b[3]) + sum(j * i for j in range(8)) * 1e-12
    return perf() - t0


def slowdown(calib_s: list[float]) -> float:
    """Host seconds per calibrated second: mean calibration time / CALIB_REF_S."""
    return sum(calib_s) / len(calib_s) / CALIB_REF_S


@dataclass
class Timing:
    """Timed rounds of one run, interleaved with calibrations."""

    frames: list[int] = field(default_factory=list)
    work_s: list[float] = field(default_factory=list)
    calib_s: list[float] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        return slowdown(self.calib_s)

    @property
    def frames_per_s(self) -> float:
        """Codewords per host (wall-clock) second of the timed phase."""
        return sum(self.frames) / sum(self.work_s)

    @property
    def frames_per_cal_s(self) -> float:
        """Codewords per calibrated second: wall-clock seconds / slowdown."""
        return self.frames_per_s * self.slowdown


def timed_rounds(run_round, budget: float):
    """Run rounds 0, 1, ... until budget seconds have passed, at least one.

    run_round(r) returns (result, frames, seconds of its timed section).
    Before each round, calibration runs at least once, and until it has
    taken CALIB_SHARE of the timed work so far, so long rounds are
    sampled as densely as short ones.
    """
    outs, timing = [], Timing()
    start = perf()
    while not outs or perf() - start < budget:
        timing.calib_s.append(calibrate())
        while sum(timing.calib_s) < CALIB_SHARE * sum(timing.work_s):
            timing.calib_s.append(calibrate())
        out, frames, took = run_round(len(outs))
        outs.append(out)
        timing.frames.append(frames)
        timing.work_s.append(took)
    return outs, timing


def trace_overhead(timing: Timing, rounds: int, traced_s: float, traced_calib_s: list[float]) -> float:
    """1 - traced / untraced frames per calibrated second, over the same rounds."""
    untraced = sum(timing.work_s[:rounds]) / timing.slowdown
    return 1.0 - untraced / (traced_s / slowdown(traced_calib_s))


def _ms_stats(tr: Tracer, span: str) -> tuple[float, float, int]:
    d = tr.durations(span)
    return 1e3 * quantile(d, 0.5), 1e3 * quantile(d, 0.99), len(d)


def _common_layers(tr: Tracer, frames: int, loop_span: str, decode_span: str,
                   evidence_spans: tuple[str, ...], overhead: float) -> dict:
    own = tr.self_by_name()
    loop_wall = sum(tr.durations(loop_span))
    p50, p99, n = _ms_stats(tr, decode_span)
    evidence = sum(sum(tr.durations(s)) for s in evidence_spans)
    return {
        "frames": frames,
        "harness.ms_per_frame": 1e3 * own[loop_span] / frames,
        "evidence.ms_per_frame": 1e3 * evidence / frames,
        "decode.ms_p50": p50,
        "decode.ms_p99": p99,
        "decode.samples": n,
        "decode.self_share": own[decode_span] / loop_wall,
        "trace.overhead_ratio": overhead,
    }


# Monte-Carlo simulate workloads ----------------------------------------------


@dataclass
class Tally:
    trials: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    decode_failures: int = 0
    scl_ops: int = 0
    bp_iterations: int = 0
    bp_converged: int = 0
    bp_contradictions: int = 0

    def key(self) -> tuple[int, int, int, int]:
        return (self.trials, self.bit_errors, self.frame_errors, self.decode_failures)

    def add(self, other: "Tally") -> None:
        for k in self.__dataclass_fields__:
            setattr(self, k, getattr(self, k) + getattr(other, k))


@dataclass(frozen=True)
class Simulate:
    """`polarbench simulate` at rate 0.5 with jobs=1, timed inside run_trials."""

    name: str
    decoder: str
    m: int
    channel: tuple[str, float]
    construct_eps: float
    round_trials: int
    list_size: int = 8
    iters: int = 40

    def construct(self):
        return construct_bec(self.m, self.construct_eps, 0.5), ChannelModel(*self.channel)

    def warm_up(self, ctx) -> None:
        spec, ch = ctx
        self._run_trials(spec, ch, WARM_FRAMES, WARM_SEED)

    def _run_trials(self, spec, ch, trials: int, seed: int):
        return run_trials(spec, ch, self.decoder, trials, seed,
                          list_size=self.list_size, iters=self.iters)

    def rebuild(self, ctx, seed: int, tr: Tracer, first_frame: int = 0) -> Tally:
        """run_trials' frames rebuilt from public calls in run_lane's RNG order.

        One span per call, grouped by frame, with the lane as parent.
        """
        spec, ch = ctx
        k = spec.k_info
        info_idx = np.array(spec.info_indices(), dtype=np.int64)
        t = Tally()
        lane_idx, left = 0, self.round_trials
        while left > 0:
            count = min(LANE_SIZE, left)
            rng = np.random.default_rng([seed, lane_idx])
            lane = tr.open("montecarlo.lane", group=lane_idx)
            for _ in range(count):
                frame = first_frame + t.trials
                t0 = perf()
                u = spec.assemble(rng.integers(0, 2, k))
                t1 = perf()
                x = encode(spec, u)
                t2 = perf()
                lam = transmit(ch, x, rng)
                t3 = perf()
                tr.add("kernels.assemble", t0, t1, frame, lane)
                tr.add("kernels.encode", t1, t2, frame, lane)
                tr.add("channels.transmit", t2, t3, frame, lane)
                t.trials += 1
                res = self._decode(spec, lam, tr, frame, lane)
                if res is None:
                    t.frame_errors += 1
                    t.bit_errors += k
                    t.decode_failures += 1
                    continue
                if self.decoder == "scl":
                    t.scl_ops += res.ops
                elif self.decoder == "bp":
                    t.bp_iterations += res.iterations
                    t.bp_converged += res.converged
                    t.bp_contradictions += res.contradiction
                if k:
                    errs = int((res.u_hat[info_idx] != u[info_idx]).sum())
                    if errs:
                        t.frame_errors += 1
                        t.bit_errors += errs
            tr.close(lane)
            lane_idx += 1
            left -= count
        return t

    def _decode(self, spec, lam, tr: Tracer, frame: int, lane: int):
        t0 = perf()
        try:
            if self.decoder == "scl":
                rows = likelihood_rows_binary(lam)
                t1 = perf()
                tr.add("channels.likelihood_rows", t0, t1, frame, lane)
                t0 = t1
                res = decode_scl(spec, rows, self.list_size)
            elif self.decoder == "sc":
                res = decode_sc_arikan(spec, lam)
            else:
                res = bp_decode(spec, lam, max_iters=self.iters)
        except (LlrContradiction, DegenerateEvidenceError):
            res = None
        tr.add(f"{self.decoder}.decode", t0, perf(), frame, lane)
        return res

    def _check_round(self, gate: Gate, r: int, stats, tally: Tally) -> None:
        got = (stats.trials, stats.bit_errors, stats.frame_errors)
        gate.check(f"{self.name}.round{r}.rebuild", got == tally.key()[:3],
                   f"run_trials {got}, rebuild {tally.key()[:3]}")

    def measure(self, ctx, seed: int, seconds: float, tr: Tracer | None, gate: Gate):
        budget = seconds / 2 if tr is not None else seconds
        spec, ch = ctx

        def run_round(r):
            s = round_seed(seed, r)
            t0 = perf()
            stats = self._run_trials(spec, ch, self.round_trials, s)
            return stats, stats.trials, perf() - t0

        rounds, timing = timed_rounds(run_round, budget)

        total = Tally()
        traced_s = 0.0
        traced_calib = []
        start = perf()
        for r, stats in enumerate(rounds):
            if r and (tr is None or perf() - start >= budget):
                break
            if tr is not None:
                traced_calib.append(calibrate())
            t0 = perf()
            tally = self.rebuild(ctx, round_seed(seed, r), tr or Tracer(), r * self.round_trials)
            traced_s += perf() - t0
            self._check_round(gate, r, stats, tally)
            if r == 0 and seed == DEFAULT_SEED:
                check_golden(gate, self.name, tally.key())
            total.add(tally)

        detail = [
            ("montecarlo.rounds", len(rounds), "count", f"{self.round_trials} trials each"),
            ("montecarlo.frames", total.trials, "count", "rebuilt, exact"),
            ("montecarlo.frame_errors", total.frame_errors, "count", "exact"),
            ("montecarlo.bit_errors", total.bit_errors, "count", "exact"),
            ("montecarlo.decode_failures", total.decode_failures, "count", "exact"),
        ]
        if tr is None:
            return timing, None, detail
        overhead = trace_overhead(timing, total.trials // self.round_trials, traced_s, traced_calib)
        dec = f"{self.decoder}.decode"
        layers = _common_layers(
            tr, total.trials, "montecarlo.lane", dec,
            ("kernels.assemble", "kernels.encode", "channels.transmit", "channels.likelihood_rows"),
            overhead)
        detail.append(("montecarlo.harness_ms_per_frame", layers["harness.ms_per_frame"], "ms",
                       "traced lane wall minus layer spans"))
        for span, base, scale, unit in (
            ("kernels.encode", "kernels.encode_us", 1e3, "us"),
            ("channels.transmit", "channels.transmit_us", 1e3, "us"),
            ("channels.likelihood_rows", "channels.likelihood_rows_ms", 1.0, "ms"),
            (dec, f"{dec}_ms", 1.0, "ms"),
        ):
            if tr.durations(span):
                p50, p99, n = _ms_stats(tr, span)
                detail.append((f"{base}_p50", p50 * scale, unit, f"n={n}"))
                detail.append((f"{base}_p99", p99 * scale, unit, f"n={n}"))
        n = total.trials
        if self.decoder == "sc":
            detail.append(("sc.contradiction_ratio", total.decode_failures / n, "ratio",
                           f"{total.decode_failures} of {n} frames"))
        elif self.decoder == "scl":
            detail.append(("scl.ops_per_frame", total.scl_ops / n, "count", f"{total.scl_ops} ops / {n} frames"))
        else:
            dec_s = sum(tr.durations(dec))
            detail += [
                ("bp.iterations_mean", total.bp_iterations / n, "count", f"{total.bp_iterations} / {n} frames"),
                ("bp.iteration_ms", 1e3 * dec_s / total.bp_iterations, "ms", "decode time / iterations"),
                ("bp.converged_ratio", total.bp_converged / n, "ratio", f"{total.bp_converged} of {n} frames"),
                ("bp.contradiction_ratio", total.bp_contradictions / n, "ratio",
                 f"{total.bp_contradictions} of {n} frames"),
            ]
        detail.append(("trace.overhead_ratio", overhead, "ratio", "1 - traced / untraced frames_per_cal_s"))
        return timing, layers, detail


# hardware-model audit ----------------------------------------------------------

ENGINES = ("sc_pipeline", "sc_line", "sc_limited", "bp_line", "general_line", "sc_multi")


@dataclass
class Inputs:
    llr: np.ndarray  # shared by the three SC engines and bp_line
    rows: np.ndarray  # general_line evidence
    words: list  # sc_multi codewords


def default_refs() -> dict:
    """Software decoders the engines must match bit for bit."""
    return {
        "sc": decode_sc_arikan,
        "bp": lambda spec, llr, iters: bp_decode(spec, llr, max_iters=iters, stop="none"),
        "general": decode_sc_general,
    }


@dataclass(frozen=True)
class HwsimAudit:
    """Every architecture model, audited against its closed form and its decoder."""

    name: str
    m: int = 10
    p: int = 8
    bp_iters: int = 2
    limited_i: int = 4
    ell_m: int = 5  # general_line at ell=4, N = 4**ell_m

    @property
    def frames_per_round(self) -> int:
        return len(ENGINES) - 1 + self.p

    def construct(self):
        spec = construct_bec(self.m, 0.5, 0.5)
        n_gl = 4**self.ell_m
        gl_spec = CodeSpec(kernel_linear(G4), self.ell_m, {i: 0 for i in range(n_gl // 2)})
        return spec, gl_spec

    def inputs(self, ctx, seed: int, r: int, tr: Tracer | None = None, parent=None) -> Inputs:
        spec, gl_spec = ctx
        rng = np.random.default_rng([seed, r])
        llr = rng.normal(0, 2, spec.n)
        gl_llr = rng.normal(0, 2, gl_spec.n)
        words = [rng.normal(0, 2, spec.n) for _ in range(self.p)]
        t0 = perf()
        rows = likelihood_rows_binary(gl_llr)
        if tr is not None:
            tr.add("channels.likelihood_rows", t0, perf(), r, parent)
        return Inputs(llr, rows, words)

    def warm_up(self, ctx) -> None:
        inp = self.inputs(ctx, WARM_SEED, 0)
        inp.words = inp.words[:1]
        self.run_engines(ctx, inp)

    def run_engines(self, ctx, inp: Inputs, tr: Tracer | None = None, group=None, parent=None) -> dict:
        spec, gl_spec = ctx
        calls = (
            ("sc_pipeline", lambda: hwsim.run_sc(spec, inp.llr, arch="sc_pipeline")),
            ("sc_line", lambda: hwsim.run_sc(spec, inp.llr, arch="sc_line")),
            ("sc_limited", lambda: hwsim.run_sc(spec, inp.llr, arch="sc_limited", i_param=self.limited_i)),
            ("bp_line", lambda: hwsim.run_bp_line(spec, inp.llr, iterations=self.bp_iters)),
            ("general_line", lambda: hwsim.run_general_line(gl_spec, inp.rows)),
            ("sc_multi", lambda: hwsim.run_sc_multi(spec, inp.words)),
        )
        runs = {}
        for name, call in calls:
            t0 = perf()
            runs[name] = call()
            if tr is not None:
                tr.add(f"hwsim.{name}", t0, perf(), group, parent)
        return runs

    def formula_gap(self, runs: dict) -> int:
        return runs["general_line"].report.cycles - hwsim.formulas_general_line(4, self.ell_m)["cycles"]

    def audit_formulas(self, runs: dict, gate: Gate, r: int) -> None:
        for name, run in runs.items():
            miss = hwsim.check_formulas(run.report)
            if name == "general_line":
                # the closed form undercounts beyond two levels: the counted
                # cycles must equal the true schedule, the gap is reported
                true = hwsim.general_line_true_cycles(4, self.ell_m)
                miss = [x for x in miss if not x.startswith("cycles:")]
                if run.report.cycles != true:
                    miss.append(f"cycles: counted {run.report.cycles}, true schedule {true}")
            gate.check(f"hwsim.{name}.round{r}.formulas", not miss, "; ".join(miss))
        gate.check(f"hwsim.sc_multi.round{r}.contention", runs["sc_multi"].report.contention == 0)

    def audit_decisions(self, ctx, inp: Inputs, runs: dict, gate: Gate, r: int,
                        tr: Tracer | None = None, parent=None, refs: dict | None = None) -> None:
        spec, gl_spec = ctx
        refs = refs or default_refs()

        def ref(span, fn, *args):
            t0 = perf()
            out = fn(*args)
            if tr is not None:
                tr.add(span, t0, perf(), r, parent)
            return out

        def same(name, u_hat, x_hat, want):
            ok = np.array_equal(u_hat, want.u_hat) and np.array_equal(x_hat, want.x_hat)
            gate.check(f"hwsim.{name}.round{r}.bit_exact", ok)

        want = ref("sc.decode", refs["sc"], spec, inp.llr)
        for name in hwsim.SC_ARCHS:
            same(name, runs[name].u_hat, runs[name].x_hat, want)
        want = ref("bp.decode", refs["bp"], spec, inp.llr, self.bp_iters)
        same("bp_line", runs["bp_line"].u_hat, runs["bp_line"].x_hat, want)
        want = ref("sc.decode_general", refs["general"], gl_spec, inp.rows)
        same("general_line", runs["general_line"].u_hat, runs["general_line"].x_hat, want)
        for c, (word, (u_hat, x_hat)) in enumerate(zip(inp.words, runs["sc_multi"].results)):
            same(f"sc_multi.word{c}", u_hat, x_hat, ref("sc.decode", refs["sc"], spec, word))

    def measure(self, ctx, seed: int, seconds: float, tr: Tracer | None, gate: Gate):
        budget = seconds / 2 if tr is not None else seconds

        def run_round(r):
            inp = self.inputs(ctx, seed, r)
            t0 = perf()
            runs = self.run_engines(ctx, inp)
            took = perf() - t0
            self.audit_formulas(runs, gate, r)
            # round 0 is kept for the bit-exact check
            return (inp, runs) if r == 0 else None, self.frames_per_round, took

        # the timed section is the six engine calls; inputs are drawn outside it
        outs, timing = timed_rounds(run_round, budget)
        first = outs[0]
        cycles = sum(run.report.cycles for run in first[1].values())
        detail = [
            ("hwsim.rounds", len(outs), "count", f"{self.frames_per_round} codewords each (p={self.p})"),
            ("sim_cycles_per_s", cycles * len(outs) / sum(timing.work_s), "cycles/s",
             "simulated cycles per host second"),
            ("hwsim.general_line.formula_gap", self.formula_gap(first[1]), "cycles",
             "counted minus closed form, exact"),
        ]
        for name, run in first[1].items():
            detail.append((f"hwsim.{name}.cycles", run.report.cycles, "count", "exact"))
        if tr is None:
            self.audit_decisions(ctx, *first, gate, 0)
            return timing, None, detail

        traced_s = 0.0
        traced_calib = []
        start = perf()
        r = 0
        while r == 0 or (r < len(outs) and perf() - start < budget):
            traced_calib.append(calibrate())
            span = tr.open("hwsim.round", group=r)
            inp = self.inputs(ctx, seed, r, tr, span)
            t0 = perf()
            runs = self.run_engines(ctx, inp, tr, r, span)
            traced_s += perf() - t0
            t0 = perf()
            self.audit_formulas(runs, gate, r)
            tr.add("hwsim.check_formulas", t0, perf(), r, span)
            self.audit_decisions(ctx, inp, runs, gate, r, tr, span)
            tr.close(span)
            r += 1
        overhead = trace_overhead(timing, r, traced_s, traced_calib)
        layers = _common_layers(tr, r * self.frames_per_round, "hwsim.round", "sc.decode",
                                ("channels.likelihood_rows",), overhead)
        for name in ENGINES:
            p50, p99, n = _ms_stats(tr, f"hwsim.{name}")
            cyc = first[1][name].report.cycles
            detail.append((f"hwsim.{name}.host_ms", p50, "ms", f"p50, p99 {p99:.4f}, n={n}"))
            detail.append((f"hwsim.{name}.host_ns_per_cycle", 1e6 * p50 / cyc, "ns", "p50 host time / cycles"))
        for span in ("sc.decode", "bp.decode", "sc.decode_general"):
            p50, p99, n = _ms_stats(tr, span)
            detail.append((f"{span}_ms_p50", p50, "ms", f"reference decodes, n={n}"))
            detail.append((f"{span}_ms_p99", p99, "ms", f"n={n}"))
        detail.append(("trace.overhead_ratio", overhead, "ratio", "1 - traced / untraced frames_per_cal_s"))
        return timing, layers, detail


WORKLOADS = {
    w.name: w
    for w in (
        Simulate("sc-bec64", "sc", 6, ("bec", 0.4), 0.4, round_trials=128),
        Simulate("scl-bsc128", "scl", 7, ("bsc", 0.08), 0.5, round_trials=32),
        Simulate("bp-awgn128", "bp", 7, ("biawgn", 0.8), 0.5, round_trials=16, iters=10),
        HwsimAudit("hwsim-audit"),
    )
}


def setup_sample(name: str, import_s: float) -> dict:
    """One cold set-up in a fresh interpreter: construction and warm-up.

    Calibrations just before and after it give the host's slowdown.
    """
    w = WORKLOADS[name]
    calib = [calibrate()]
    t0 = perf()
    ctx = w.construct()
    t1 = perf()
    w.warm_up(ctx)
    t2 = perf()
    calib.append(calibrate())
    return {"import_s": import_s, "construct_s": t1 - t0, "warmup_s": t2 - t1,
            "slowdown": slowdown(calib)}
