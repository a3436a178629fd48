"""polarbench benchmark: one workload per call, every metric by name and unit.

    python3 bench/run.py --workload sc-bec64 --seed 0 --seconds 25 --trace 0

Workloads: sc-bec64, scl-bsc128, bp-awgn128, hwsim-audit (see bench/README.md).
With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it first repeats the untraced timing on half of --seconds, then
rebuilds the same frames with spans on the other half and reports the
per-layer metrics. Human-readable lines go to stdout; the last line is one
JSON object {correct, attempted, failed, metrics}. A full record
(provenance, every metric, every check, set-up samples) is written to
.bench_out/, and in traced runs the spans beside it.

Run from the root of a polarbench checkout; the package is imported from
its src/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5

END_TO_END_UNITS = {"frames_per_cal_s": "frames/cal_s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.construct_s": "s",
    "setup.warmup_s": "s",
    "frames": "count",
    "harness.ms_per_frame": "ms",
    "evidence.ms_per_frame": "ms",
    "decode.ms_p50": "ms",
    "decode.ms_p99": "ms",
    "decode.samples": "count",
    "decode.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}

# One cold set-up in a fresh interpreter: import, construction, warm-up.
_SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import polarbench, polarbench.hwsim
t1 = time.perf_counter()
import workloads
print(json.dumps(workloads.setup_sample(sys.argv[1], t1 - t0)))
"""


def setup_samples(name: str, count: int = SETUP_SAMPLES) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, name],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time and check one workload; returns the full record."""
    import workloads
    from tracing import Tracer

    prov = provenance(seed)
    samples = setup_samples(name)
    w = workloads.WORKLOADS[name]
    ctx = w.construct()
    w.warm_up(ctx)

    gate = workloads.Gate()
    tr = Tracer() if trace else None
    timing, layers, detail = w.measure(ctx, seed, seconds, tr, gate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    prov["loadavg_end"] = list(os.getloadavg())

    # set-up times in calibrated seconds: wall-clock seconds / the sample's slowdown
    def med(*keys):
        return statistics.median(sum(s[k] for k in keys) / s["slowdown"] for s in samples)

    setup_s = med("import_s", "construct_s", "warmup_s")
    end_to_end = {"frames_per_cal_s": timing.frames_per_cal_s, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
    detail = [
        ("frames_per_s", timing.frames_per_s, "frames/s", "codewords per wall-clock second"),
        ("calibration.slowdown", timing.slowdown, "ratio",
         f"mean calibration {1e3 * sum(timing.calib_s) / len(timing.calib_s):.2f} ms / reference "
         f"{1e3 * workloads.CALIB_REF_S:g} ms, {len(timing.calib_s)} samples"),
    ] + detail
    per_layer = None
    if trace:
        per_layer = dict(layers)
        per_layer.update({
            "setup.import_s": med("import_s"),
            "setup.construct_s": med("construct_s"),
            "setup.warmup_s": med("warmup_s"),
            "fail_ratio": gate.failed / gate.attempted,
        })
    return {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "provenance": prov,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "detail": [list(d) for d in detail],
        "setup_samples": samples,
        "timing": {"frames": timing.frames, "work_s": timing.work_s, "calib_s": timing.calib_s},
        # per span name: count, p50/p99, total and self seconds (span minus child spans)
        "span_summary": tr.summary() if trace else None,
        "checks": [list(c) for c in gate.checks],
        "attempted": gate.attempted,
        "failed": gate.failed,
        "spans": tr,
    }


def result_line(rec: dict) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json names for the mode."""
    if rec["trace"]:
        values, units = rec["per_layer"], PER_LAYER_UNITS
    else:
        values, units = rec["end_to_end"], END_TO_END_UNITS
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def report(rec: dict) -> None:
    prov = rec["provenance"]
    print(f"# polarbench benchmark: workload {rec['workload']}, seed {prov['seed']}, "
          f"trace {int(rec['trace'])}, {rec['seconds']:g} s")
    print("# provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"fail_ratio = {rec['failed'] / rec['attempted']:.6g} ratio "
          f"({rec['failed']} failed of {rec['attempted']} checks)")
    for name, ok, why in rec["checks"]:
        if not ok:
            print(f"FAILED CHECK {name}: {why}")
    for k, m in result_line(rec)["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    for name, value, unit, note in rec["detail"]:
        print(f"{name} = {value:.6g} {unit}  ({note})")


def write_record(rec: dict, acceptance: list | None) -> Path:
    tag = f"{rec['workload']}_seed{rec['provenance']['seed']}_trace{int(rec['trace'])}"
    path = OUT / f"BENCH_{tag}.json"
    body = {k: v for k, v in rec.items() if k != "spans"}
    if acceptance is not None:
        body["acceptance"] = acceptance
    OUT.mkdir(parents=True, exist_ok=True)
    if rec["spans"] is not None:
        rec["spans"].write(OUT / f"spans_{tag}.json", {"workload": rec["workload"],
                                                       "seed": rec["provenance"]["seed"]})
    with open(path, "w") as fh:
        json.dump(body, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pytest-log", metavar="FILE",
                    help="store the acceptance verdict lines of this pytest log in the record")
    args = ap.parse_args(argv)
    if not (SRC / "polarbench" / "__init__.py").is_file():
        print(f"error: no polarbench package under {SRC}; run from a polarbench checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    acceptance = None
    if args.pytest_log:
        from acceptance_log import read_verdicts

        with open(args.pytest_log) as fh:
            acceptance = read_verdicts(fh.read())

    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(rec)
    print(f"# record {write_record(rec, acceptance).relative_to(ROOT)}")
    print(json.dumps(result_line(rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
