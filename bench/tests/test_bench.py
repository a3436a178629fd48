"""The benchmark's own checks, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from acceptance_log import read_verdicts  # noqa: E402
from polarbench.bp import bp_decode  # noqa: E402
from polarbench.sc import decode_sc_arikan, decode_sc_general  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sc-bec64": {"round_trials": 4},
    "scl-bsc128": {"round_trials": 2},
    "bp-awgn128": {"round_trials": 2},
    "hwsim-audit": {"m": 4, "p": 3, "limited_i": 2, "ell_m": 3},
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_declared_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    rec = run.measure(name, seed=1, seconds=0.05, trace=trace)
    line = run.result_line(rec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


@pytest.mark.parametrize("name", ["sc-bec64", "scl-bsc128", "bp-awgn128"])
def test_golden_tally_reproduces_and_trips_when_perturbed(name):
    w = workloads.WORKLOADS[name]
    ctx = w.construct()
    tally = w.rebuild(ctx, workloads.round_seed(workloads.DEFAULT_SEED, 0), Tracer())
    gate = workloads.Gate()
    assert workloads.check_golden(gate, name, tally.key())
    for field in range(4):
        bad = list(workloads.GOLDEN[name])
        bad[field] += 1
        golden = dict(workloads.GOLDEN, **{name: tuple(bad)})
        assert not workloads.check_golden(gate, name, tally.key(), golden=golden)
    assert gate.failed == 4


def test_gate_trips_when_an_hwsim_reference_is_swapped():
    w = tiny("hwsim-audit")
    ctx = w.construct()
    inp = w.inputs(ctx, seed=3, r=0)
    runs = w.run_engines(ctx, inp)
    gate = workloads.Gate()
    w.audit_formulas(runs, gate, 0)
    w.audit_decisions(ctx, inp, runs, gate, 0)
    assert gate.attempted > 0 and gate.failed == 0
    assert w.formula_gap(runs) > 0

    swapped = {
        "sc": lambda spec, llr: decode_sc_arikan(spec, -llr),
        "bp": lambda spec, llr, iters: bp_decode(spec, -llr, max_iters=iters, stop="none"),
        "general": lambda spec, rows: decode_sc_general(spec, rows[:, ::-1]),
    }
    for key, fn in swapped.items():
        gate = workloads.Gate()
        w.audit_decisions(ctx, inp, runs, gate, 0, refs=dict(workloads.default_refs(), **{key: fn}))
        assert gate.failed > 0, key


def test_acceptance_log_reader():
    text = "\n".join([
        "[criterion 1] PASS: all 99 closed-form cells exact, 102.4s",
        "[criterion 1, general-line cycles] FAIL (expected): form undercounts",
        "[criterion 5] PASS: BP ber 0.12 <= SC 0.19, 277s",
        "[criterion 5] PASS: BP ber 0.12 <= SC 0.19, 277s",
    ])
    got = {v["criterion"]: v for v in read_verdicts(text)}
    assert list(got) == ["criterion 1", "criterion 1, general-line cycles", "criterion 5"]
    assert got["criterion 1"]["seconds"] == 102.4 and got["criterion 1"]["within_budget"] is False
    assert got["criterion 5"]["budget_s"] == 600.0 and got["criterion 5"]["within_budget"] is True
    assert got["criterion 1, general-line cycles"]["seconds"] is None
