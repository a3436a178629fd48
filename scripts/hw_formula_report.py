#!/usr/bin/env python3

# Tabulates each architecture's reported cycle/resource figures against its
# closed forms over a range of block lengths. Cells where the two disagree
# are marked; with the stock formulas the only offenders are the
# general-kernel line cells beyond two recursion levels. Cycles (and
# sc-multi's PEs and contention) are counted by the run; the other PE
# columns, LLR registers and bp-line's units are set from the closed-form
# expressions themselves, so they cannot disagree.

import argparse

import numpy as np

from polarbench.channels import likelihood_rows_binary
from polarbench.construction import construct_bec
from polarbench.hwsim import (
    check_formulas,
    run_bp_line,
    run_general_line,
    run_sc,
    run_sc_multi,
)
from polarbench.kernels import CodeSpec, kernel_linear

parser = argparse.ArgumentParser()
parser.add_argument("--max-m", type=int, default=8, help="largest log2(N) to audit")
parser.add_argument("--multi-p", type=int, default=3)
parser.add_argument("--iters", type=int, default=2, help="bp-line iteration count")
args = parser.parse_args()

G4 = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]

rows = []


def audit(name, n, report):
    bad = check_formulas(report)
    # bp-line counts processing units, the rest count PEs
    pe = report.pe_count or report.units
    rows.append((name, n, report.cycles, pe, "" if not bad else "; ".join(bad)))


for m in range(1, args.max_m + 1):
    n = 2**m
    spec = construct_bec(m, 0.5, 0.5)
    llr = np.random.default_rng(n).normal(0, 2, n)
    audit("sc-pipeline", n, run_sc(spec, llr, arch="sc_pipeline").report)
    audit("sc-line", n, run_sc(spec, llr, arch="sc_line").report)
    for i in range(1, m + 1):
        audit(f"sc-line-limited i={i}", n, run_sc(spec, llr, arch="sc_limited", i_param=i).report)
    p = min(args.multi_p, n - 1)
    words = [np.random.default_rng(n + j).normal(0, 2, n) for j in range(p)]
    audit(f"sc-multi p={p}", n, run_sc_multi(spec, words).report)
    audit(f"bp-line iters={args.iters}", n, run_bp_line(spec, llr, iterations=args.iters).report)

for ell, G in ((2, [[1, 0], [1, 1]]), (4, G4)):
    kern = kernel_linear(G, q=2)
    max_m = args.max_m if ell == 2 else args.max_m // 2
    for m in range(1, max_m + 1):
        n = ell**m
        spec = CodeSpec(kern, m, {i: 0 for i in range(n // 2)})
        lrows = likelihood_rows_binary(np.random.default_rng(n).normal(0, 2, n))
        rep = run_general_line(spec, lrows).report
        bad = check_formulas(rep)
        note = ""
        if bad:
            note = f"formula {rep.closed_form['cycles']} undercounts"
        rows.append((f"general-line ell={ell}", n, rep.cycles, rep.pe_count, note))

wid = max(len(r[0]) for r in rows)
print(f"{'architecture':<{wid}}  {'N':>5}  {'cycles':>7}  {'PEs':>5}  mismatch")
for name, n, cyc, pe, note in rows:
    print(f"{name:<{wid}}  {n:>5}  {cyc:>7}  {pe:>5}  {note}")

bad_count = sum(1 for r in rows if r[4])
print(f"\n{len(rows)} cells, {bad_count} with formula mismatch")
