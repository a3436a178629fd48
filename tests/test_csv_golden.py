"""Seeded `polarbench simulate` rows, pinned byte for byte.

Every row was recorded while its decoder still went frame by frame: the
first seventeen before the SC Monte-Carlo lanes were batched, the last
three (SCL at N = 64 and 128, lists of 4 and 8) before SCL was. The first
row is the README example. Each case runs with --jobs 1 and --jobs 2, and
the cases of more than LANE_SIZE trials span two or three lanes, so a
change to the draw order, the lane split or any decision shows here.
"""

import pytest

from polarbench.cli import main

CASES = [
    ("--decoder sc --channel bec:0.5 --N 8 --rate 0.5 --trials 1000 --seed 1",
     "sc,bec,0.5,8,0.5,1,0,1000,0.145,0.251,1"),
    ("--decoder sc --channel bec:0.4 --N 8 --rate 0.5 --trials 520 --seed 5",
     "sc,bec,0.4,8,0.5,1,0,520,0.075961538,0.13846154,5"),
    ("--decoder sc --min-sum --channel bec:0.4 --N 8 --rate 0.5 --trials 520 --seed 5",
     "sc,bec,0.4,8,0.5,1,0,520,0.075961538,0.13846154,5"),
    ("--decoder scl --list-size 4 --channel bec:0.4 --N 4 --rate 0.5 --trials 513 --seed 5",
     "scl,bec,0.4,4,0.5,4,0,513,0.10623782,0.14814815,5"),
    ("--decoder bp --iters 20 --channel bec:0.4 --N 4 --rate 0.5 --trials 513 --seed 5",
     "bp,bec,0.4,4,0.5,1,20,513,0.11013645,0.17738791,5"),
    ("--decoder sc --channel bsc:0.08 --N 8 --rate 0.5 --trials 520 --seed 5",
     "sc,bsc,0.08,8,0.5,1,0,520,0.073557692,0.13846154,5"),
    ("--decoder sc --min-sum --channel bsc:0.08 --N 8 --rate 0.5 --trials 520 --seed 5",
     "sc,bsc,0.08,8,0.5,1,0,520,0.073557692,0.13846154,5"),
    ("--decoder scl --list-size 4 --channel bsc:0.08 --N 4 --rate 0.5 --trials 513 --seed 5",
     "scl,bsc,0.08,4,0.5,4,0,513,0.13157895,0.16959064,5"),
    ("--decoder bp --iters 20 --channel bsc:0.08 --N 4 --rate 0.5 --trials 513 --seed 5",
     "bp,bsc,0.08,4,0.5,1,20,513,0.12768031,0.19493177,5"),
    ("--decoder sc --channel biawgn:0.8 --N 8 --rate 0.5 --trials 520 --seed 5",
     "sc,biawgn,0.8,8,0.5,1,0,520,0.03125,0.057692308,5"),
    ("--decoder sc --min-sum --channel biawgn:0.8 --N 8 --rate 0.5 --trials 520 --seed 5",
     "sc,biawgn,0.8,8,0.5,1,0,520,0.030769231,0.057692308,5"),
    ("--decoder scl --list-size 4 --channel biawgn:0.8 --N 4 --rate 0.5 --trials 513 --seed 5",
     "scl,biawgn,0.8,4,0.5,4,0,513,0.046783626,0.06042885,5"),
    ("--decoder bp --iters 20 --channel biawgn:0.8 --N 4 --rate 0.5 --trials 513 --seed 5",
     "bp,biawgn,0.8,4,0.5,1,20,513,0.046783626,0.06042885,5"),
    ("--decoder sc --channel bec:0.4 --N 64 --rate 0.5 --trials 1100 --seed 3",
     "sc,bec,0.4,64,0.5,1,0,1100,0.18803977,0.29545455,3"),
    ("--decoder sc --min-sum --channel bec:0.4 --N 64 --rate 0.5 --trials 1100 --seed 3",
     "sc,bec,0.4,64,0.5,1,0,1100,0.18803977,0.29545455,3"),
    ("--decoder sc --channel biawgn:0.8 --N 64 --rate 0.5 --trials 1100 --seed 3",
     "sc,biawgn,0.8,64,0.5,1,0,1100,0.0396875,0.14909091,3"),
    ("--decoder sc --min-sum --channel biawgn:0.8 --N 64 --rate 0.5 --trials 1100 --seed 3",
     "sc,biawgn,0.8,64,0.5,1,0,1100,0.039090909,0.14363636,3"),
    ("--decoder scl --list-size 8 --channel bsc:0.08 --N 128 --rate 0.5 --trials 160 --seed 5",
     "scl,bsc,0.08,128,0.5,8,0,160,0.086328125,0.38125,5"),
    ("--decoder scl --list-size 8 --channel bec:0.4 --N 64 --rate 0.5 --trials 520 --seed 5",
     "scl,bec,0.4,64,0.5,8,0,520,0.050901442,0.16346154,5"),
    ("--decoder scl --list-size 4 --channel biawgn:0.8 --N 64 --rate 0.5 --trials 520 --seed 5",
     "scl,biawgn,0.8,64,0.5,4,0,520,0.029326923,0.10576923,5"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("args,row", CASES, ids=[a for a, _ in CASES])
def test_simulate_row_pinned(capsys, args, row, jobs):
    assert main(["simulate", *args.split(), "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert out == "decoder,channel,param,N,rate,list_size,iters,trials,ber,fer,seed\n" + row + "\n"
