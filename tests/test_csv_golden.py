"""Seeded `polarbench simulate` rows, pinned byte for byte.

Each row was recorded before the change it guards: the first seventeen
before the SC Monte-Carlo lanes were batched, the next three (SCL at N = 64
and 128, lists of 4 and 8) before SCL was, the next two (BP at N = 128,
exact and min-sum, on a code with wide rate-0 and rate-1 subtrees) before
BP ran those subtrees as level passes, and the last (SCL list 8 at
N = 1024, whose rate-0 nodes reach width 128, where the guard on their
evidence is tightest) before SCL returned rate-0 nodes without walking
them. The first row is the README example. Each case runs with --jobs 1
and --jobs 2, and the cases of more than LANE_SIZE trials span two or
three lanes, so a change to the draw order, the lane split or any
decision shows here.

The code-file rows (the length-4 kernel G4, and an Arikan code with frozen
pins of value 1), the noiseless bsc:0 rows and the `construct --mc-trials`
spec files were recorded while every lane still drew, assembled, encoded
and transmitted its frames one at a time.
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
    ("--decoder bp --iters 10 --channel biawgn:0.8 --N 128 --rate 0.5 --trials 600 --seed 7",
     "bp,biawgn,0.8,128,0.5,1,10,600,0.030130208,0.16333333,7"),
    ("--decoder bp --min-sum --iters 10 --channel biawgn:0.8 --N 128 --rate 0.5 --trials 600 --seed 7",
     "bp,biawgn,0.8,128,0.5,1,10,600,0.036770833,0.145,7"),
    ("--decoder scl --list-size 8 --channel bsc:0.03 --N 1024 --rate 0.5 --trials 64 --seed 5",
     "scl,bsc,0.03,1024,0.5,8,0,64,0.0024414062,0.03125,5"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("args,row", CASES, ids=[a for a, _ in CASES])
def test_simulate_row_pinned(capsys, args, row, jobs):
    assert main(["simulate", *args.split(), "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert out == "decoder,channel,param,N,rate,list_size,iters,trials,ber,fer,seed\n" + row + "\n"


G4_KERNEL = "kernel ell=4 q=2\nG 1 0 0 0\nG 1 1 0 0\nG 1 0 1 0\nG 1 1 1 1\n"
CODE_FILES = {
    "g4": G4_KERNEL + "m 2\nfrozen 0 1 2=1 3 4 8=1 5\n",
    "pin1": "kernel ell=2 q=2\nm 3\nfrozen 0 1=1 2 4=1\n",
}

FILE_CASES = [
    ("g4", "--decoder sc --channel bec:0.3 --trials 520 --seed 5",
     "sc,bec,0.3,16,0.5625,1,0,520,0.06025641,0.13653846,5"),
    ("g4", "--decoder sc --channel biawgn:0.8 --trials 520 --seed 5",
     "sc,biawgn,0.8,16,0.5625,1,0,520,0.072008547,0.18269231,5"),
    ("g4", "--decoder scl --list-size 4 --channel bsc:0.08 --trials 520 --seed 5",
     "scl,bsc,0.08,16,0.5625,4,0,520,0.10790598,0.25769231,5"),
    ("pin1", "--decoder sc --channel bec:0.4 --trials 520 --seed 5",
     "sc,bec,0.4,8,0.5,1,0,520,0.075961538,0.13846154,5"),
    ("pin1", "--decoder scl --list-size 4 --channel biawgn:0.8 --trials 520 --seed 5",
     "scl,biawgn,0.8,8,0.5,4,0,520,0.027403846,0.053846154,5"),
    ("pin1", "--decoder bp --iters 20 --channel bsc:0.08 --trials 520 --seed 5",
     "bp,bsc,0.08,8,0.5,1,20,520,0.075480769,0.14423077,5"),
    (None, "--decoder sc --channel bsc:0 --N 8 --rate 0.5 --trials 520 --seed 5",
     "sc,bsc,0,8,0.5,1,0,520,0,0,5"),
    (None, "--decoder bp --iters 20 --channel bsc:0 --N 8 --rate 0.5 --trials 520 --seed 5",
     "bp,bsc,0,8,0.5,1,20,520,0,0,5"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("code,args,row", FILE_CASES, ids=[f"{c}:{a}" for c, a, _ in FILE_CASES])
def test_simulate_code_file_row_pinned(tmp_path, capsys, code, args, row, jobs):
    where = []
    if code:
        path = tmp_path / f"{code}.txt"
        path.write_text(CODE_FILES[code])
        where = ["--code", str(path)]
    assert main(["simulate", *where, *args.split(), "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert out == "decoder,channel,param,N,rate,list_size,iters,trials,ber,fer,seed\n" + row + "\n"


ARIKAN_HEAD = "kernel ell=2 q=2\nG 1 0\nG 1 1\nm 5\n"
CONSTRUCT_CASES = [
    ("--N 32 --rate 0.5 --channel bec:0.4 --mc-trials 100 --seed 6",
     ARIKAN_HEAD + "frozen 0 1 2 3 4 5 6 7 8 9 10 11 12 16 17 18\n"),
    ("--N 32 --rate 0.375 --channel bsc:0.15 --mc-trials 600 --seed 6",
     ARIKAN_HEAD + "frozen 0 1 2 3 4 5 6 7 8 9 10 11 12 14 16 17 18 19 20 24\n"),
    ("--N 32 --rate 0.5 --channel biawgn:0.9 --mc-trials 600 --seed 5",
     ARIKAN_HEAD + "frozen 0 1 2 3 4 5 6 8 9 10 12 16 17 18 20 24\n"),
    ("--kernel G4 --m 2 --rate 0.5 --channel bsc:0.2 --mc-trials 100 --seed 6",
     G4_KERNEL + "m 2\nfrozen 0 1 2 4 5 8 9 10\n"),
]


@pytest.mark.parametrize("args,text", CONSTRUCT_CASES, ids=[a for a, _ in CONSTRUCT_CASES])
def test_construct_mc_spec_pinned(tmp_path, capsys, args, text):
    kernel = tmp_path / "g4.txt"
    kernel.write_text(G4_KERNEL)
    argv = [str(kernel) if a == "G4" else a for a in args.split()]
    assert main(["construct", *argv]) == 0
    assert capsys.readouterr().out == text
