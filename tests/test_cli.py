import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarbench.cli import INPUT_ERRORS, main
from polarbench.kernels import load_codespec


def run_cli(capsys, *argv):
    # argparse usage failures exit directly; fold them into the return code
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    out = capsys.readouterr()
    return code, out.out, out.err


# construct -------------------------------------------------------------------


def test_construct_writes_loadable_spec(tmp_path, capsys):
    out = tmp_path / "code.txt"
    code, _, _ = run_cli(
        capsys, "construct", "--N", "16", "--rate", "0.5", "--channel", "bec:0.5",
        "--out", str(out),
    )
    assert code == 0
    spec = load_codespec(out.read_text())
    assert spec.n == 16
    assert spec.k_info == 8


def test_construct_stdout_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "construct", "--N", "8", "--rate", "0.25")
    assert code == 0
    spec = load_codespec(out)
    assert spec.n == 8
    assert spec.k_info == 2


def test_construct_montecarlo_deterministic(capsys):
    args = (
        "construct", "--N", "8", "--rate", "0.5", "--channel", "bsc:0.05",
        "--mc-trials", "80", "--seed", "3",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_construct_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "construct", "--rate", "0.5")
    assert code == 2
    assert "error" in err
    # analytic construction is erasure-only
    code, _, err = run_cli(
        capsys, "construct", "--N", "8", "--rate", "0.5", "--channel", "bsc:0.1"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "construct", "--N", "12", "--rate", "0.5")
    assert code == 2
    kfile = tmp_path / "k.txt"
    kfile.write_text("kernel ell=2 q=2\nG 1 0\nG 1 1\n")
    code, _, err = run_cli(
        capsys, "construct", "--kernel", str(kfile), "--rate", "0.5"
    )
    assert code == 2  # --kernel needs --m


def test_construct_custom_kernel(tmp_path, capsys):
    kfile = tmp_path / "k.txt"
    kfile.write_text("kernel ell=2 q=2\nG 1 0\nG 1 1\n")
    out = tmp_path / "code.txt"
    code, _, _ = run_cli(
        capsys, "construct", "--kernel", str(kfile), "--m", "3", "--rate", "0.5",
        "--channel", "bec:0.4", "--mc-trials", "50", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    spec = load_codespec(out.read_text())
    assert spec.n == 8
    assert spec.k_info == 4


# simulate --------------------------------------------------------------------


def test_simulate_csv_shape_and_determinism(capsys):
    args = (
        "simulate", "--N", "16", "--rate", "0.5", "--channel", "bec:0.4",
        "--decoder", "sc", "--trials", "200", "--seed", "9",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "decoder,channel,param,N,rate,list_size,iters,trials,ber,fer,seed"
    cols = lines[1].split(",")
    assert cols[0] == "sc"
    assert cols[1] == "bec"
    assert cols[3] == "16"
    assert cols[7] == "200"
    assert cols[10] == "9"


def test_simulate_jobs_byte_identical(capsys):
    base = (
        "simulate", "--N", "16", "--rate", "0.5", "--channel", "bsc:0.06",
        "--trials", "600", "--seed", "4",
    )
    _, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    _, out2, _ = run_cli(capsys, *base, "--jobs", "3")
    assert out1 == out2


def test_simulate_scl_and_bp_columns(capsys):
    _, out, _ = run_cli(
        capsys, "simulate", "--N", "8", "--rate", "0.5", "--decoder", "scl",
        "--list-size", "4", "--trials", "50", "--seed", "0",
    )
    assert out.strip().splitlines()[1].split(",")[5] == "4"
    _, out, _ = run_cli(
        capsys, "simulate", "--N", "8", "--rate", "0.5", "--decoder", "bp",
        "--iters", "12", "--trials", "50", "--seed", "0",
    )
    cols = out.strip().splitlines()[1].split(",")
    assert cols[5] == "1"
    assert cols[6] == "12"


def test_simulate_from_code_file(tmp_path, capsys):
    codefile = tmp_path / "code.txt"
    run_cli(capsys, "construct", "--N", "8", "--rate", "0.5", "--out", str(codefile))
    code, out, _ = run_cli(
        capsys, "simulate", "--code", str(codefile), "--channel", "bec:0.3",
        "--trials", "100", "--seed", "2",
    )
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[3] == "8"


def test_simulate_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--N", "8")
    assert code == 2
    assert "error" in err


# hwsim -----------------------------------------------------------------------


def test_hwsim_pipeline_n8(capsys):
    code, out, _ = run_cli(
        capsys, "hwsim", "--arch", "sc-pipeline", "--N", "8", "--check-formulas"
    )
    assert code == 0
    assert "cycles=14" in out
    assert "pe_count=7" in out


def test_hwsim_line_limited_n64_i4(capsys):
    code, out, _ = run_cli(
        capsys, "hwsim", "--arch", "sc-line-limited", "--N", "64", "--i", "4",
        "--check-formulas",
    )
    assert code == 0
    assert "cycles=160" in out
    assert "pe_count=4" in out


def test_hwsim_bp_line_n4(capsys):
    code, out, _ = run_cli(
        capsys, "hwsim", "--arch", "bp-line", "--N", "4", "--iters", "3",
        "--check-formulas",
    )
    assert code == 0
    assert "cycles_per_iteration=15" in out
    assert "cycles=45" in out


def test_hwsim_multi(capsys):
    code, out, _ = run_cli(
        capsys, "hwsim", "--arch", "sc-multi", "--N", "8", "--p", "3",
        "--check-formulas",
    )
    assert code == 0
    assert "cycles=16" in out
    assert "contention=0" in out


def test_hwsim_general_line_formula_mismatch(capsys):
    # three levels deep the closed form undercounts; the audit must say so
    code, out, err = run_cli(
        capsys, "hwsim", "--arch", "general-line", "--N", "8", "--check-formulas"
    )
    assert code == 1
    assert "formula mismatch" in err
    assert "cycles" in err


def test_hwsim_general_line_shallow_ok(capsys):
    code, _, err = run_cli(
        capsys, "hwsim", "--arch", "general-line", "--N", "4", "--check-formulas"
    )
    assert code == 0
    assert err == ""
    code, _, _ = run_cli(
        capsys, "hwsim", "--arch", "general-line", "--N", "16", "--ell", "4",
        "--check-formulas",
    )
    assert code == 0


def test_hwsim_trace_file(tmp_path, capsys):
    tracefile = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "hwsim", "--arch", "sc-line", "--N", "8", "--trace", str(tracefile)
    )
    assert code == 0
    lines = tracefile.read_text().strip().splitlines()
    assert lines[0] == "cycle,unit,op,inputs,outputs"
    assert len(lines) > 8


def test_hwsim_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "hwsim", "--arch", "sc-line", "--N", "12")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "hwsim", "--arch", "general-line", "--N", "8", "--ell", "3"
    )
    assert code == 2


@pytest.mark.parametrize("arch,n", [("general-line", "1"), ("general-line", "3"), ("sc-line", "1")])
def test_hwsim_length_not_a_kernel_power(capsys, arch, n):
    code, out, err = run_cli(capsys, "hwsim", "--arch", arch, "--N", n)
    assert code == 2
    assert out == ""
    assert err == f"error: N={n} is not a power 2**m with m >= 1\n"


# encode / decode --------------------------------------------------------------


@pytest.fixture()
def small_code(tmp_path, capsys):
    codefile = tmp_path / "code.txt"
    run_cli(capsys, "construct", "--N", "8", "--rate", "0.5", "--out", str(codefile))
    return codefile


def test_encode_decode_roundtrip(tmp_path, capsys, small_code):
    infile = tmp_path / "info.txt"
    infile.write_text("1 0 1 1\n")
    encoded = tmp_path / "x.txt"
    code, _, _ = run_cli(
        capsys, "encode", "--code", str(small_code), "--in", str(infile),
        "--out", str(encoded),
    )
    assert code == 0
    x = [int(t) for t in encoded.read_text().split()]
    assert len(x) == 8
    # noiseless llrs back through the decoder
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text(" ".join("8.0" if b == 0 else "-8.0" for b in x))
    decoded = tmp_path / "u.txt"
    code, _, _ = run_cli(
        capsys, "decode", "--code", str(small_code), "--in", str(llrfile),
        "--out", str(decoded),
    )
    assert code == 0
    u_hat = [int(t) for t in decoded.read_text().split()]
    spec = load_codespec(small_code.read_text())
    info = [u_hat[i] for i in spec.info_indices()]
    assert info == [1, 0, 1, 1]


def test_encode_full_word_and_mismatch(tmp_path, capsys, small_code):
    spec = load_codespec(small_code.read_text())
    # a full word honoring the pins encodes fine
    u = [0] * 8
    infile = tmp_path / "full.txt"
    infile.write_text(" ".join(map(str, u)))
    code, out, _ = run_cli(capsys, "encode", "--code", str(small_code), "--in", str(infile))
    assert code == 0
    # violate a pinned coordinate: exit 1
    bad = [0] * 8
    bad[min(spec.frozen)] = 1
    infile.write_text(" ".join(map(str, bad)))
    code, _, err = run_cli(capsys, "encode", "--code", str(small_code), "--in", str(infile))
    assert code == 1
    assert "encode failed" in err


def test_encode_wrong_length(tmp_path, capsys, small_code):
    infile = tmp_path / "short.txt"
    infile.write_text("1 0")
    code, _, err = run_cli(capsys, "encode", "--code", str(small_code), "--in", str(infile))
    assert code == 2
    assert "expected" in err


def test_decode_scl_and_bp(tmp_path, capsys, small_code):
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text(" ".join(["3.0"] * 8))
    for dec in ("scl", "bp"):
        code, out, _ = run_cli(
            capsys, "decode", "--code", str(small_code), "--in", str(llrfile),
            "--decoder", dec,
        )
        assert code == 0
        assert [int(t) for t in out.split()] == [0] * 8


@pytest.mark.parametrize("argv,flag", [
    (("simulate", "--decoder", "scl", "--list-size", "0"), "--list-size"),
    (("simulate", "--trials", "0"), "--trials"),
    (("simulate", "--decoder", "bp", "--iters", "0"), "--iters"),
    (("simulate", "--decoder", "bp", "--iters", "-3"), "--iters"),
    (("decode", "--decoder", "scl", "--list-size", "0"), "--list-size"),
    (("decode", "--decoder", "bp", "--iters", "0"), "--iters"),
    (("hwsim", "--arch", "bp-line", "--iters", "0"), "--iters"),
])
def test_non_positive_count_usage_error(tmp_path, capsys, small_code, argv, flag):
    # a count below 1 is refused before any work: exit 2, no output, no traceback
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text(" ".join(["3.0"] * 8))
    where = {
        "simulate": ("--N", "8", "--rate", "0.5"),
        "decode": ("--code", str(small_code), "--in", str(llrfile)),
        "hwsim": ("--N", "8"),
    }[argv[0]]
    code, out, err = run_cli(capsys, *argv, *where)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (("hwsim", "--arch", "sc-multi", "--N", "8", "--p", "-1"),
     "argument --p: must be a non-negative integer"),
    (("hwsim", "--arch", "sc-multi", "--N", "8", "--p", "8"), "error: --p must be at most N-1 = 7"),
    (("hwsim", "--arch", "sc-line-limited", "--N", "8", "--i", "0"),
     "argument --i: must be a positive integer"),
    (("hwsim", "--arch", "sc-line-limited", "--N", "8", "--i", "4"),
     "error: --i must be at most log2 N = 3"),
    (("simulate", "--N", "8", "--rate", "1.5"), "argument --rate: must be in [0, 1]"),
    (("simulate", "--N", "8", "--rate", "-0.5"), "argument --rate: must be in [0, 1]"),
    (("construct", "--N", "8", "--rate", "0.5", "--mc-trials", "-5"),
     "argument --mc-trials: must be a non-negative integer"),
    (("simulate", "--N", "8", "--rate", "0.5", "--jobs", "0"),
     "argument --jobs: must be a positive integer"),
    (("simulate", "--N", "8", "--rate", "0.5", "--seed", "-1"),
     "argument --seed: must be a non-negative integer"),
    (("construct", "--N", "8", "--rate", "0.5", "--mc-trials", "5", "--seed", "-3"),
     "argument --seed: must be a non-negative integer"),
    (("hwsim", "--arch", "sc-line", "--N", "8", "--seed", "-2"),
     "argument --seed: must be a non-negative integer"),
    (("simulate", "--N", "8", "--rate", "0.5", "--channel", "biawgn:nan", "--trials", "3"),
     "argument --channel: channel parameter must be finite"),
    (("simulate", "--N", "8", "--rate", "0.5", "--channel", "biawgn:inf", "--trials", "3"),
     "argument --channel: channel parameter must be finite"),
    (("construct", "--N", "8", "--rate", "0.5", "--channel", "biawgn:nan", "--mc-trials", "3"),
     "argument --channel: channel parameter must be finite"),
    (("simulate", "--N", "8", "--rate", "0.5", "--channel", "biawgn:1e300", "--trials", "3"),
     "argument --channel: noise sigma must be in [1e-150, 1e150]"),
    (("simulate", "--N", "8", "--rate", "0.5", "--channel", "biawgn:1e-300", "--trials", "3"),
     "argument --channel: noise sigma must be in [1e-150, 1e150]"),
])
def test_out_of_range_parameter_usage_error(capsys, argv, message):
    # refused before any work: exit 2 and one error line, no output, no traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_construct_kernel_depth_usage_error(tmp_path, capsys, m):
    kfile = tmp_path / "k.txt"
    kfile.write_text("kernel ell=2 q=2\nG 1 0\nG 1 1\n")
    code, out, err = run_cli(capsys, "construct", "--kernel", str(kfile), "--m", m,
                             "--rate", "0.5", "--mc-trials", "10")
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "argument --m: must be a positive integer" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "abc"])
@pytest.mark.parametrize("argv", [
    ("simulate", "--N", "8", "--rate", "0.5", "--trials", "5"),
    ("construct", "--N", "8", "--rate", "0.5", "--mc-trials", "5"),
    ("hwsim", "--arch", "sc-line", "--N", "8"),
])
def test_env_seed_usage_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("POLARBENCH_SEED", value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: POLARBENCH_SEED: ")
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "polarbench", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: polarbench")
    assert "simulate" in done.stdout


def _small_address_space():
    # set in the child only: an allocation of anything N long fails there
    # instead of filling the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("argv,length", [
    (("simulate", "--N", "1099511627776", "--rate", "0.5"), "2**40"),
    (("simulate", "--code", "{code}", "--trials", "5"), "2**30"),
    (("construct", "--kernel", "{kernel}", "--m", "30", "--mc-trials", "5", "--rate", "0.5"), "2**30"),
])
def test_code_longer_than_max_n_usage_error(tmp_path, argv, length):
    # refused before anything of length N is allocated: one error line,
    # exit 2, well inside the time and memory limits
    files = {"kernel": tmp_path / "k.txt", "code": tmp_path / "code.txt"}
    files["kernel"].write_text("kernel ell=2 q=2\nG 1 0\nG 1 1\n")
    files["code"].write_text("kernel ell=2 q=2\nm 30\nfrozen 0\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "polarbench", *(a.format(**files) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_small_address_space)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ")
    assert line.endswith(f"N = {length} exceeds the longest supported code length 1048576")


def test_encode_symbol_outside_alphabet_usage_error(tmp_path, capsys, small_code):
    infile = tmp_path / "info.txt"
    for text in ("1 0 2 1", "0 0 0 0 0 0 -1 0"):  # info word, full word
        infile.write_text(text)
        code, out, err = run_cli(capsys, "encode", "--code", str(small_code), "--in", str(infile))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {infile}: symbols out of range for q=2"]


def test_decode_contradiction_exit1(tmp_path, capsys):
    codefile = tmp_path / "code.txt"
    codefile.write_text("kernel ell=2 q=2\nm 1\nfrozen 0\n")
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text("-inf inf")
    code, _, err = run_cli(
        capsys, "decode", "--code", str(codefile), "--in", str(llrfile)
    )
    assert code == 1
    assert "decode failed" in err


@pytest.mark.parametrize("spec_text,names", [
    ("kernel ell=2 q=2\nm x\n", "'m x'"),
    ("kernel ell=2 q=2\nm\n", "'m'"),
    ("kernel ell=2 q=2\nm 2\nfrozen 0 4\n", "frozen index 4"),  # N = 4
    ("kernel ell\nm 2\n", "'kernel ell'"),
])
def test_decode_malformed_spec_usage_error(tmp_path, capsys, spec_text, names):
    codefile = tmp_path / "code.txt"
    codefile.write_text(spec_text)
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text("1 1 1 1")
    code, _, err = run_cli(capsys, "decode", "--code", str(codefile), "--in", str(llrfile))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert names in err


@pytest.mark.parametrize("decoder", ["sc", "bp"])
@pytest.mark.parametrize("tokens", ["1 1 abc 1", "1 1 nan 1", "1 NaN 1 1"])
def test_decode_malformed_llr_usage_error(tmp_path, capsys, decoder, tokens):
    codefile = tmp_path / "code.txt"
    codefile.write_text("kernel ell=2 q=2\nm 2\nfrozen 0\n")
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text(tokens)
    code, out, err = run_cli(
        capsys, "decode", "--code", str(codefile), "--in", str(llrfile), "--decoder", decoder
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_decode_bp_needs_arikan(tmp_path, capsys):
    codefile = tmp_path / "code.txt"
    codefile.write_text("kernel ell=2 q=2\nG 1 1\nG 0 1\nm 2\nfrozen 0\n")
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text("1 1 1 1")
    code, _, err = run_cli(
        capsys, "decode", "--code", str(codefile), "--in", str(llrfile),
        "--decoder", "bp",
    )
    assert code == 2
    assert "kernel" in err
    assert err.startswith("error: ")


GF3_CODE = "kernel ell=2 q=3\nG 1 0\nG 1 1\nm 2\nfrozen 0\n"
G4_CODE = "kernel ell=4 q=2\nG 1 0 0 0\nG 1 1 0 0\nG 1 0 1 0\nG 1 1 1 1\nm 2\nfrozen 0 1 2 4 8\n"


@pytest.mark.parametrize("text,argv,message", [
    (GF3_CODE, ("simulate", "--code", "{f}", "--trials", "5"),
     "channel trials need a binary-alphabet kernel"),
    (GF3_CODE, ("construct", "--kernel", "{f}", "--m", "2", "--mc-trials", "5", "--rate", "0.5"),
     "channel trials need a binary-alphabet kernel"),
    (G4_CODE, ("simulate", "--code", "{f}", "--decoder", "bp", "--trials", "5"),
     "bp decoding needs the binary (u+v, v) kernel"),
    (G4_CODE, ("simulate", "--code", "{f}", "--min-sum", "--trials", "5"),
     "--min-sum is read by bp and by sc on the (u+v, v) kernel only"),
    (G4_CODE, ("decode", "--code", "{f}", "--in", "{f}", "--min-sum"),
     "--min-sum is read by bp and by sc on the (u+v, v) kernel only"),
    (G4_CODE, ("decode", "--code", "{f}", "--in", "{f}", "--decoder", "scl", "--min-sum"),
     "--min-sum is read by bp and by sc on the (u+v, v) kernel only"),
])
def test_kernel_the_command_cannot_take_usage_error(tmp_path, capsys, text, argv, message):
    path = tmp_path / "code.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, *(a.format(f=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


GLUED_G4 = "kernel ell=4 q=2\nG 1 0 0 0\nG 1 1 0 0\nG 1 0 1 0\nG 1 1 1 1\nglue 0 1 ; 2 ; 3\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "--code", "{code}", "--trials", "5"),
    ("decode", "--code", "{code}", "--in", "{llr}"),
    ("construct", "--kernel", "{kernel}", "--m", "2", "--rate", "0.5", "--mc-trials", "3"),
    ("hwsim", "--arch", "general-line", "--N", "16", "--kernel", "{kernel}"),
])
def test_glued_kernel_beyond_depth_one_usage_error(tmp_path, capsys, argv):
    # no decoder or model covers a glued kernel at m = 2: one error line
    # with the decoder's own message, exit 2, no traceback
    files = {"kernel": tmp_path / "k.txt", "code": tmp_path / "code.txt", "llr": tmp_path / "llr.txt"}
    files["kernel"].write_text(GLUED_G4)
    files["code"].write_text(GLUED_G4 + "m 2\nfrozen 0 1 2 4 8\n")
    files["llr"].write_text(" ".join(["1.0"] * 16))
    code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "glue" in err


@pytest.mark.parametrize("glue", ["0 1 ;", "0 ; 1 ;"])
def test_empty_glue_group_usage_error(tmp_path, capsys, glue):
    # a trailing ';' leaves an empty glue group: the kernel refuses it, and
    # the file is named on one error line, without a traceback
    codefile = tmp_path / "code.txt"
    codefile.write_text(f"kernel ell=2 q=2\nG 1 0\nG 1 1\nglue {glue}\nm 1\n")
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text("1 1")
    code, out, err = run_cli(capsys, "decode", "--code", str(codefile), "--in", str(llrfile))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {codefile}: "), err
    assert "glue" in err


@pytest.mark.parametrize("error", INPUT_ERRORS)
def test_input_error_is_usage_error(capsys, monkeypatch, error):
    # the library's refusal of a value it was given is one error line and exit 2
    def boom(*args):
        raise error("boom")

    monkeypatch.setattr("polarbench.cli.construct_bec", boom)
    code, out, err = run_cli(capsys, "construct", "--N", "8", "--rate", "0.5")
    assert code == 2
    assert out == ""
    assert err == "error: boom\n"


def test_other_value_error_propagates(capsys, monkeypatch):
    # a ValueError of numpy's own is a fault of the program, not a usage
    # error: it keeps its traceback instead of exiting 2
    def reshape_empty(*args):
        return np.zeros(0).reshape(3)

    monkeypatch.setattr("polarbench.cli.construct_bec", reshape_empty)
    with pytest.raises(ValueError, match="cannot reshape"):
        run_cli(capsys, "construct", "--N", "8", "--rate", "0.5")


def test_decode_huge_finite_llrs_no_warning(tmp_path, capsys):
    # LLRs near the float64 ceiling decode as large ones do, with nothing
    # on stderr (their sums used to overflow, with numpy warnings)
    codefile = tmp_path / "code.txt"
    codefile.write_text("kernel ell=2 q=2\nm 2\nfrozen 0\n")
    llrfile = tmp_path / "llr.txt"
    decoded = []
    for big in ("1e308", "1e18"):
        llrfile.write_text(f"{big} {big} -{big} {big}")
        code, out, err = run_cli(capsys, "decode", "--code", str(codefile), "--in", str(llrfile))
        assert code == 0
        assert err == ""
        decoded.append(out)
    assert decoded[0] == decoded[1]


def test_decode_llr_rows_beyond_float_range_no_warning(tmp_path, capsys):
    # every GF(3) row is [0, 1e308, -1e308]: symbol 2 surely, found without
    # an overflow warning on stderr
    codefile = tmp_path / "code.txt"
    codefile.write_text(GF3_CODE)
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text(" ".join(["1e308 -1e308"] * 4))
    code, out, err = run_cli(capsys, "decode", "--code", str(codefile), "--in", str(llrfile))
    assert (code, out, err) == (0, "0 0 0 2\n", "")


def test_decode_nonbinary_llr_layout(tmp_path, capsys):
    # q=4 code: three llr values per position
    codefile = tmp_path / "code.txt"
    codefile.write_text("kernel ell=2 q=4\nG 1 0\nG 1 1\nm 1\nfrozen 0\n")
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text(" ".join(["2.0", "2.0", "2.0"] * 2))
    code, out, _ = run_cli(
        capsys, "decode", "--code", str(codefile), "--in", str(llrfile)
    )
    assert code == 0
    assert [int(t) for t in out.split()] == [0, 0]
    llrfile.write_text("1.0 2.0")
    code, _, err = run_cli(
        capsys, "decode", "--code", str(codefile), "--in", str(llrfile)
    )
    assert code == 2


def test_decode_wrong_length(tmp_path, capsys, small_code):
    llrfile = tmp_path / "llr.txt"
    llrfile.write_text("1.0 2.0")
    code, _, err = run_cli(capsys, "decode", "--code", str(small_code), "--in", str(llrfile))
    assert code == 2


# config file and environment seed ---------------------------------------------


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# defaults\ntrials = 150\nseed = 5\nchannel = bec:0.35\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--N", "8", "--rate", "0.5"
    )
    assert code == 0
    cols = out.strip().splitlines()[1].split(",")
    assert cols[2] == "0.35"
    assert cols[7] == "150"
    assert cols[10] == "5"


def test_config_explicit_flags_win(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("trials = 150\nseed = 5\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--N", "8", "--rate", "0.5",
        "--trials", "80",
    )
    assert code == 0
    cols = out.strip().splitlines()[1].split(",")
    assert cols[7] == "80"
    assert cols[10] == "5"


def test_config_boolean_values(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("min_sum = yes\ntrials = 60\n")
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--N", "8", "--rate", "0.5",
        "--seed", "0",
    )
    assert code == 0
    cfg.write_text("min_sum = no\ntrials = 60\n")
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--N", "8", "--rate", "0.5",
        "--seed", "0",
    )
    assert code == 0


@pytest.mark.parametrize("via_config", [False, True])
def test_min_sum_with_scl_usage_error(tmp_path, capsys, via_config):
    # scl never reads --min-sum; the flag is refused rather than ignored
    argv = ["simulate", "--decoder", "scl", "--list-size", "4", "--channel", "bsc:0.08",
            "--N", "32", "--rate", "0.5", "--trials", "200", "--seed", "2"]
    if via_config:
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("min_sum = yes\n")
        argv[1:1] = ["--config", str(cfg)]
    else:
        argv.append("--min-sum")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --min-sum is read by bp and by sc on the (u+v, v) kernel only"]


def test_config_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config")
    assert code == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a pair\n")
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--N", "8", "--rate", "0.5"
    )
    assert code == 2
    assert "bad config line" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--config", "{missing}", "--N", "8", "--rate", "0.5"),
    ("hwsim", "--config", "{missing}", "--arch", "sc-line", "--N", "8"),
    ("encode", "--code", "{missing}", "--in", "{missing}"),
])
def test_missing_file_error(tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(missing) in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--code", "{bad}", "--trials", "10"),
    ("construct", "--kernel", "{bad}", "--m", "2", "--rate", "0.5", "--mc-trials", "10"),
    ("encode", "--code", "{code}", "--in", "{bad}"),
    ("decode", "--code", "{code}", "--in", "{bad}"),
    ("simulate", "--config", "{bad}", "--N", "8", "--rate", "0.5"),
])
def test_non_utf8_file_error(tmp_path, capsys, argv):
    # UnicodeDecodeError is a ValueError: each reader reports it as a usage error
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00")
    code_file = tmp_path / "code.txt"
    run_cli(capsys, "construct", "--N", "8", "--rate", "0.5", "--out", str(code_file))
    code, out, err = run_cli(capsys, *(a.format(bad=bad, code=code_file) for a in argv))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(bad) in err
    assert "Traceback" not in err


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POLARBENCH_SEED", "77")
    _, out1, _ = run_cli(
        capsys, "simulate", "--N", "8", "--rate", "0.5", "--trials", "60"
    )
    assert out1.strip().splitlines()[1].split(",")[10] == "77"
    monkeypatch.delenv("POLARBENCH_SEED")
    _, out2, _ = run_cli(
        capsys, "simulate", "--N", "8", "--rate", "0.5", "--trials", "60"
    )
    assert out2.strip().splitlines()[1].split(",")[10] == "0"


def test_channel_parse_error(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--N", "8", "--rate", "0.5", "--channel", "bec"
    )
    assert code == 2
