"""Command-line front end.

Subcommands: construct (write a code spec file), simulate (Monte-Carlo
BER/FER to CSV), hwsim (cycle-accurate architecture run + closed-form
audit), encode and decode (single-block file mode). A --config file of
key=value lines fills in defaults; explicit flags win. POLARBENCH_SEED
provides the default seed. Exit codes: 0 ok, 1 failed check, 2 usage: a
bad flag or file, or one of the library's input errors (INPUT_ERRORS),
each reported as one "error: <message>" line. Any other exception is a
fault of the program and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import hwsim
from .channels import ChannelModel, DegenerateEvidenceError, likelihood_rows_binary
from .construction import construct_bec, construct_montecarlo
from .gf import AlphabetError
from .kernels import (
    CodeLengthError, CodeSpec, FrozenMismatchError, InvalidKernelError, Kernel, SpecFormatError,
    code_depth, dump_codespec, encode, kernel_arikan, kernel_linear, load_codespec, load_kernel,
)
from .llrops import LlrContradiction
from .montecarlo import CSV_HEADER, csv_row, decode_frame, reads_min_sum, run_trials
from .sc import UnsupportedCodeError

# binary length-4 kernel used when general-line runs without a kernel file
G4_DEFAULT = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]

# the library's refusals of a value or a code it was given: a usage error,
# like a bad flag
INPUT_ERRORS = (AlphabetError, CodeLengthError, DegenerateEvidenceError, FrozenMismatchError,
                InvalidKernelError, SpecFormatError, UnsupportedCodeError)

ARCH_NAMES = {
    "sc-pipeline": "sc_pipeline",
    "sc-line": "sc_line",
    "sc-line-limited": "sc_limited",
    "sc-multi": "sc_multi",
    "bp-line": "bp_line",
    "general-line": "general_line",
}


def _parse_channel(text: str) -> ChannelModel:
    kind, sep, param = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"channel must be kind:param, got {text!r}")
    try:
        return ChannelModel(kind, float(param))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < low:
        kind = "positive" if low == 1 else "non-negative"
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _default_seed() -> int:
    try:
        return _non_negative_int(os.environ.get("POLARBENCH_SEED", "0"))
    except argparse.ArgumentTypeError as e:
        raise SystemExit(f"error: POLARBENCH_SEED: {e}")


def _write_out(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_file(path: str, loader):
    """loader(text of path); a malformed file is a usage error."""
    try:
        with open(path) as fh:
            return loader(fh.read())
    except ValueError as e:  # UnicodeDecodeError included
        raise SystemExit(f"error: {path}: {e}")


def _read_numbers(path: str, conv) -> list:
    """conv of each whitespace-separated token; a bad token is a usage error."""
    return _load_file(path, lambda text: [conv(t) for t in text.split()])


def _apply_config(argv: list[str]) -> list[str]:
    """Expand --config FILE into flags placed before the explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise SystemExit("error: --config needs a file argument")
    path = argv[i + 1]
    argv = argv[:i] + argv[i + 2 :]
    if not argv:
        raise SystemExit("error: --config requires a subcommand")
    inject: list[str] = []
    for raw in _load_file(path, lambda text: text.split("\n")):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise SystemExit(f"error: bad config line {line!r}")
        flag = "--" + key.strip().replace("_", "-")
        val = val.strip()
        if val.lower() in ("true", "yes"):
            inject.append(flag)
        elif val.lower() not in ("false", "no"):
            inject.extend([flag, val])
    return [argv[0]] + inject + argv[1:]


# subcommand handlers --------------------------------------------------------

def _check_kernel(kernel: Kernel, decoder: str, channel: bool, min_sum: bool = False) -> None:
    """Refuse a kernel the command cannot take: channel trials (simulate and
    Monte-Carlo construction) send binary words, bp decodes the (u+v, v)
    kernel only, and only bp and SC on that kernel read --min-sum."""
    if channel and kernel.q != 2:
        raise SystemExit("error: channel trials need a binary-alphabet kernel")
    if decoder == "bp" and not kernel.is_arikan:
        raise SystemExit("error: bp decoding needs the binary (u+v, v) kernel")
    if min_sum and not reads_min_sum(kernel, decoder):
        raise SystemExit("error: --min-sum is read by bp and by sc on the (u+v, v) kernel only")


def cmd_construct(args) -> int:
    if args.kernel:
        kernel = _load_file(args.kernel, load_kernel)
        if args.m is None:
            raise SystemExit("error: --kernel needs --m")
        if args.mc_trials <= 0:
            raise SystemExit("error: custom kernels are constructed by --mc-trials")
        _check_kernel(kernel, "sc", channel=True)  # the genie decoder is SC
        m = args.m
    else:
        if args.N is None:
            raise SystemExit("error: give --N or --kernel")
        kernel, m = kernel_arikan(), code_depth(args.N, 2)
    if args.mc_trials > 0:
        spec = construct_montecarlo(
            kernel, m, args.channel, args.rate, args.mc_trials, np.random.default_rng(args.seed)
        )
    elif args.channel.kind != "bec":
        raise SystemExit("error: analytic construction covers bec only; use --mc-trials")
    else:
        spec = construct_bec(m, args.channel.param, args.rate)
    _write_out(args.out, dump_codespec(spec))
    return 0


def cmd_simulate(args) -> int:
    if args.code:
        spec = _load_file(args.code, load_codespec)
    else:
        if args.N is None or args.rate is None:
            raise SystemExit("error: give --code or both --N and --rate")
        m = code_depth(args.N, 2)
        # non-erasure channels fall back to the epsilon=0.5 erasure profile
        eps = args.channel.param if args.channel.kind == "bec" else 0.5
        spec = construct_bec(m, eps, args.rate)
    _check_kernel(spec.kernel, args.decoder, channel=True, min_sum=args.min_sum)
    stats = run_trials(
        spec,
        args.channel,
        args.decoder,
        args.trials,
        args.seed,
        list_size=args.list_size,
        iters=args.iters,
        min_sum=args.min_sum,
        jobs=args.jobs,
    )
    list_col = args.list_size if args.decoder == "scl" else 1
    iters_col = args.iters if args.decoder == "bp" else 0
    row = csv_row(args.decoder, args.channel, spec, stats, args.seed, list_col, iters_col)
    _write_out(args.out, CSV_HEADER + "\n" + row + "\n")
    return 0


def _hwsim_spec(args, arch: str, n: int):
    rate = args.rate
    if arch == "general_line":
        if args.kernel:
            kernel = _load_file(args.kernel, load_kernel)
        elif args.ell == 2:
            kernel = kernel_linear([[1, 0], [1, 1]])
        elif args.ell == 4:
            kernel = kernel_linear(G4_DEFAULT)
        else:
            raise SystemExit("error: give --kernel for this ell")
        m = code_depth(n, kernel.ell)
        # frozen-set choice does not affect the cycle audit
        n_frozen = n - int(rate * n)
        return CodeSpec(kernel, m, {i: 0 for i in range(n_frozen)})
    m = code_depth(n, 2)
    return construct_bec(m, 0.5, rate)


def cmd_hwsim(args) -> int:
    arch = ARCH_NAMES[args.arch]
    n = args.N
    rng = np.random.default_rng(args.seed)
    spec = _hwsim_spec(args, arch, n)
    want_trace = bool(args.trace)

    if arch == "sc_limited" and args.i > spec.m:
        raise SystemExit(f"error: --i must be at most log2 N = {spec.m}")
    if arch == "sc_multi" and args.p > n - 1:
        raise SystemExit(f"error: --p must be at most N-1 = {n - 1}")

    if arch in ("sc_pipeline", "sc_line", "sc_limited"):
        run = hwsim.run_sc(spec, rng.normal(0, 2, n), arch=arch, i_param=args.i, trace=want_trace)
    elif arch == "sc_multi":
        p = args.p if args.p else n - 1
        lams = [rng.normal(0, 2, n) for _ in range(p)]
        run = hwsim.run_sc_multi(spec, lams, trace=want_trace)
    elif arch == "bp_line":
        run = hwsim.run_bp_line(spec, rng.normal(0, 2, n), iterations=args.iters, trace=want_trace)
    else:
        q = spec.kernel.q
        if q == 2:
            rows = likelihood_rows_binary(rng.normal(0, 2, n))
        else:
            rows = rng.random((n, q)) + 1e-3
        run = hwsim.run_general_line(spec, rows, trace=want_trace)

    sys.stdout.write(run.report.to_text())
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(run.trace.to_text())
    if args.check_formulas:
        mismatches = hwsim.check_formulas(run.report)
        for line in mismatches:
            sys.stderr.write(f"formula mismatch -- {line}\n")
        if mismatches:
            return 1
    return 0


def cmd_encode(args) -> int:
    spec = _load_file(args.code, load_codespec)
    vals = np.array(_read_numbers(args.infile, int), dtype=np.int64)
    try:
        spec.kernel.alph.check_symbols(vals)
    except ValueError as e:
        raise SystemExit(f"error: {args.infile}: {e}")
    if len(vals) == spec.k_info:
        u = spec.assemble(vals)
    elif len(vals) == spec.n:
        u = vals
    else:
        raise SystemExit(
            f"error: expected {spec.k_info} info symbols or {spec.n} full symbols, got {len(vals)}"
        )
    try:
        x = encode(spec, u)
    except FrozenMismatchError as e:
        sys.stderr.write(f"encode failed: {e}\n")
        return 1
    _write_out(args.out, " ".join(str(int(v)) for v in x) + "\n")
    return 0


def cmd_decode(args) -> int:
    spec = _load_file(args.code, load_codespec)
    _check_kernel(spec.kernel, args.decoder, channel=False, min_sum=args.min_sum)
    q = spec.kernel.q
    n = spec.n
    vals = _read_numbers(args.infile, float)
    nan = np.flatnonzero(np.isnan(vals))
    if nan.size:
        raise SystemExit(f"error: {args.infile}: llr value {nan[0]} is NaN")
    if q == 2:
        if len(vals) != n:
            raise SystemExit(f"error: expected {n} llr values, got {len(vals)}")
        llr = np.array(vals)
    else:
        if len(vals) != n * (q - 1):
            raise SystemExit(f"error: expected {n * (q - 1)} llr values ({q - 1} per position)")
        # column 0 is symbol 0 against itself
        llr = np.hstack([np.zeros((n, 1)), np.reshape(vals, (n, q - 1))])
    try:
        u_hat = decode_frame(spec, args.decoder, llr, args.list_size, args.iters, args.min_sum)
    except (LlrContradiction, DegenerateEvidenceError) as e:
        sys.stderr.write(f"decode failed: {e}\n")
        return 1
    _write_out(args.out, " ".join(str(int(v)) for v in u_hat) + "\n")
    return 0


# parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarbench",
        description="polar-code construction, Monte-Carlo evaluation, and decoder architecture simulation",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    decoding = argparse.ArgumentParser(add_help=False)  # the decoder flags of simulate and decode
    decoding.add_argument("--decoder", choices=("sc", "scl", "bp"), default="sc")
    decoding.add_argument("--list-size", type=_positive_int, default=8)
    decoding.add_argument("--iters", type=_positive_int, default=40)
    decoding.add_argument("--min-sum", action="store_true")

    p = sub.add_parser("construct", help="build a code and write its spec file")
    p.add_argument("--N", type=int, help="code length (power of 2, Arikan kernel)")
    p.add_argument("--kernel", metavar="FILE", help="kernel spec file (needs --m)")
    p.add_argument("--m", type=_positive_int, help="recursion depth for --kernel")
    p.add_argument("--rate", type=_rate, required=True)
    p.add_argument("--channel", type=_parse_channel, default=ChannelModel("bec", 0.5),
                   help="kind:param, e.g. bec:0.5 bsc:0.1 biawgn:0.8")
    p.add_argument("--mc-trials", type=_non_negative_int, default=0,
                   help="genie-aided construction trials; 0 = analytic erasure profile")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("simulate", help="Monte-Carlo BER/FER, CSV output", parents=[decoding])
    p.add_argument("--code", metavar="FILE", help="code spec file (else --N/--rate)")
    p.add_argument("--N", type=int)
    p.add_argument("--rate", type=_rate)
    p.add_argument("--channel", type=_parse_channel, default=ChannelModel("bec", 0.5))
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("hwsim", help="run one architecture model, print its report")
    p.add_argument("--arch", choices=sorted(ARCH_NAMES), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--i", type=_positive_int, default=1,
                   help="parallelism cut for sc-line-limited, at most log2 N")
    p.add_argument("--p", type=_non_negative_int, default=0,
                   help="codewords for sc-multi, at most N-1 (0 = N-1)")
    p.add_argument("--iters", type=_positive_int, default=1, help="iterations for bp-line")
    p.add_argument("--ell", type=int, default=2, help="kernel size for general-line")
    p.add_argument("--kernel", metavar="FILE", help="kernel spec file for general-line")
    p.add_argument("--rate", type=_rate, default=0.5)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--check-formulas", action="store_true",
                   help="exit 1 if any counted value disagrees with its closed form")
    p.add_argument("--trace", metavar="FILE", help="write per-cycle activity log")
    p.set_defaults(fn=cmd_hwsim)

    p = sub.add_parser("encode", help="encode one block from a file")
    p.add_argument("--code", metavar="FILE", required=True)
    p.add_argument("--in", dest="infile", metavar="FILE", required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode one block of llrs from a file", parents=[decoding])
    p.add_argument("--code", metavar="FILE", required=True)
    p.add_argument("--in", dest="infile", metavar="FILE", required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_decode)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        if getattr(args, "seed", 0) is None:  # POLARBENCH_SEED stands in for --seed
            args.seed = _default_seed()
        return args.fn(args)
    except SystemExit as e:
        # usage-level problems: --config and the handlers raise
        # SystemExit(message); argparse exits with its own code
        if isinstance(e.code, str):
            sys.stderr.write(e.code + "\n")
            return 2
        return e.code if e.code is not None else 0
    except INPUT_ERRORS as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
