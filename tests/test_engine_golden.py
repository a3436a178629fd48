"""Golden pins of every hardware model: trace text, report text and
decisions, byte for byte.

Each case renders the full per-cycle trace, the cycle report and the hard
decisions of one run and compares a sha256 prefix with a recorded value.
The binary inputs cover exact and min-sum arithmetic, evidence with +-inf
entries, frozen values of 1, several BP iterations and multi-codeword runs
at N = 2, 8 and 16. The general-line inputs cover ell = 2 and 4 over GF(2),
an ell = 3 kernel over GF(3) and the (u+v, v) kernel over GF(4), with
Gaussian likelihood rows and rows holding zeros, nonzero frozen values and
N up to 64.
"""

import hashlib

import numpy as np
import pytest

from polarbench.hwsim import run_bp_line, run_general_line, run_sc, run_sc_multi
from polarbench.kernels import CodeSpec, encode, kernel_arikan, kernel_linear

from conftest import numpy_is_libm, run_pytest_under_libm

ARIKAN = kernel_arikan()
SIZES = (2, 8, 16)


def _spec(n):
    m = n.bit_length() - 1
    # the first half frozen, every third frozen coordinate pinned to 1
    return CodeSpec(ARIKAN, m, {i: int(i % 3 == 1) for i in range(n // 2)})


def _llr(n, kind, salt=0):
    lam = np.random.default_rng([n, salt]).normal(0.0, 2.0, n)
    if kind == "inf":
        lam[1] = np.inf
        lam[n // 2] = -np.inf  # at N = 2 this replaces the +inf
    return lam


def _bits(arr):
    return "".join(str(int(v)) for v in arr)


def _sc_text(n, arch, i, min_sum, kind):
    run = run_sc(_spec(n), _llr(n, kind), arch=arch, i_param=i, min_sum=min_sum, trace=True)
    return (run.trace.to_text() + run.report.to_text()
            + f"u={_bits(run.u_hat)}\nx={_bits(run.x_hat)}\n")


def _bp_text(n, iters, min_sum, kind):
    run = run_bp_line(_spec(n), _llr(n, kind), iterations=iters, min_sum=min_sum, trace=True)
    return (run.trace.to_text() + run.report.to_text()
            + f"u={_bits(run.u_hat)}\nx={_bits(run.x_hat)}\ncontradiction={run.contradiction}\n")


def _multi_text(n, p, min_sum, kind):
    words = [_llr(n, kind if c % 2 else "gauss", salt=c) for c in range(p)]
    run = run_sc_multi(_spec(n), words, min_sum=min_sum, trace=True)
    text = run.trace.to_text() + run.report.to_text()
    for u_hat, x_hat in run.results:
        text += f"u={_bits(u_hat)}\nx={_bits(x_hat)}\n"
    return text


GL_KERNELS = {
    "gf2l2": ([[1, 0], [1, 1]], 2, (1, 3, 6)),
    "gf2l4": ([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]], 2, (1, 2, 3)),
    "gf3l3": ([[1, 0, 0], [1, 1, 0], [1, 2, 1]], 3, (1, 2, 3)),
    "gf4l2": ([[1, 0], [1, 1]], 4, (1, 3, 5)),
}


def _gl_text(name, m, kind):
    G, q, _ = GL_KERNELS[name]
    kernel = kernel_linear(G, q=q)
    n = kernel.ell**m
    # the first half frozen, values cycling through the field
    spec = CodeSpec(kernel, m, {i: (i * 2 + 1) % q for i in range(n // 2)})
    rng = np.random.default_rng([n, q, kind == "zeros"])
    x = encode(spec, spec.assemble(rng.integers(0, q, spec.k_info)))
    rows = np.exp(rng.normal(0.0, 1.5, (n, q)))
    rows[np.arange(n), x] *= 4.0
    if kind == "zeros":
        # zero about a third of the entries, never the transmitted symbol
        zero = rng.random((n, q)) < 0.35
        zero[np.arange(n), x] = False
        rows[zero] = 0.0
    run = run_general_line(spec, rows, trace=True)
    return (run.trace.to_text() + run.report.to_text()
            + f"u={_bits(run.u_hat)}\nx={_bits(run.x_hat)}\n")


def _cases():
    cases = {}
    for name, (_, _, depths) in GL_KERNELS.items():
        for m in depths:
            for kind in ("gauss", "zeros"):
                cases[f"general_line-{name}-m{m}-{kind}"] = (_gl_text, (name, m, kind))
    for n in SIZES:
        m = n.bit_length() - 1
        for min_sum in (False, True):
            for kind in ("gauss", "inf"):
                tag = f"{n}-{'ms' if min_sum else 'exact'}-{kind}"
                for arch in ("sc_pipeline", "sc_line"):
                    cases[f"{arch}-{tag}"] = (_sc_text, (n, arch, 1, min_sum, kind))
                for i in range(1, m + 1):
                    cases[f"sc_limited{i}-{tag}"] = (_sc_text, (n, "sc_limited", i, min_sum, kind))
                for iters in (1, 3):
                    cases[f"bp_line{iters}-{tag}"] = (_bp_text, (n, iters, min_sum, kind))
                for p in sorted({1, 3, n - 1} & set(range(1, n))):
                    cases[f"sc_multi{p}-{tag}"] = (_multi_text, (n, p, min_sum, kind))
    return cases


CASES = _cases()


def digest(case: str) -> str:
    fn, args = CASES[case]
    return hashlib.sha256(fn(*args).encode()).hexdigest()[:16]


GOLDEN = {
    "bp_line1-16-exact-gauss": "666dd398fff32c47",
    "bp_line1-16-exact-inf": "136aadc08b9d7a70",
    "bp_line1-16-ms-gauss": "8fb5033b96d5b55b",
    "bp_line1-16-ms-inf": "3e69693d6576a1b8",
    "bp_line1-2-exact-gauss": "334ec8c9ab7cc8d7",
    "bp_line1-2-exact-inf": "b08338f7309ee39e",
    "bp_line1-2-ms-gauss": "df31a67f887b7dc2",
    "bp_line1-2-ms-inf": "b08338f7309ee39e",
    "bp_line1-8-exact-gauss": "fb1c6c105e43b56c",
    "bp_line1-8-exact-inf": "113a9c06305f5871",
    "bp_line1-8-ms-gauss": "7445a6cc5fb35b0a",
    "bp_line1-8-ms-inf": "cc6a27c356aa5405",
    "bp_line3-16-exact-gauss": "a4164e5534a4325e",
    "bp_line3-16-exact-inf": "abb77a29cf33a476",
    "bp_line3-16-ms-gauss": "473fa03ea36dd42b",
    "bp_line3-16-ms-inf": "d3ffa3575cb166c9",
    "bp_line3-2-exact-gauss": "a6c5c7946374a531",
    "bp_line3-2-exact-inf": "efddf51c7abc774e",
    "bp_line3-2-ms-gauss": "7fa1f7b2a03ae29a",
    "bp_line3-2-ms-inf": "efddf51c7abc774e",
    "bp_line3-8-exact-gauss": "1a4fdf22e0bf2efc",
    "bp_line3-8-exact-inf": "8d7d69e2a4bfb4e8",
    "bp_line3-8-ms-gauss": "6cc5363ad286c79f",
    "bp_line3-8-ms-inf": "d7ff3552d6431e96",
    "general_line-gf2l2-m1-gauss": "615934878e4984da",
    "general_line-gf2l2-m1-zeros": "01555756114c75c4",
    "general_line-gf2l2-m3-gauss": "250a13a57d3213fa",
    "general_line-gf2l2-m3-zeros": "6f931181e54d1e31",
    "general_line-gf2l2-m6-gauss": "1cb30388f962af64",
    "general_line-gf2l2-m6-zeros": "6127101588992bd3",
    "general_line-gf2l4-m1-gauss": "3bfa9028a04aab4b",
    "general_line-gf2l4-m1-zeros": "cba247ad8eee7ee8",
    "general_line-gf2l4-m2-gauss": "834a981c3fc4eb0c",
    "general_line-gf2l4-m2-zeros": "2daeb3d86d10bd77",
    "general_line-gf2l4-m3-gauss": "44fb7ab62cc3d069",
    "general_line-gf2l4-m3-zeros": "134da5b959ba69fc",
    "general_line-gf3l3-m1-gauss": "d5dc162ae4385a50",
    "general_line-gf3l3-m1-zeros": "3fb38b1f6461fb45",
    "general_line-gf3l3-m2-gauss": "9243f46e0b813486",
    "general_line-gf3l3-m2-zeros": "a4bd42924cf50836",
    "general_line-gf3l3-m3-gauss": "e97728e48382a758",
    "general_line-gf3l3-m3-zeros": "f48ece49364fd632",
    "general_line-gf4l2-m1-gauss": "5374aaa22f1d6f19",
    "general_line-gf4l2-m1-zeros": "d87e7dbdeef2ae3f",
    "general_line-gf4l2-m3-gauss": "a11735996ed8f664",
    "general_line-gf4l2-m3-zeros": "70c54dc34b4712f7",
    "general_line-gf4l2-m5-gauss": "51dcd8a42a079f34",
    "general_line-gf4l2-m5-zeros": "5ce115c008c36c18",
    "sc_limited1-16-exact-gauss": "8d426eed0bc38dda",
    "sc_limited1-16-exact-inf": "e5384e87e9dd8285",
    "sc_limited1-16-ms-gauss": "7fa9ebfa93441a7c",
    "sc_limited1-16-ms-inf": "0dbbfabf1a914b9d",
    "sc_limited1-2-exact-gauss": "d7dcd9b894654f20",
    "sc_limited1-2-exact-inf": "8d2f234d656e8b96",
    "sc_limited1-2-ms-gauss": "ef4c5935cba4fdc3",
    "sc_limited1-2-ms-inf": "8d2f234d656e8b96",
    "sc_limited1-8-exact-gauss": "c17b03bf950f7b8c",
    "sc_limited1-8-exact-inf": "3d845434f0609ea4",
    "sc_limited1-8-ms-gauss": "3e486b773e8a6c55",
    "sc_limited1-8-ms-inf": "48ee638542965eea",
    "sc_limited2-16-exact-gauss": "3c637a8dd43072f7",
    "sc_limited2-16-exact-inf": "32a82851ead29d40",
    "sc_limited2-16-ms-gauss": "746b77a77afbaeaf",
    "sc_limited2-16-ms-inf": "bac528db4b18f0db",
    "sc_limited2-8-exact-gauss": "3e4688f9cd861ec4",
    "sc_limited2-8-exact-inf": "613750bb117e7825",
    "sc_limited2-8-ms-gauss": "00d3956cd17f9e15",
    "sc_limited2-8-ms-inf": "3b1bb18e70fc2317",
    "sc_limited3-16-exact-gauss": "3125e1bda775a7b0",
    "sc_limited3-16-exact-inf": "663399c7dc05134d",
    "sc_limited3-16-ms-gauss": "6dd71415a2a836f7",
    "sc_limited3-16-ms-inf": "2f21b1dfcf71f547",
    "sc_limited3-8-exact-gauss": "c28ef4c04abf83fc",
    "sc_limited3-8-exact-inf": "876435b67c53b601",
    "sc_limited3-8-ms-gauss": "0d1246333d3e0d74",
    "sc_limited3-8-ms-inf": "e699b75d15decc68",
    "sc_limited4-16-exact-gauss": "9b1d4e6d29537d9a",
    "sc_limited4-16-exact-inf": "5096edb210896440",
    "sc_limited4-16-ms-gauss": "5cebcdadb08b0464",
    "sc_limited4-16-ms-inf": "8f5bf99ac8de7c82",
    "sc_line-16-exact-gauss": "843823e9b8bdc665",
    "sc_line-16-exact-inf": "e620db3eabdee4be",
    "sc_line-16-ms-gauss": "5407603b009657cf",
    "sc_line-16-ms-inf": "4ba239216df342c2",
    "sc_line-2-exact-gauss": "6630e1ee7bb2516a",
    "sc_line-2-exact-inf": "42ee8201b61f450c",
    "sc_line-2-ms-gauss": "fab96372aa083c33",
    "sc_line-2-ms-inf": "42ee8201b61f450c",
    "sc_line-8-exact-gauss": "5095c091e033347f",
    "sc_line-8-exact-inf": "c6f6bdb351c83ca7",
    "sc_line-8-ms-gauss": "4d4b0d941d281861",
    "sc_line-8-ms-inf": "a0d74b3080e83f7a",
    "sc_multi1-16-exact-gauss": "601d4fb706456f4d",
    "sc_multi1-16-exact-inf": "601d4fb706456f4d",
    "sc_multi1-16-ms-gauss": "601d4fb706456f4d",
    "sc_multi1-16-ms-inf": "601d4fb706456f4d",
    "sc_multi1-2-exact-gauss": "3182a6b41727b8ff",
    "sc_multi1-2-exact-inf": "3182a6b41727b8ff",
    "sc_multi1-2-ms-gauss": "3182a6b41727b8ff",
    "sc_multi1-2-ms-inf": "3182a6b41727b8ff",
    "sc_multi1-8-exact-gauss": "a19f91b00b77753e",
    "sc_multi1-8-exact-inf": "a19f91b00b77753e",
    "sc_multi1-8-ms-gauss": "a19f91b00b77753e",
    "sc_multi1-8-ms-inf": "a19f91b00b77753e",
    "sc_multi15-16-exact-gauss": "4559912ba74b2857",
    "sc_multi15-16-exact-inf": "95bec4971b84ffd5",
    "sc_multi15-16-ms-gauss": "4559912ba74b2857",
    "sc_multi15-16-ms-inf": "95bec4971b84ffd5",
    "sc_multi3-16-exact-gauss": "6efb45881ff3e902",
    "sc_multi3-16-exact-inf": "dc55927f14a90e03",
    "sc_multi3-16-ms-gauss": "6efb45881ff3e902",
    "sc_multi3-16-ms-inf": "dc55927f14a90e03",
    "sc_multi3-8-exact-gauss": "f5986d8591aa61c6",
    "sc_multi3-8-exact-inf": "2b231d1b22addb27",
    "sc_multi3-8-ms-gauss": "f5986d8591aa61c6",
    "sc_multi3-8-ms-inf": "2b231d1b22addb27",
    "sc_multi7-8-exact-gauss": "6d47c41633c38e70",
    "sc_multi7-8-exact-inf": "fbe3dc1a0855c556",
    "sc_multi7-8-ms-gauss": "6d47c41633c38e70",
    "sc_multi7-8-ms-inf": "fbe3dc1a0855c556",
    "sc_pipeline-16-exact-gauss": "d9c8e56f0b23eace",
    "sc_pipeline-16-exact-inf": "d18e88206e09c0d2",
    "sc_pipeline-16-ms-gauss": "ef0f7b36b8a6d94b",
    "sc_pipeline-16-ms-inf": "59ac56e4f4f6a0a0",
    "sc_pipeline-2-exact-gauss": "2b83a07bc07c109a",
    "sc_pipeline-2-exact-inf": "c7422e48e0daedfb",
    "sc_pipeline-2-ms-gauss": "3ced2e02f9b44ad9",
    "sc_pipeline-2-ms-inf": "c7422e48e0daedfb",
    "sc_pipeline-8-exact-gauss": "0a6fe030b7041577",
    "sc_pipeline-8-exact-inf": "f99fe7066cad123c",
    "sc_pipeline-8-ms-gauss": "e1d4c5c64749f6ed",
    "sc_pipeline-8-ms-inf": "c99551c281d4260d",
}


# the cases whose likelihood rows round differently under libm's exp and
# log (GOLDEN holds numpy's AVX-512 loops), recorded with
# conftest.LIBM_DISPATCH; conftest.numpy_is_libm picks the column
GOLDEN_LIBM = {
    "general_line-gf2l4-m3-gauss": "e037bdfc30a68c45",
    "general_line-gf2l4-m3-zeros": "83c0c7698f4e824d",
}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
    assert set(GOLDEN_LIBM) <= set(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_golden(case):
    want = GOLDEN_LIBM.get(case, GOLDEN[case]) if numpy_is_libm() else GOLDEN[case]
    assert digest(case) == want


@pytest.mark.skipif(numpy_is_libm(), reason="numpy already calls libm here: the goldens ran on that column")
def test_engine_goldens_hold_under_libm_dispatch():
    # the cases with a libm digest once more in a child process whose numpy
    # runs exp, log1p and log through libm, so that this host checks both
    # columns
    done = run_pytest_under_libm(*(f"tests/test_engine_golden.py::test_engine_golden[{case}]"
                                   for case in sorted(GOLDEN_LIBM)))
    assert done.returncode == 0, done.stdout[-2000:]
    assert f"{len(GOLDEN_LIBM)} passed" in done.stdout
