"""Recursive polar-style codec: SC/SCL/BP decoders for arbitrary kernels,
cycle-accurate decoder hardware models, and a Monte-Carlo harness."""

from .bp import BpResult, bp_decode
from .channels import ChannelModel, bec, biawgn, bsc, transmit
from .construction import construct_bec, construct_montecarlo
from .kernels import (
    CodeSpec,
    Kernel,
    dump_codespec,
    dump_kernel,
    encode,
    encode_matrix,
    kernel_arikan,
    kernel_from_table,
    kernel_linear,
    load_codespec,
    load_kernel,
)
from .llrops import LlrContradiction, f_plus
from .montecarlo import TrialStats, run_trials
from .sc import decode_sc_arikan, decode_sc_general
from .scl import Crc, SclResult, decode_scl

__all__ = [
    "BpResult",
    "ChannelModel",
    "CodeSpec",
    "Crc",
    "Kernel",
    "LlrContradiction",
    "SclResult",
    "TrialStats",
    "bec",
    "biawgn",
    "bp_decode",
    "bsc",
    "construct_bec",
    "construct_montecarlo",
    "decode_sc_arikan",
    "decode_sc_general",
    "decode_scl",
    "dump_codespec",
    "dump_kernel",
    "encode",
    "encode_matrix",
    "f_plus",
    "kernel_arikan",
    "kernel_from_table",
    "kernel_linear",
    "load_codespec",
    "load_kernel",
    "run_trials",
    "transmit",
]

__version__ = "0.1.0"
