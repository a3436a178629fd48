"""Kernels, code specs, recursive encoding, and their text serialization.

A kernel is a bijection g: F^ell -> F^ell, held as its table: row i holds
g of the input word whose packing is i, its digits weighted by the
kernel's radix (input 0 most significant).

A code of length ell^m applies g recursively: the input splits into ell
consecutive blocks, each block is encoded by the length ell^(m-1) map, and
output position ell*i+j carries g_j of the i-th column of the ell partial
codewords. The code of length ell^k so built is itself a kernel, g's
k-fold power, of size ell^k, and a code of length ell^m built from g is
the code built from that power over m/k levels (the recursive,
generalized-concatenated description of polar codes). encode_unchecked
uses this: each of its passes applies K levels at once by one lookup in
the power's table (Kernel.power_tables), K the largest power whose table
has at most POWER_ROWS rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf import Alphabet, _digits, alphabet


class InvalidKernelError(ValueError):
    pass


class FrozenMismatchError(ValueError):
    pass


class CodeLengthError(ValueError):
    """A code length or depth that no code of the kernel has, or one beyond MAX_N."""


TABLE_LIMIT = 1 << 20  # exhaustive bijectivity check bound
# most rows of a kernel power's table that encode_unchecked applies, beyond
# the kernel's own: small enough to stay in cache and be built in
# microseconds
POWER_ROWS = 256
# longest code length: 1,024x the longest a test, workload or example uses
MAX_N = 2**20

# the (u+v, v) map over GF(2): its generator, and its table, whose row i is
# the output for input i = 2*u0 + u1
_ARIKAN_G = ((1, 0), (1, 1))
_ARIKAN_TABLE = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=np.int64)


def _pack(symbols, q: int) -> int:
    """Mixed-radix index, first symbol most significant."""
    s = 0
    for v in symbols:
        s = s * q + int(v)
    return s


def _words(q: int, width: int) -> np.ndarray:
    """All q**width words as rows, in _pack order (first symbol most significant)."""
    return _digits(q**width, q, width)[:, ::-1]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: derived once and shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _check_size(q: int, ell: int) -> None:
    if ell < 2:
        raise InvalidKernelError("kernel dimension must be >= 2")
    if q**ell > TABLE_LIMIT:
        raise InvalidKernelError(f"q**ell = {q**ell} exceeds exhaustive-check limit {TABLE_LIMIT}")


@dataclass(eq=False)
class Kernel:
    """Bijective map over F^ell with optional generator and glue grouping.

    table[i] holds the ell output symbols for the input word u with
    u @ radix == i, radix being the packing weights q**(ell-1), ..., 1
    (input 0 most significant). glue partitions the input coordinates
    into consecutive groups that are decided jointly: None or an empty
    sequence means singletons, and any list or tuple of groups becomes a
    tuple of tuples. radix and is_arikan are derived from that structure;
    is_arikan means the (u+v, v) table over GF(2) with singleton glue
    groups. Immutable after construction; safe to share between decoders.
    """

    ell: int
    alph: Alphabet
    table: np.ndarray
    generator: np.ndarray | None = None
    glue: tuple[tuple[int, ...], ...] | None = None
    radix: np.ndarray = field(init=False, repr=False)
    is_arikan: bool = field(init=False, default=False)
    _powers: dict = field(init=False, repr=False, default_factory=dict)  # power_tables, once read

    def __post_init__(self):
        q, ell = self.alph.q, self.ell
        _check_size(q, ell)
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.shape != (q**ell, ell):
            raise InvalidKernelError("kernel table has wrong shape")
        self.alph.check_symbols(self.table)
        self.radix = q ** np.arange(ell - 1, -1, -1, dtype=np.int64)
        if len(np.unique(self.table @ self.radix)) != q**ell:
            raise InvalidKernelError("kernel map is not a bijection")
        self.glue = tuple(tuple(g) for g in self.glue or [(i,) for i in range(ell)])
        if not all(self.glue) or [i for g in self.glue for i in g] != list(range(ell)):
            raise InvalidKernelError("glue groups must be non-empty runs that concatenate to 0..ell-1")
        if self.generator is not None:
            self.generator = np.asarray(self.generator, dtype=np.int64)
            if self.generator.shape != (ell, ell):
                raise InvalidKernelError("generator must be ell x ell")
        self.is_arikan = np.array_equal(self.table, _ARIKAN_TABLE) and len(self.glue) == 2

    def __getstate__(self):
        # the power tables are derived: built again, read-only, on their
        # first read after unpickling
        return {**self.__dict__, "_powers": {}}

    # mapping ---------------------------------------------------------------
    @property
    def q(self) -> int:
        return self.alph.q

    def map(self, u) -> tuple[int, ...]:
        return tuple(int(v) for v in self.table[_pack(u, self.q)])

    def map_columns(self, cols: np.ndarray) -> np.ndarray:
        """Apply g to each row of cols (shape (..., ell)) at once."""
        return np.take(self.table, cols @ self.radix, axis=0)

    def power_tables(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """(radix, table) of the kernel's k-fold power by its size w = ell**k,
        for k = 1 .. K: K is the largest k whose table has at most
        POWER_ROWS rows (q**w), or 1 where the kernel's own table has more.
        The k-fold power is the code of length w built from the kernel, and
        table row radix @ v is its codeword of v, with radix = q**(w-1),
        ..., 1. Both are float32, which holds every
        symbol and row index exactly (q**ell <= TABLE_LIMIT < 2**24), so
        that the index product runs in BLAS. Built once, by encode_unchecked
        on every word, and read-only: the dict must not be changed."""
        if not self._powers:
            q, w = self.q, self.ell
            powers, table = {}, self.table.astype(np.float32)
            while True:
                powers[w] = _read_only((q ** np.arange(w - 1, -1, -1)).astype(np.float32), table)
                w *= self.ell
                if q**w > POWER_ROWS:
                    break
                words = _words(q, w).astype(np.float32)
                table = _encode_by_passes(powers, words).reshape(words.shape)
            self._powers = powers
        return self._powers

    def group_at(self, boundary: int) -> tuple[int, ...]:
        """The glue group starting at input coordinate `boundary`."""
        for grp in self.glue:
            if grp[0] == boundary:
                return grp
        raise ValueError(f"coordinate {boundary} is not a glue-group boundary")

    def marginal_view(self, boundary: int) -> np.ndarray:
        """The table as a (q**boundary, q**w, q**n_suffix, ell) array view.

        w is the width of the glue group at `boundary`. Input 0 is the most
        significant digit of a table index, so entry [p, t, s, j] is
        g_j(prefix, group value t, suffix s) where p packs the prefix:
        row p is the lookup for marginalizing the group given that prefix.
        """
        q = self.q
        w = len(self.group_at(boundary))
        return self.table.reshape(q**boundary, q**w, q ** (self.ell - boundary - w), self.ell)


def kernel_arikan() -> Kernel:
    """The (u+v, v) kernel over GF(2)."""
    return kernel_linear(_ARIKAN_G)


def kernel_linear(G, q: int = 2, glue=None) -> Kernel:
    """Kernel u -> u.G over GF(q). G must be invertible."""
    G = np.asarray(G, dtype=np.int64)
    ell = G.shape[0]
    if G.shape != (ell, ell):
        raise InvalidKernelError("G must be square")
    _check_size(q, ell)  # before the table is built
    a = alphabet(q)
    a.check_symbols(G)
    # one step per input, in _pack order: words so far x every value of the next
    table = np.zeros((1, ell), dtype=np.int64)
    for g_i in G:
        table = a.add_table[table[:, None], a.mul_table[:, g_i]].reshape(-1, ell)
    return Kernel(ell=ell, alph=a, table=table, generator=G, glue=glue)


def kernel_from_table(table, q: int = 2, glue=None) -> Kernel:
    """Kernel from an explicit output table (supports non-linear maps)."""
    table = np.asarray(table, dtype=np.int64)
    return Kernel(ell=table.shape[1], alph=alphabet(q), table=table, glue=glue)


# --------------------------------------------------------------------------


def check_length(ell: int, m: int) -> None:
    """CodeLengthError unless ell**m <= MAX_N. A depth of MAX_N.bit_length()
    or more is refused without forming ell**m (ell >= 2)."""
    if m >= MAX_N.bit_length() or ell**m > MAX_N:
        raise CodeLengthError(f"N = {ell}**{m} exceeds the longest supported code length {MAX_N}")


def code_depth(n: int, ell: int) -> int:
    """The depth m >= 1 with ell**m == n; a CodeLengthError if there is none
    or if n exceeds MAX_N."""
    m = 1
    while ell**m < n:
        m += 1
    check_length(ell, m)
    if ell**m != n:
        raise CodeLengthError(f"N={n} is not a power {ell}**m with m >= 1")
    return m


@dataclass(eq=False)
class CodeSpec:
    """A code: kernel, recursion depth m, and frozen coordinates.

    frozen maps input index -> pinned symbol value. The information
    indices and the frozen mask and values are computed once, at
    construction, as read-only arrays, so frozen must not be mutated
    afterwards: build a new CodeSpec instead.

    The node plan (node_plan) holds what the frozen set decides for every
    node of the ell-ary tree, each node being an outer code of its parent:
    the count of frozen inputs and whether every frozen value is 0. It is
    a property of the code, so the decoders read their node kinds there
    and classify nothing per decode.
    """

    kernel: Kernel
    m: int
    frozen: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        check_length(self.kernel.ell, self.m)
        n = self.n
        mask = np.zeros(n, dtype=bool)
        vals = np.zeros(n, dtype=np.int64)
        for i, v in self.frozen.items():
            if not (0 <= i < n):
                raise ValueError(f"frozen index {i} out of range for N={n}")
            if not (0 <= v < self.kernel.q):
                raise ValueError(f"frozen value {v} not a field symbol")
            mask[i] = True
            vals[i] = v
        self._info, self._mask, self._vals = _read_only(np.flatnonzero(~mask), mask, vals)
        self._plans = {}  # cached: node_plan by node width, and more, built on first read

    def __setstate__(self, state):
        # unpickled arrays come back writable: build them again (the node
        # plan on its next read)
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def n(self) -> int:
        return self.kernel.ell**self.m

    @property
    def k_info(self) -> int:
        return self.n - len(self.frozen)

    @property
    def rate(self) -> float:
        return self.k_info / self.n

    def info_indices(self) -> np.ndarray:
        """Information coordinates in increasing order (read-only)."""
        return self._info

    def frozen_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(mask, values) over all N coordinates; values are 0 off the mask (read-only)."""
        return self._mask, self._vals

    def node_plan(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(frozen, zero) for the nodes of width ell**k (0 <= k <= m), in
        input order: frozen[j] counts the frozen inputs of the node at
        offset j * width, and zero[j] says whether every one of them is
        frozen to 0. That node is rate-0 (all frozen) when frozen[j] ==
        width and rate-1 when it is 0; its frozen values are
        frozen_arrays()[1][j * width : (j + 1) * width]. Read-only, and
        built once per width: a second read returns the same arrays."""
        return self.cached(width, _node_plan)

    def cached(self, key, build):
        """build(self), computed on the first read of key and kept with the
        node plans, which are its entries under their widths: for other
        properties of the code that a decoder derives from them. What
        build returns is shared by every reader and must not be changed."""
        if key not in self._plans:
            self._plans[key] = build(self, key)
        return self._plans[key]

    def assemble(self, info_symbols) -> np.ndarray:
        """Full input words from (..., k) information payloads (frozen pinned)."""
        info_symbols = np.asarray(info_symbols, dtype=np.int64)
        if info_symbols.shape[-1:] != self._info.shape:
            raise ValueError("payload length does not match information size")
        u = np.empty(info_symbols.shape[:-1] + (self.n,), dtype=np.int64)
        u[...] = self._vals
        u[..., self._info] = info_symbols
        return u


def _node_plan(spec: CodeSpec, width: int) -> tuple[np.ndarray, np.ndarray]:
    mask, vals = spec.frozen_arrays()
    return _read_only(mask.reshape(-1, width).sum(axis=1), ~vals.reshape(-1, width).any(axis=1))


def encode(spec: CodeSpec, u) -> np.ndarray:
    """Codeword for an (N,) input u, or codewords for a (B, N) batch.

    u must honor the frozen pins: the first mismatch is a FrozenMismatchError.
    """
    u = np.asarray(u, dtype=np.int64)
    if u.ndim not in (1, 2) or u.shape[-1] != spec.n:
        raise ValueError(f"u must have length {spec.n}")
    spec.kernel.alph.check_symbols(u)
    mask, vals = spec.frozen_arrays()
    if (u[..., mask] != vals[mask]).any():
        # found, then named: the lowest mismatching index of the first such frame
        *frame, i = np.argwhere(mask & (u != vals))[0]
        where = f"frame {frame[0]}: " if frame else ""
        raise FrozenMismatchError(f"{where}u[{i}]={u[(*frame, i)]} but coordinate is pinned to {vals[i]}")
    return encode_unchecked(spec.kernel, u)


def encode_unchecked(kernel: Kernel, u) -> np.ndarray:
    """Codewords of the (..., N) input words u, over the last axis, unchecked.

    One loop, shortest blocks first, each pass applying k levels of the
    recursion with the table of the kernel's k-fold power, of size
    w = ell**k (see Kernel.power_tables): at blocks of length w*s, part r
    of a block is its r-th run of s symbols, already encoded, and output
    w*i+j of the block is symbol j of the power's codeword of column i of
    its parts, one table lookup per column. That is the code the level by
    level recursion builds (see the module docstring). Every pass takes
    the K levels of the largest power, the last the m mod K left. Any
    number of leading axes, of any size (zero included), is encoded; the
    result is always a new int64 array.
    """
    x = np.asarray(u, dtype=np.float32)
    return _encode_by_passes(kernel.power_tables(), x).reshape(x.shape).astype(np.int64)


def _encode_by_passes(powers: dict, x: np.ndarray) -> np.ndarray:
    """encode_unchecked's loop on float32 symbols x, by the power tables
    `powers`: the codewords, float32, in x's order but not x's shape."""
    n = x.shape[-1]
    widest = max(powers)
    s = 1
    while s < n:
        w = min(n // s, widest)
        radix, table = powers[w]
        # the first pass's parts are runs of one symbol: one matrix-vector
        # product, where a stack of w x 1 products costs several times more
        index = x.reshape(-1, w) @ radix if s == 1 else radix @ x.reshape(-1, w, s)
        x = table.take(index.astype(np.intp), axis=0)
        s *= w
    return x


def encode_matrix(spec: CodeSpec) -> np.ndarray:
    """Matrix M with encode(u) = u.M over the field (linear kernels only)."""
    if spec.kernel.generator is None:
        raise InvalidKernelError("encode_matrix requires a linear kernel")
    return encode_unchecked(spec.kernel, np.eye(spec.n, dtype=np.int64))


# text serialization --------------------------------------------------------

GRAMMAR_DOC = """\
CodeSpec text format, one directive per line, '#' starts a comment:

  kernel ell=<int> q=<int>     header, required first
  G <s0> <s1> ... <s_ell-1>    generator row (ell rows for linear kernels;
                               omitted entirely => Arikan map, needs ell=2 q=2)
  glue <i> .. ; <j> .. ; ...   glue groups (';'-separated, default singletons)
  m <int>                      recursion depth (makes the file a CodeSpec)
  frozen <idx>[=<val>] ...     frozen coordinates, value defaults to 0
"""


def dump_kernel(kernel: Kernel) -> str:
    if kernel.generator is None and not kernel.is_arikan:
        raise InvalidKernelError("serialization requires a generator matrix")
    lines = [f"kernel ell={kernel.ell} q={kernel.q}"]
    if kernel.generator is not None:
        for row in kernel.generator:
            lines.append("G " + " ".join(str(int(v)) for v in row))
    if any(len(g) > 1 for g in kernel.glue):
        lines.append("glue " + " ; ".join(" ".join(str(i) for i in g) for g in kernel.glue))
    return "\n".join(lines) + "\n"


def dump_codespec(spec: CodeSpec) -> str:
    text = dump_kernel(spec.kernel)
    text += f"m {spec.m}\n"
    if spec.frozen:
        toks = []
        for i in sorted(spec.frozen):
            v = spec.frozen[i]
            toks.append(f"{i}={v}" if v else str(i))
        text += "frozen " + " ".join(toks) + "\n"
    return text


class SpecFormatError(ValueError):
    pass


def _parse_lines(text: str):
    header = None
    g_rows: list[list[int]] = []
    glue = None
    m = None
    frozen: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kw = tok[0]
        if kw not in ("kernel", "G", "glue", "m", "frozen"):
            raise SpecFormatError(f"unknown directive {kw!r}")
        try:
            if kw == "kernel":
                opts = dict(t.split("=", 1) for t in tok[1:])
                header = (int(opts["ell"]), int(opts["q"]))
            elif kw == "G":
                g_rows.append([int(v) for v in tok[1:]])
            elif kw == "glue":
                groups = " ".join(tok[1:]).split(";")
                glue = [tuple(int(v) for v in grp.split()) for grp in groups]
            elif kw == "m":
                m = int(tok[1])
            else:
                for t in tok[1:]:
                    if "=" in t:
                        i, v = t.split("=", 1)
                        frozen[int(i)] = int(v)
                    else:
                        frozen[int(t)] = 0
        except (IndexError, KeyError, ValueError) as e:
            raise SpecFormatError(f"bad {kw} line: {line!r}") from e
    if header is None:
        raise SpecFormatError("missing kernel header line")
    return header, g_rows, glue, m, frozen


def load_kernel(text: str) -> Kernel:
    (ell, q), g_rows, glue, _m, _frozen = _parse_lines(text)
    if not g_rows:
        if (ell, q) != (2, 2):
            raise SpecFormatError("no G rows given and no default map for this ell/q")
        g_rows = _ARIKAN_G
    if len(g_rows) != ell or any(len(r) != ell for r in g_rows):
        raise SpecFormatError("expected ell generator rows of ell symbols")
    return kernel_linear(np.array(g_rows), q=q, glue=glue)


def load_codespec(text: str) -> CodeSpec:
    (ell, q), g_rows, glue, m, frozen = _parse_lines(text)
    if m is None:
        raise SpecFormatError("missing 'm' directive")
    kernel = load_kernel(text)
    return CodeSpec(kernel=kernel, m=m, frozen=frozen)
