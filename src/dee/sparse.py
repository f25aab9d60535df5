r"""Sparse real symmetric matrices in padded slot arrays, with exact power oracles.

A matrix is two N x s arrays, s being the largest row size: row i holds its
nonzero columns in ascending order in cols[i] and their values in vals[i],
then padding slots with column 0 and value 0.0.  Both triangles are stored,
so a matvec is s vectorised passes over the slots.  `from_coordinate_arrays`
is the only code that builds this layout.  Powers are never formed; (A^m)_ij
is m sparse matvecs from e_j followed by reading one coordinate, which is
the oracle the estimator and the reductions are checked against.  `reach`
restricts every sparse iteration to the rows its start vector can touch:
within k steps, A^k e_j and the k-th Krylov vector live on the rows at most
k steps from j.  So the oracle costs O(m * |S| * s), not O(m * N * s), S
being the rows within m steps of j: a reduction puts j in a component of
tens to hundreds of rows of a clock matrix of tens of thousands.

Matrix, graph and circuit text share one line rule, `text_lines`: lines
end at \n or \r\n, and any other line break is refused, naming its line.
Matrix and graph text is read by one `np.loadtxt` pass straight into
int64/int64/float64 columns, after the header's N has passed `check_dim`.
The only Python-level walk over their body lines is `_refuse`, which runs
on a text that pass refused and raises the error naming its first bad line.
`format_matrix` spells each distinct value once with repr and writes the
text with one %-format.
"""

from __future__ import annotations

import enum
import io
import math
import re
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

Entry = tuple[int, float]

# most rows a matrix or a clock may have: a header or qubit count past it is
# refused before the slot arrays (and N Python rows of the Gershgorin sum) exist
MAX_DIM = 1 << 20


class Side(enum.Enum):
    """Which side of the threshold g a decision lands on."""

    ABOVE_G = "AboveG"
    BELOW_G = "BelowG"


@dataclass(frozen=True, eq=False)
class SparseSymmetricMatrix:
    """Real symmetric N x N matrix in padded slot arrays.

    Built by `from_coordinate_arrays`, which guarantees the slot layout and
    exact symmetry.  `==` is identity; compare `format_matrix` text or
    `to_dense()` for equal contents.

    Attributes
    ----------
    dim : int
        N, at least 1.
    cols, vals : read-only arrays of shape (N, s)
        Row i lists its nonzeros by ascending column, then pads with column
        0 and value 0.0.  The width s is the sparsity parameter max_row_nnz.
    norm_bound : float
        A known b > 0 with b >= ||A||_2 (spectral norm).
    """

    dim: int
    cols: np.ndarray
    vals: np.ndarray
    norm_bound: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {self.dim}")
        if self.cols.shape != self.vals.shape or len(self.cols) != self.dim:
            raise ValueError("slot arrays do not match dim")
        if not (math.isfinite(self.norm_bound) and self.norm_bound > 0):
            raise ValueError(f"norm bound must be finite and positive, got {self.norm_bound}")
        self.cols.flags.writeable = False
        self.vals.flags.writeable = False

    @property
    def max_row_nnz(self) -> int:
        """The sparsity parameter s = the largest row size."""
        return self.cols.shape[1]

    @property
    def rows(self) -> tuple[tuple[Entry, ...], ...]:
        """Every row as by `row`; Python objects, meant for small matrices."""
        return tuple(self.row(i) for i in range(self.dim))

    def row(self, i: int) -> tuple[Entry, ...]:
        """The nonzeros (column, value) of row i, by ascending column."""
        size = np.count_nonzero(self.vals[i])
        return tuple(zip(self.cols[i, :size].tolist(), self.vals[i, :size].tolist()))

    def entry(self, i: int, j: int) -> float:
        hit = np.flatnonzero((self.cols[i] == j) & (self.vals[i] != 0.0))
        return float(self.vals[i, hit[0]]) if hit.size else 0.0

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        i, t = np.nonzero(self.vals)
        a[i, self.cols[i, t]] = self.vals[i, t]
        return a

    @property
    def nnz(self) -> int:
        """Number of stored entries counting only i <= j."""
        upper = self.cols >= np.arange(self.dim)[:, None]
        return int(np.count_nonzero(upper & (self.vals != 0.0)))


def check_dim(rows: int, qubits: int = 0) -> None:
    """Refuse a dimension rows * 2^qubits above MAX_DIM, without computing it when huge."""
    if qubits > MAX_DIM.bit_length() or rows << qubits > MAX_DIM:
        size = f"{rows} * 2^{qubits}" if qubits else str(rows)
        raise ValueError(f"dimension {size} exceeds the limit N <= {MAX_DIM}")


def from_coordinate_arrays(
    dim: int, rows, cols, vals, norm_bound: float | None = None
) -> SparseSymmetricMatrix:
    """Build a matrix from the entries (rows[k], cols[k], vals[k]) of both triangles.

    Each position may appear once and the entries must be exactly symmetric:
    (i, j, v) needs (j, i, v) with the identical float.  Zero values are
    dropped.  With norm_bound=None the Gershgorin row-sum bound is used (1.0
    for the zero matrix).
    """
    if dim < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {dim}")
    check_dim(dim)
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    # each check names its first offending entry: the loops run at most once
    for k in np.flatnonzero((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim))[:1]:
        raise ValueError(f"entry ({rows[k]}, {cols[k]}) out of range for dimension {dim}")
    for k in np.flatnonzero(~np.isfinite(vals))[:1]:
        raise ValueError(f"entry ({rows[k]}, {cols[k]}) has non-finite value {vals[k]}")
    key = rows * dim + cols
    order = np.argsort(key, kind="stable")
    for k in order[np.flatnonzero(np.diff(key[order]) == 0)[:1]]:
        raise ValueError(f"duplicate entry for pair ({rows[k]}, {cols[k]})")
    order = order[vals[order] != 0.0]
    rows, cols, vals = rows[order], cols[order], vals[order]  # by (row, column)
    mirror = np.argsort(cols * dim + rows)
    asymmetric = (cols[mirror] != rows) | (rows[mirror] != cols) | (vals[mirror] != vals)
    for k in np.flatnonzero(asymmetric)[:1]:
        raise ValueError(f"asymmetric entry pair at ({rows[k]}, {cols[k]})")
    counts = np.bincount(rows, minlength=dim)
    width = int(counts.max())
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    slot_cols = np.zeros((dim, width), dtype=np.int64)
    slot_vals = np.zeros((dim, width))
    slot_cols[rows, slot] = cols
    slot_vals[rows, slot] = vals
    if norm_bound is None:  # Gershgorin; any positive bound serves the zero matrix
        norm_bound = gershgorin_bound(SparseSymmetricMatrix(dim, slot_cols, slot_vals, 1.0)) or 1.0
    return SparseSymmetricMatrix(dim=dim, cols=slot_cols, vals=slot_vals, norm_bound=norm_bound)


def from_coordinate_list(
    n: int,
    entries: list[tuple[int, int, float]],
    norm_bound: float | None = None,
) -> SparseSymmetricMatrix:
    """Build a symmetric matrix from (i, j, value) triples.

    Each unordered pair {i, j} may appear at most once; the mirrored entry is
    filled in automatically.  Zero values are dropped.  With norm_bound=None
    the Gershgorin row-sum bound is used (1.0 for the zero matrix).
    """
    try:
        i, j = np.array([e[:2] for e in entries], dtype=np.int64).reshape(-1, 2).T
    except OverflowError as exc:
        raise ValueError(f"entry index out of range for dimension {n}") from exc
    return _from_pairs(n, i, j, np.array([e[2] for e in entries], dtype=np.float64), norm_bound)


def _from_pairs(n: int, i: np.ndarray, j: np.ndarray, vals: np.ndarray, norm_bound) -> SparseSymmetricMatrix:
    """`from_coordinate_arrays` on one entry per unordered pair, the off-diagonal ones mirrored."""
    off = i != j
    rows, cols = np.concatenate([i, j[off]]), np.concatenate([j, i[off]])
    return from_coordinate_arrays(n, rows, cols, np.concatenate([vals, vals[off]]), norm_bound)


def adjacency_from_edges(n: int, edges: list[tuple[int, int]]) -> SparseSymmetricMatrix:
    """Adjacency matrix of a simple undirected graph.

    Its norm bound is the Gershgorin bound, which here is the maximum degree.
    """
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
    return from_coordinate_list(n, [(u, v, 1.0) for u, v in edges])


def gershgorin_bound(a: SparseSymmetricMatrix) -> float:
    """max_i sum_j |A_ij|, an upper bound on the spectral norm, correctly rounded.

    A float sum of s nonnegative terms lies within (s - 1) u of the exact sum
    (u = 2^-53, in any order), so a row whose float sum falls short of the
    largest by more than twice that cannot hold the exact maximum:
    `math.fsum` runs only on the rows within 4 s eps (eps = 2u) of it.
    """
    mags = np.abs(a.vals)
    sums = mags.sum(axis=1)
    near = sums >= sums.max() * (1.0 - 4.0 * a.max_row_nnz * np.finfo(np.float64).eps)
    return max(math.fsum(row) for row in mags[near].tolist())


def matvec(a: SparseSymmetricMatrix, v: np.ndarray) -> np.ndarray:
    """A @ v with per-row compensated summation.

    Row order is canonical (sorted by column), and Kahan compensation makes
    each row sum insensitive to how entries were supplied, so oracle values
    are bit-reproducible.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (a.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {a.dim}")
    if a.max_row_nnz == 0:
        return np.zeros(a.dim)
    terms = a.vals * v[a.cols]
    total = np.zeros(a.dim)
    comp = np.zeros(a.dim)
    for t in range(terms.shape[1]):  # Kahan across the <= s slots of every row at once
        y = terms[:, t] - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
    return total


def power_diag_exact(a: SparseSymmetricMatrix, j: int, m: int) -> float:
    """(A^m)_jj by m sparse matvecs from e_j on the rows j can reach; see `power_entry_exact`."""
    return power_entry_exact(a, j, j, m)


def reach(a: SparseSymmetricMatrix, seeds, levels: int) -> tuple[SparseSymmetricMatrix, np.ndarray]:
    """(sub, rows): the principal submatrix of A on the rows within `levels`
    steps of `seeds` plus row 0, which every padding slot reads, and those
    rows of A in ascending order.

    One frontier BFS over the nonzero entries finds the rows.  Columns that
    leave them become padding slots (column 0, value 0.0), whether or not
    the search exhausted the seeds' components; the remap is monotone, so
    slot order survives.  A vector supported within k < `levels` steps of
    the seeds is zero on every column cut away, so the first `levels`
    matvecs from the seeds, and a Krylov space of that many steps, miss
    nothing.
    """
    seen = np.zeros(a.dim, dtype=bool)
    seen[seeds] = True
    frontier = np.flatnonzero(seen)
    for _ in range(levels):
        step = a.cols[frontier][a.vals[frontier] != 0.0]
        step = np.sort(step[~seen[step]])
        frontier = step[np.diff(step, prepend=-1) != 0]  # np.unique would import numpy.ma
        if not frontier.size:
            break
        seen[frontier] = True
    seen[0] = True
    rows = np.flatnonzero(seen)
    cols = a.cols[rows]
    inside = seen[cols]
    sub_cols = np.where(inside, np.cumsum(seen)[cols] - 1, 0)
    return SparseSymmetricMatrix(rows.size, sub_cols, np.where(inside, a.vals[rows], 0.0), a.norm_bound), rows


def power_entry_exact(a: SparseSymmetricMatrix, i: int, j: int, m: int) -> float:
    """(A^m)_ij by m sparse matvecs from e_j; ValueError if it leaves the float range.

    The matvecs run on `reach(a, j, m)`: cost O(m * |S| * s) plus one BFS,
    not O(m * N * s).  That gives the floats of the whole-matrix iteration
    bit for bit: A^k e_j for k < m is zero on every column cut away, padding
    slots still read coordinate 0, and a zero term leaves a Kahan sum the
    same whatever its sign.  An i more than m steps from j gives exactly 0.0,
    even where an overflow that reaches row 0 spreads a 0 * inf NaN there
    through the padding slots of the whole-matrix loop.
    """
    if not 0 <= i < a.dim:
        raise ValueError(f"index {i} out of range for dimension {a.dim}")
    if not 0 <= j < a.dim:
        raise ValueError(f"index {j} out of range for dimension {a.dim}")
    if m < 0:
        raise ValueError(f"power must be >= 0, got {m}")
    sub, rows = reach(a, j, m)
    if i not in rows:
        return 0.0
    local_i, local_j = np.searchsorted(rows, (i, j)).tolist()
    v = np.zeros(sub.dim)
    v[local_j] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for _ in range(m):
            v = matvec(sub, v)
    if not math.isfinite(v[local_i]):
        raise ValueError(f"(A^{m})[{i}, {j}] = {v[local_i]} is outside the float range")
    return float(v[local_i])


def power_scale(b: float, m: int) -> float:
    """b^m, refused with ValueError when it overflows the float range."""
    try:
        return b**m
    except OverflowError:
        raise ValueError(f"b^m = {b}^{m} overflows the float range") from None


@dataclass(frozen=True)
class DeeInstance:
    """One diagonal-entry-estimation problem: decide (A^m)_jj against g.

    The promise is |(A^m)_jj - g| >= epsilon * b^m; an estimate within
    epsilon * b^m of the true value then lands on the correct side.
    """

    matrix: SparseSymmetricMatrix
    j: int
    m: int
    g: float
    epsilon: float
    b: float

    def __post_init__(self) -> None:
        if not 0 <= self.j < self.matrix.dim:
            raise ValueError(f"index {self.j} out of range for dimension {self.matrix.dim}")
        if self.m < 1:
            raise ValueError(f"power m must be >= 1, got {self.m}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"norm bound b must be finite and positive, got {self.b}")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        scale = power_scale(self.b, self.m)
        if not math.isfinite(self.g) or abs(self.g) > scale:
            raise ValueError(f"threshold g={self.g} outside [-b^m, b^m] = [{-scale}, {scale}]")


@dataclass(frozen=True)
class DeeDecision:
    """Estimator output: the estimate and the side of g it falls on."""

    side: Side
    estimate: float


def decide(estimate: float, g: float) -> DeeDecision:
    """Package an estimate as a decision; side is AboveG iff estimate > g."""
    side = Side.ABOVE_G if estimate > g else Side.BELOW_G
    return DeeDecision(side=side, estimate=estimate)


# ---------------------------------------------------------------------------
# file formats
#
# matrix file: first data line "N NNZ", then NNZ lines "i j value" with
# 0 <= i <= j < N.  graph file: first data line "N M", then M lines "u v".
# '#' starts a comment; blank lines are ignored.  Numbers are ASCII decimal
# tokens, integers within int64, and lines end in \n or \r\n (`text_lines`,
# which circuit text shares).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table:
    """One counted text format: a header 'N COUNT', then COUNT body lines."""

    kind: str
    header: str
    items: str
    line: str
    item: str
    columns: list


_MATRIX = _Table("matrix", "N NNZ", "entries", "i j value", "entry",
                 [("i", "<i8"), ("j", "<i8"), ("v", "<f8")])
_GRAPH = _Table("graph", "N M", "edges", "u v", "edge", [("u", "<i8"), ("v", "<i8")])

# a line break of str.splitlines other than \n and \r\n; np.loadtxt would
# read the first six as blanks inside a line
_ODD_BREAK = re.compile("[\x0b\x0c\x1c-\x1e\x85\u2028\u2029]|\r(?!\n)")


def text_lines(text: str):
    r"""(line number, content without comment or surrounding blanks, offset past
    the line) of every line with data, for matrix, graph and circuit text.

    Lines end at \n or \r\n.  Any other line break of str.splitlines is
    refused, naming its line, before the first line is yielded.
    """
    # str.__contains__ runs at memchr speed; the regex runs only where it may match
    maybe = not text.isascii() or "\r" in text or any(c in text for c in "\x0b\x0c\x1c\x1d\x1e")
    if maybe and (odd := _ODD_BREAK.search(text)):
        lineno = text.count("\n", 0, odd.start()) + 1
        raise ValueError(f"line {lineno}: line break other than \\n or \\r\\n")
    start, lineno = 0, 1
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end].split("#", 1)[0].strip()
        if line:
            yield lineno, line, end + 1
        start, lineno = end + 1, lineno + 1


def _token(convert, token: str):
    """int(token) or float(token), for the spellings np.loadtxt also reads."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII decimal number: {token!r}")
    value = convert(token)
    if convert is int and not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"{token} is outside int64")
    return value


def _header(fmt: _Table, lineno: int, line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected header {fmt.header!r}, got {line!r}")
    try:
        return _token(int, parts[0]), _token(int, parts[1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad header {line!r}") from exc


def _refuse(fmt: _Table, text: str) -> NoReturn:
    """Raise the ValueError that names what is wrong with a text `_read_table`
    refused: the first failing check of a line-by-line parse, in that
    parse's order and words."""
    lines = list(text_lines(text))
    if not lines:
        raise ValueError(f"{fmt.kind} text has no data lines")
    _, count = _header(fmt, *lines[0][:2])
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"header promises {count} {fmt.items} but {len(body)} data lines follow")
    for lineno, line, _ in body:
        parts = line.split()
        if len(parts) != len(fmt.columns):
            raise ValueError(f"line {lineno}: expected {fmt.line!r}, got {line!r}")
        try:
            values = [_token(int if dtype == "<i8" else float, part)
                      for part, (_, dtype) in zip(parts, fmt.columns)]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad {fmt.item} {line!r}") from exc
        if fmt is _MATRIX and values[0] > values[1]:
            raise ValueError(f"line {lineno}: entries must have i <= j, got ({values[0]}, {values[1]})")
    raise ValueError(f"{fmt.kind} text could not be read")


def _read_table(fmt: _Table, text: str) -> tuple[int, np.ndarray]:
    r"""(N, body): the header and the body lines of a text as one structured
    array with fmt's columns, read by one C-level `np.loadtxt` pass.

    A line break other than \n or \r\n is refused by `text_lines` first.
    N is checked against MAX_DIM before the body is read.  A text the pass
    refuses goes to `_refuse`, which names its first bad line.
    """
    lineno, line, offset = next(text_lines(text), (0, "", 0))
    if not line:
        raise ValueError(f"{fmt.kind} text has no data lines")
    n, count = _header(fmt, lineno, line)
    check_dim(n)
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" into an int column with only a DeprecationWarning
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # zero rows
            # bytes, since a StringIO holds 4 bytes per character (280 MB at MAX_DIM rows)
            body = np.loadtxt(io.BytesIO(text[offset:].encode()), dtype=fmt.columns, comments="#",
                              ndmin=1, encoding="utf-8")
    except (ValueError, DeprecationWarning):
        _refuse(fmt, text)
    if body.size != count:
        raise ValueError(f"header promises {count} {fmt.items} but {body.size} data lines follow")
    return n, body


def parse_matrix(text: str, norm_bound: float | None = None) -> SparseSymmetricMatrix:
    n, body = _read_table(_MATRIX, text)
    if np.any(body["i"] > body["j"]):
        _refuse(_MATRIX, text)
    return _from_pairs(n, body["i"], body["j"], body["v"], norm_bound)


def upper_triangle(a: SparseSymmetricMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, value) of the stored entries with i <= j, by row, then column."""
    i, t = np.nonzero(a.vals)  # row-major, so by (row, column)
    upper = i <= a.cols[i, t]
    i, t = i[upper], t[upper]
    return i, a.cols[i, t], a.vals[i, t]


def format_matrix(a: SparseSymmetricMatrix, integer_values: bool = False) -> str:
    """The matrix file text: every value spelled by repr, or as an int."""
    i, j, v = upper_triangle(a)
    if integer_values:
        for k in np.flatnonzero(np.round(v) != v)[:1]:
            raise ValueError(f"entry ({i[k]}, {j[k]}) = {v[k].item()} is not an integer")
    distinct, which = np.unique(v, return_inverse=True)  # repr once per distinct value
    spell = int if integer_values else float
    words = np.array([repr(spell(x)) for x in distinct.tolist()], dtype=object)
    fields = np.empty((i.size, 3), dtype=object)
    fields[:, 0], fields[:, 1], fields[:, 2] = i.tolist(), j.tolist(), words[which]
    return f"{a.dim} {i.size}\n" + ("%d %d %s\n" * i.size) % tuple(fields.ravel().tolist())


def read_matrix_file(path: str, norm_bound: float | None = None) -> SparseSymmetricMatrix:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_matrix(fh.read(), norm_bound=norm_bound)


def write_matrix_file(path: str, a: SparseSymmetricMatrix, integer_values: bool = False) -> None:
    text = format_matrix(a, integer_values=integer_values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    n, body = _read_table(_GRAPH, text)
    return n, list(zip(body["u"].tolist(), body["v"].tolist()))


def read_graph_file(path: str) -> tuple[int, list[tuple[int, int]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_graph(fh.read())
