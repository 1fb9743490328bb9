"""Exact dense linear algebra over a prime field F_p.

Scalars are plain int residues in [0, p); matrices are immutable row-major
tuples of residues.  Everything is exact integer arithmetic (no floats), and
all canonical forms (reduced row echelon, kernel bases) are deterministic so
matrices can double as dictionary keys and orbit representatives.

Dimensions stay at desk scale (< ~64), so the cubic Gaussian elimination here
is the right tool; there is deliberately no sparse machinery.  RowSpace is
the one elimination loop, and FqMatrix.rref fills one.  Block matrices are
assembled by FqMatrix.blocks, the linear equations saying that unknown
matrices intertwine two given ones are built by intertwining_rows, and
kernel_rows solves such systems on plain int lists.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .errors import EnumerationCapError, InputError, InvariantError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise InputError(f"modulus must be prime, got {p}")
    return p


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue (p prime)."""
    if a % p == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


class FqMatrix:
    """Immutable dense matrix over F_p, row-major int storage."""

    __slots__ = ("p", "rows", "cols", "data", "_hash")

    def __init__(self, p: int, rows: int, cols: int, data: Sequence[int]):
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimensions")
        if len(data) != rows * cols:
            raise InputError(
                f"data length {len(data)} != {rows}x{cols}"
            )
        self.p = p
        self.rows = rows
        self.cols = cols
        self.data = tuple(v % p for v in data)
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, p: int, rows: Sequence[Sequence[int]],
                  cols: int = 0) -> "FqMatrix":
        """The matrix with the given rows; `cols` is its width when there
        are no rows."""
        c = len(rows[0]) if rows else cols
        flat = []
        for row in rows:
            if len(row) != c:
                raise InputError("ragged rows")
            flat.extend(row)
        return cls(p, len(rows), c, flat)

    @classmethod
    def from_cols(cls, p: int, rows: int, cols: Sequence[Sequence[int]]) -> "FqMatrix":
        """The rows x len(cols) matrix with the given columns."""
        if any(len(col) != rows for col in cols):
            raise InputError("ragged columns")
        return cls(p, rows, len(cols), [col[i] for i in range(rows) for col in cols])

    @classmethod
    def blocks(cls, p: int, row_sizes: Sequence[int], col_sizes: Sequence[int],
               blocks: Mapping[tuple, "FqMatrix"]) -> "FqMatrix":
        """The block matrix with block rows of heights row_sizes and block
        columns of widths col_sizes; blocks maps (i, j) to the block in
        block row i and block column j, and absent blocks are zero."""
        row_off = list(itertools.accumulate(row_sizes, initial=0))
        col_off = list(itertools.accumulate(col_sizes, initial=0))
        width = col_off[-1]
        data = [0] * (row_off[-1] * width)
        for (i, j), b in blocks.items():
            if b.rows != row_sizes[i] or b.cols != col_sizes[j]:
                raise InputError(
                    f"block ({i}, {j}) has shape {b.shape}, expected "
                    f"({row_sizes[i]}, {col_sizes[j]})"
                )
            for r in range(b.rows):
                start = (row_off[i] + r) * width + col_off[j]
                data[start : start + b.cols] = b.data[r * b.cols : (r + 1) * b.cols]
        return cls(p, row_off[-1], width, data)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FqMatrix":
        return cls(p, rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, p: int, n: int) -> "FqMatrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(p, n, n, data)

    # -- basic accessors -------------------------------------------------

    def __getitem__(self, ij: tuple) -> int:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def col(self, j: int) -> tuple:
        return self.data[j::self.cols]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def key(self) -> tuple:
        """Total-order key; lexicographic on (shape, entries)."""
        return (self.rows, self.cols, self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.p, self.rows, self.cols, self.data))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in self.row(i)) for i in range(self.rows)
        )
        return f"FqMatrix(p={self.p}, [{body}])"

    # -- arithmetic -------------------------------------------------------

    def _check_same_field(self, other: "FqMatrix") -> None:
        if self.p != other.p:
            raise InputError("mixed moduli")

    def __add__(self, other: "FqMatrix") -> "FqMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise InputError("shape mismatch in add")
        p = self.p
        return FqMatrix(
            p, self.rows, self.cols,
            [(a + b) % p for a, b in zip(self.data, other.data)],
        )

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise InputError("shape mismatch in sub")
        p = self.p
        return FqMatrix(
            p, self.rows, self.cols,
            [(a - b) % p for a, b in zip(self.data, other.data)],
        )

    def __neg__(self) -> "FqMatrix":
        p = self.p
        return FqMatrix(p, self.rows, self.cols, [(-a) % p for a in self.data])

    def scale(self, c: int) -> "FqMatrix":
        p = self.p
        c %= p
        return FqMatrix(p, self.rows, self.cols, [(c * a) % p for a in self.data])

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        p = self.p
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.data, other.data
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            orow = i * m
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m : (t + 1) * m]
                    for j in range(m):
                        out[orow + j] = (out[orow + j] + av * brow[j]) % p
        return FqMatrix(p, n, m, out)

    def mul_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise InputError("vector length mismatch")
        p = self.p
        out = []
        for i in range(self.rows):
            row = self.row(i)
            out.append(sum(a * b for a, b in zip(row, v)) % p)
        return tuple(out)

    def transpose(self) -> "FqMatrix":
        return FqMatrix(
            self.p, self.cols, self.rows,
            [self.data[i * self.cols + j]
             for j in range(self.cols) for i in range(self.rows)],
        )

    @staticmethod
    def hstack(mats: Sequence["FqMatrix"]) -> "FqMatrix":
        rows = mats[0].rows
        p = mats[0].p
        data = []
        for i in range(rows):
            for m in mats:
                if m.rows != rows or m.p != p:
                    raise InputError("hstack mismatch")
                data.extend(m.row(i))
        return FqMatrix(p, rows, sum(m.cols for m in mats), data)

    def is_zero(self) -> bool:
        return not any(self.data)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple:
        """Reduced row echelon form: the rows of a RowSpace of the rows,
        padded with zero rows.  Returns (rref_matrix, pivot_columns); the
        RREF is the unique canonical representative of the row space."""
        space = RowSpace(self.p, self.cols)
        for i in range(self.rows):
            space.add(self.row(i))
        flat = [v for row in space.rows for v in row]
        flat += [0] * ((self.rows - space.dim) * self.cols)
        return FqMatrix(self.p, self.rows, self.cols, flat), tuple(space.pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_space_basis(self) -> "FqMatrix":
        """Canonical (RREF) basis of the row space, zero rows dropped."""
        red, pivots = self.rref()
        r = len(pivots)
        return FqMatrix(self.p, r, self.cols, red.data[: r * self.cols])

    def column_space_basis(self) -> "FqMatrix":
        """Canonical basis of the column space, returned as rows."""
        return self.transpose().row_space_basis()

    def kernel_basis(self) -> "FqMatrix":
        """Rows span {v : self @ v = 0}; canonical form with an identity
        block on the free columns, ordered by free column index."""
        red, pivots = self.rref()
        reduced = [red.row(r) for r in range(len(pivots))]
        return FqMatrix.from_rows(
            self.p, kernel_from_rref(self.p, reduced, pivots, self.cols), self.cols
        )

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "FqMatrix":
        if self.rows != self.cols:
            raise InputError("inverse of non-square matrix")
        n = self.rows
        aug = FqMatrix.hstack([self, FqMatrix.identity(self.p, n)])
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
            raise InputError("matrix is singular")
        data = []
        for i in range(n):
            data.extend(red.data[i * 2 * n + n : (i + 1) * 2 * n])
        return FqMatrix(self.p, n, n, data)


def solve(a: FqMatrix, b: Sequence[int]) -> Optional[tuple]:
    """Particular solution of a @ x = b plus kernel description.

    Returns (x, kernel_basis) when solvable, None when inconsistent.
    """
    if len(b) != a.rows:
        raise InputError("right-hand side length mismatch")
    aug = FqMatrix.hstack([a, FqMatrix(a.p, a.rows, 1, tuple(v % a.p for v in b))])
    red, pivots = aug.rref()
    if pivots and pivots[-1] == a.cols:
        return None
    x = [0] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r * (a.cols + 1) + a.cols]
    return tuple(x), a.kernel_basis()


def kernel_from_rref(p: int, rows: Sequence[Sequence[int]],
                     pivots: Sequence[int], ncols: int) -> list:
    """Kernel basis of a matrix from the nonzero rows of its RREF and their
    pivot columns: one vector per free column j, with 1 at j, -rows[r][j]
    at pivot r and 0 at the other free columns, ordered by j."""
    pivot_set = set(pivots)
    out = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [0] * ncols
        v[j] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[j] % p
        out.append(v)
    return out


def kernel_rows(p: int, rows: Iterable[Sequence[int]], ncols: int) -> list:
    """Basis of {v in F_p^ncols : row . v = 0 for every row}, as int lists,
    in the canonical form of FqMatrix.kernel_basis.  Works on plain lists,
    so an equation system needs no FqMatrix."""
    space = RowSpace(p, ncols)
    for row in rows:
        space.add(row)
    return kernel_from_rref(p, space.rows, space.pivots, ncols)


def intertwining_rows(total: int, t_off: Optional[int], a: FqMatrix,
                      s_off: Optional[int], b: FqMatrix) -> list:
    """Rows of the linear equations F_t @ a - b @ F_s = 0 on a flat vector
    of `total` unknowns.  F_t (b.rows x a.rows) and F_s (b.cols x a.cols)
    are row-major blocks of unknowns starting at t_off and s_off; an offset
    of None drops that term (its block is zero).  One row per entry of the
    b.rows x a.cols product, in row-major order."""
    p = a.p
    k_t, k_s, width = a.rows, b.cols, a.cols
    out = []
    for r in range(b.rows):
        for c in range(width):
            row = [0] * total
            if t_off is not None:
                for k in range(k_t):
                    row[t_off + r * k_t + k] = a.data[k * width + c]
            if s_off is not None:
                for k in range(k_s):
                    pos = s_off + k * width + c
                    row[pos] = (row[pos] - b.data[r * k_s + k]) % p
            out.append(row)
    return out


class RowSpace:
    """Incrementally maintained row space in fully reduced echelon form.

    The package's one elimination loop: FqMatrix.rref, kernel_rows, image
    spans, membership tests, complement picking and canonical coset
    representatives all run through add and reduce; reduce(v) returns the
    unique vector in v + span with zeros at every pivot position.
    """

    __slots__ = ("p", "ncols", "rows", "pivots")

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows: list = []
        self.pivots: list = []

    def clone(self) -> "RowSpace":
        c = RowSpace(self.p, self.ncols)
        c.rows = [list(r) for r in self.rows]
        c.pivots = list(self.pivots)
        return c

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[int]) -> tuple:
        p = self.p
        v = [x % p for x in vec]
        for row, piv in zip(self.rows, self.pivots):
            f = v[piv]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns True if it enlarged the space."""
        v = list(self.reduce(vec))
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = inv_mod(v[piv], self.p)
        v = [(inv * x) % self.p for x in v]
        for row in self.rows:
            f = row[piv]
            if f:
                for j in range(self.ncols):
                    row[j] = (row[j] - f * v[j]) % self.p
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        return True

    def basis(self) -> list:
        return [tuple(r) for r in self.rows]


def complement_basis(sub: RowSpace, vectors: Iterable[Sequence[int]]) -> list:
    """Vectors from the iterable extending sub to span(sub, vectors).

    Deterministic: scans in order, keeping each vector that enlarges the
    running space.  The result is a basis of a complement of sub inside the
    span of sub and the given vectors.
    """
    tmp = sub.clone()
    out = []
    for v in vectors:
        if tmp.add(v):
            out.append(tuple(x % tmp.p for x in v))
    return out


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """(n choose k)_p by the product formula; the independent oracle for
    subspace counts and one-vertex Hall numbers."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise InvariantError(
            f"gaussian_binomial({n}, {k})_{p}: product formula {num}/{den} "
            f"is not an integer"
        )
    return quot


def enumerate_subspaces(p: int, n: int, k: int, cap: int = 10_000_000) -> list:
    """All k-dimensional subspaces of F_p^n, each as its unique RREF basis:
    a k x n FqMatrix whose rows span it.

    Enumerates pivot column sets and free entries directly, so each subspace
    appears exactly once, already in canonical form.
    """
    check_prime(p)
    if not 0 <= k <= n:
        raise InputError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return [FqMatrix(p, 0, n, ())]
    out = []
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        # free slots: row i, column j with j > pivots[i], j not a pivot column
        free = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivot_set
        ]
        count = p ** len(free)
        if count > cap:
            raise EnumerationCapError(
                f"enumerate_subspaces(F_{p}^{n}, k={k}): {count} candidates "
                f"exceed cap {cap}"
            )
        for assignment in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free, assignment):
                rows[i][j] = v
            out.append(FqMatrix.from_rows(p, rows))
    return out
