"""Linear algebra over F_{q^m} and F_q.

Two matrix types, both row-major lists of rows:

  MatFqm  entries are F_{q^m} elements in the integer encoding of a FieldCtx.
  MatFq   entries are integers in [0, q); the base field sits inside F_{q^m}
          as the constant polynomials, so a MatFq entry is already a valid
          F_{q^m} encoding and mixed products need no conversion step.

Row spaces are handled in canonical form: the trimmed reduced row echelon
form of a generator matrix.  Equality of spaces is equality of canonical
forms; intersections go through duals, (A cap B)-perp = A-perp + B-perp.

The module also provides the bridge from F_{q^m}-linear constraints on
F_q-valued unknowns to plain F_q systems (expand_fq_system) and to their
F_q kernel (fq_kernel), rank-metric weights (rank_fq), and the random
samplers used by key generation.

Three tools carry the work for every prime q, with no F_{q^m} arithmetic
(only ctx.inv, once per pivot):

  * F_{q^m} matrices multiply as coefficient digit planes (_clmul_planes,
    or _fq_matmul for a right factor over F_q): exact float32 BLAS
    products whose sums are reduced mod q before they can pass 2^24, read
    mod q (& 1 at q=2).  vec_mat and mat_vec are one-row and one-column
    MatFqm products, so every MatFqm product runs this way, and so does
    the Frobenius, an F_q-linear map with one cached matrix per power
    (_frob_matrix, _frob_digits).
  * F_{q^m} matrices go through one echelon on the same digits
    (_fqm_rref): per pivot, the pivot row is scaled by one product and the
    column is cleared by one outer product.  rref, rank, right_kernel,
    solve_left, canonical forms and codes.Code use it, and the q-sums of
    codes._qsum_echelon grow on it.
  * F_q matrices go through one numpy echelon (_fq_rref): a rank-one update
    of int16 rows per pivot, reduced mod q only when the next update could
    overflow.  rref, rank, right_kernel, MatFq.inverse, solve_fq, rank_fq
    and fq_kernel use it; at q=2, rank, rank_fq, fq_kernel and solve_fq
    pack rows into bits instead (_BitEchelon, with its bulk load).

The decoder's error solve and the stabilizer attack use the first and the
last.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import FieldCtx


class _BitEchelon:
    """Incremental row echelon over F_2 with rows packed into ints (bit j =
    column j).  The workhorse for rank, rank_fq, fq_kernel and solve_fq at
    q=2 (the last is the decoder's error solve) and for the stabilizer's
    probe system in the attack module."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, int] = {}  # pivot column -> row bitmask

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: int) -> bool:
        while row:
            j = (row & -row).bit_length() - 1
            prow = self.pivots.get(j)
            if prow is None:
                self.pivots[j] = row
                return True
            row ^= prow
        return False

    def complete(self, x: int) -> int:
        """x, zero on the pivot columns, with its pivot bits set so that
        every kept row is orthogonal to it.  A row holds no bit below its
        pivot, so going from the last pivot down, each bit depends only on
        bits already set."""
        for j in sorted(self.pivots, reverse=True):
            x |= ((self.pivots[j] & x).bit_count() & 1) << j
        return x

    def load(self, rows: np.ndarray) -> None:
        """Insert every row of a packed uint8 matrix (bit j of a row is bit
        j % 8 of byte j // 8) into an empty echelon, with the same pivot
        columns, rank and kernel_basis() as add() row by row.

        M4RI-style, one byte (8 columns) at a time: the rows left over
        pick at most 8 rows whose bytes span all of theirs; a 2^k-row table
        of their XOR combinations, indexed through a 256-entry lookup of
        the byte, clears that byte in every row with one XOR; the k rows
        become pivots (the combinations whose byte is reduced echelon, so
        their lowest bit is the pivot column) and are dropped with the
        cleared byte.
        """
        if self.pivots:
            raise ValueError("load needs an empty echelon")
        nbytes = (self.width + 7) // 8
        if rows.ndim != 2 or rows.shape[1] != nbytes:
            raise ValueError(f"expected rows of {nbytes} bytes")
        A = np.asarray(rows, dtype=np.uint8)  # never written: each step makes a new A
        for b in range(nbytes):
            if not len(A):
                break
            col = A[:, 0].copy()  # a copy, so the old A can go when A is replaced
            chosen, span = [], {}  # span: lowest bit -> byte, in echelon form
            for i, v in enumerate(col.tolist()):
                while v and (v & -v) in span:
                    v ^= span[v & -v]
                if v:
                    span[v & -v] = v
                    chosen.append(i)
                    if len(chosen) == 8:
                        break
            if not chosen:
                A = A[:, 1:]
                continue
            k = len(chosen)
            table = np.zeros((1 << k, A.shape[1]), dtype=np.uint8)
            for i, r in enumerate(chosen):
                table[1 << i : 2 << i] = table[: 1 << i] ^ A[r]
            lookup = np.zeros(256, dtype=np.intp)
            lookup[table[:, 0]] = np.arange(1 << k)
            lows = sorted(span)
            for low in lows:
                v = span[low]  # reduced: zero at the other pivot bits
                for other in lows:
                    if other > low and v & other:
                        v ^= span[other]
                row = int.from_bytes(table[lookup[v]].tobytes(), "little")
                self.pivots[8 * b + low.bit_length() - 1] = row << (8 * b)
            keep = np.ones(len(A), dtype=bool)
            keep[chosen] = False
            idx = lookup[col[keep]]
            A = A[keep, 1:]
            A ^= table[idx, 1:]

    def kernel_basis(self) -> list[int]:
        """Basis of {x : row . x = 0 for every inserted row}, as bitmasks:
        one vector per non-pivot column f, the one that is 1 at f and 0 at
        the other non-pivot columns."""
        return [self.complete(1 << f) for f in range(self.width) if f not in self.pivots]


class MatFqm:
    """Matrix over F_{q^m}; data is a list of rows of integer encodings."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, data: list[list[int]], cols: int | None = None):
        self.ctx = ctx
        self.data = [list(r) for r in data]
        self.rows = len(self.data)
        if self.rows:
            cols = len(self.data[0])
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.cols = cols
        for r in self.data:
            if len(r) != cols:
                raise ValueError("ragged rows")

    # -- construction ---------------------------------------------------
    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "MatFqm":
        return cls(ctx, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatFqm":
        data = [[0] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = 1
        return cls(ctx, data, n)

    @classmethod
    def random(cls, ctx: FieldCtx, rows: int, cols: int, rng) -> "MatFqm":
        return cls(ctx, [[ctx.random(rng) for _ in range(cols)] for _ in range(rows)], cols)

    # -- structure ------------------------------------------------------
    def transpose(self) -> "MatFqm":
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return MatFqm(self.ctx, data, self.rows)

    def vstack(self, other: "MatFqm") -> "MatFqm":
        self._check(other, cols=True)
        return MatFqm(self.ctx, self.data + other.data, self.cols)

    def hstack(self, other: "MatFqm") -> "MatFqm":
        self.ctx.check_same(other.ctx)
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return MatFqm(
            self.ctx,
            [a + b for a, b in zip(self.data, other.data)],
            self.cols + other.cols,
        )

    def frob(self, i: int = 1) -> "MatFqm":
        """Entrywise a -> a^(q^i)."""
        ctx = self.ctx
        return MatFqm(ctx, [ctx.frob_row(r, i) for r in self.data], self.cols)

    # -- arithmetic -------------------------------------------------------
    def __matmul__(self, other) -> "MatFqm":
        # MatFq entries are constants of F_{q^m} under the integer encoding,
        # so a mixed product reads other.data directly.  The product runs on
        # coefficient digit planes (_clmul_planes, or _fq_matmul for a right
        # factor over F_q).
        if isinstance(other, MatFq):
            if other.q != self.ctx.q:
                raise ValueError("base field mismatch")
        elif isinstance(other, MatFqm):
            self.ctx.check_same(other.ctx)
        else:
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ctx = self.ctx
        P, Q = self.rows, other.cols
        digits = _matrix_digits(ctx, self)
        if isinstance(other, MatFq):
            # F_q entries: plane t of the product is plane t of self times other
            B = np.array(other.data, dtype=np.int64).reshape(other.rows, Q)
            planes = _fq_matmul(digits.transpose(2, 0, 1), B, ctx.q)
        else:
            planes = _clmul_planes(ctx, digits, _matrix_digits(ctx, other))
        return _from_matrix_digits(ctx, planes.transpose(1, 2, 0))

    def is_zero(self) -> bool:
        return all(not e for r in self.data for e in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatFqm)
            and self.ctx == other.ctx
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"MatFqm({self.rows}x{self.cols} over q^m={self.ctx.q}^{self.ctx.m})"

    def _check(self, other: "MatFqm", cols: bool = False) -> None:
        self.ctx.check_same(other.ctx)
        if cols and self.cols != other.cols:
            raise ValueError("column count mismatch")


class MatFq:
    """Matrix over the base field F_q; entries are plain ints in [0, q)."""

    __slots__ = ("q", "rows", "cols", "data")

    def __init__(self, q: int, data: list[list[int]], cols: int | None = None):
        self.q = q
        self.data = [[e % q for e in r] for r in data]
        self.rows = len(self.data)
        if self.rows:
            cols = len(self.data[0])
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.cols = cols
        for r in self.data:
            if len(r) != cols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "MatFq":
        return cls(q, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, q: int, n: int) -> "MatFq":
        data = [[0] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = 1
        return cls(q, data, n)

    @classmethod
    def random(cls, q: int, rows: int, cols: int, rng) -> "MatFq":
        vals = rng.integers(0, q, size=rows * cols)
        it = iter(int(v) for v in vals)
        return cls(q, [[next(it) for _ in range(cols)] for _ in range(rows)], cols)

    def vstack(self, other: "MatFq") -> "MatFq":
        if self.q != other.q or self.cols != other.cols:
            raise ValueError("shape or field mismatch")
        return MatFq(self.q, self.data + other.data, self.cols)

    def __add__(self, other: "MatFq") -> "MatFq":
        if self.q != other.q or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape or field mismatch")
        q = self.q
        return MatFq(
            q,
            [[(a + b) % q for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            self.cols,
        )

    def __sub__(self, other: "MatFq") -> "MatFq":
        return self + other.scale(self.q - 1)

    def scale(self, a: int) -> "MatFq":
        q = self.q
        return MatFq(q, [[(a * e) % q for e in r] for r in self.data], self.cols)

    def __matmul__(self, other: "MatFq") -> "MatFq":
        if not isinstance(other, MatFq):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        A = np.array(self.data, dtype=np.int64).reshape(self.rows, self.cols)
        B = np.array(other.data, dtype=np.int64).reshape(other.rows, other.cols)
        return MatFq(self.q, _fq_matmul(A, B, self.q).tolist(), other.cols)

    def inverse(self) -> "MatFq":
        if self.rows != self.cols:
            raise ValueError("not square")
        n, q = self.rows, self.q
        A = _fq_array(q, self.data, n)
        aug = np.hstack([A, np.eye(n, dtype=A.dtype)])
        if _fq_rref(aug, q) != list(range(n)):
            raise ValueError("matrix is singular")
        return MatFq(q, aug[:, n:].tolist(), n)

    def is_zero(self) -> bool:
        return all(not e for r in self.data for e in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatFq)
            and self.q == other.q
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"MatFq({self.rows}x{self.cols} over F_{self.q})"


# -- echelon forms ------------------------------------------------------


def _fqm_rref(ctx: FieldCtx, D: np.ndarray) -> list[int]:
    """Reduce D, the coefficient digits (rows, cols, m) of an F_{q^m} matrix
    as from _matrix_digits, in place to its reduced row echelon form;
    returns the pivot columns, one per nonzero row, and leaves the rows past
    the rank zero.

    Column by column, from column j on (the pivot row is zero before j): a
    row at or below the rank r that is nonzero at j (the RREF does not
    depend on which) moves to row r and, unless its leading entry is 1, is
    scaled by the inverse of that entry (ctx.inv, then one _clmul_planes
    product).  One _clmul_planes outer product of the other nonzero entries
    of column j by the pivot row, subtracted mod q (XOR at q=2), then
    clears the column; a column that is already a unit vector costs no
    product.
    """
    rows, cols, _ = D.shape
    pivots: list[int] = []
    for j in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nonzero = D[:, j].any(axis=1)
        s = r + int(nonzero[r:].argmax())
        if not nonzero[s]:
            continue
        if s != r:
            D[[r, s]] = D[[s, r]]
            nonzero[s] = nonzero[r]
        lead = D[r, j]
        if lead[0] != 1 or lead[1:].any():
            inv = _coeff_digits(ctx, [ctx.inv(_from_digits(ctx, lead[None])[0])])
            D[r, j:] = _clmul_planes(ctx, inv[None], D[None, r, j:])[:, 0].T
        nonzero[r] = False
        others = np.flatnonzero(nonzero)
        if others.size:
            # planes[t, i, l]: digit t of D[others[i], j] D[r, j + l]
            planes = _clmul_planes(ctx, D[others, j, None], D[None, r, j:])
            D[others, j:] = _sub_digits(D[others, j:], planes.transpose(1, 2, 0), ctx.q)
        pivots.append(j)
    return pivots


def _echelon_dtype(q: int):
    """The dtype _fq_rref works in: int16 while one update of reduced
    entries, q (q-1) at most in size, fits (q <= 181), else int64, else
    Python ints."""
    bound = q * (q - 1)
    if bound < 1 << 15:
        return np.int16
    return np.int64 if bound < 1 << 63 else object


def _fq_array(q: int, data, cols: int) -> np.ndarray:
    """A fresh (rows, cols) array of F_q entries (a list of rows or an
    array) in the dtype _fq_rref works in."""
    return np.array(data, dtype=_echelon_dtype(q)).reshape(len(data), cols)


def _fq_rref(A: np.ndarray, q: int) -> list[int]:
    """Reduce A, entries in [0, q) as from _fq_array, in place to its
    reduced row echelon form; returns the pivot columns, one per nonzero
    row, and leaves the rows past the rank zero.

    Column by column, with c column j read mod q: a row at or below the
    rank r with c_s != 0 (the RREF does not depend on which) gives the pivot
    row p, read mod q and scaled to 1 at j, and row r moves to its place.
    One rank-one update of the column slice A[:, j:] (a view, whole rows)
    then takes c_i p off every other row i, and p is written to row r.
    Columns before j need no update, as p is zero there.  The rest of A is
    reduced mod q only when the next update could pass the dtype (each
    adds at most (q-1)^2 in size), and once at the end.
    """
    rows, cols = A.shape
    # the largest entry size the dtype holds (np.iinfo is slow to build)
    limit = math.inf if A.dtype == object else (1 << (8 * A.dtype.itemsize - 1)) - 1
    unit = (q - 1) ** 2
    top = q - 1  # bound on the size of the entries of A
    pivots: list[int] = []
    for j in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = A[:, j] % q
        s = r
        if not col[r]:
            s = r + int(col[r:].argmax())
            if not col[s]:
                continue
        row = A[s, j:] % q
        a = int(col[s])
        if s != r:  # row s is the pivot row, written to row r below
            A[s] = A[r]
            col[s] = col[r]
        if a != 1:
            row *= pow(a, -1, q)
            row %= q
        col[r] = 0
        if top + unit > limit:
            A[:, j:] %= q
            top = q - 1
        A[:, j:] -= np.multiply.outer(col, row)
        top += unit
        A[r, j:] = row
        pivots.append(j)
    A %= q
    return pivots


def _fq_kernel(A: np.ndarray, q: int) -> np.ndarray:
    """Basis of {x : A x^T = 0} for A as from _fq_array, which is reduced in
    place: one row per free column of the RREF, in column order, 1 at that
    column and 0 at the other free ones."""
    cols = A.shape[1]
    pivots = _fq_rref(A, q)
    free = np.setdiff1d(np.arange(cols), pivots)
    K = np.zeros((free.size, cols), dtype=A.dtype)
    K[np.arange(free.size), free] = 1
    K[:, pivots] = -A[: len(pivots), free].T % q
    return K


def rref(M):
    """Reduced row echelon form with the zero rows dropped.

    Returns (R, rank, pivot_columns).  Works on MatFqm and MatFq.
    """
    if isinstance(M, MatFqm):
        D = _matrix_digits(M.ctx, M)
        pivs = _fqm_rref(M.ctx, D)
        return _from_matrix_digits(M.ctx, D[: len(pivs)]), len(pivs), pivs
    if isinstance(M, MatFq):
        A = _fq_array(M.q, M.data, M.cols)
        pivs = _fq_rref(A, M.q)
        return MatFq(M.q, A[: len(pivs)].tolist(), M.cols), len(pivs), pivs
    raise TypeError(f"rref does not handle {type(M).__name__}")


def rank(M) -> int:
    if isinstance(M, MatFqm):
        return len(_fqm_rref(M.ctx, _matrix_digits(M.ctx, M)))
    if isinstance(M, MatFq):
        if M.q == 2:  # rows packed into ints: far less overhead than numpy at these sizes
            ech = _BitEchelon(M.cols)
            for row in _pack_rows(np.array(M.data, dtype=np.uint8).reshape(M.rows, M.cols)):
                ech.add(row)
            return ech.rank
        return len(_fq_rref(_fq_array(M.q, M.data, M.cols), M.q))
    raise TypeError(f"rank does not handle {type(M).__name__}")


def right_kernel(M):
    """Basis of {x : M x^T = 0} as rows of a matrix of the same kind.

    Deterministic: one basis vector per free column of the RREF, in
    column order, with a 1 in the free position.
    """
    if isinstance(M, MatFq):
        return MatFq(M.q, _fq_kernel(_fq_array(M.q, M.data, M.cols), M.q).tolist(), M.cols)
    ctx, cols = M.ctx, M.cols
    D = _matrix_digits(ctx, M)
    pivots = _fqm_rref(ctx, D)
    taken = set(pivots)
    free = [j for j in range(cols) if j not in taken]
    K = np.zeros((len(free), cols, ctx.m), dtype=D.dtype)
    K[range(len(free)), free, 0] = 1
    K[:, pivots] = _neg_digits(D[: len(pivots), free], ctx.q).transpose(1, 0, 2)
    return _from_matrix_digits(ctx, K)


# -- vectors ------------------------------------------------------------


def vec_mat(ctx: FieldCtx, v: list[int], M) -> list[int]:
    """Row vector times matrix over F_{q^m} (M may be MatFq): a one-row
    MatFqm product."""
    return (MatFqm(ctx, [v], M.rows) @ M).data[0]


def mat_vec(ctx: FieldCtx, M: MatFqm, v: list[int]) -> list[int]:
    """Matrix over F_{q^m} times column vector, returned as a list: a
    one-column MatFqm product."""
    return [r[0] for r in (M @ MatFqm(ctx, [[a] for a in v], 1)).data]


def rank_fq(ctx: FieldCtx, v: list[int]) -> int:
    """Rank weight: dimension over F_q of the span of the coordinates."""
    if ctx.q == 2:
        ech = _BitEchelon(ctx.m)
        for a in v:
            if a:
                ech.add(a)
        return ech.rank
    digits = _coeff_digits(ctx, [a for a in v if a])
    return len(_fq_rref(_fq_array(ctx.q, digits, ctx.m), ctx.q))


# -- the F_{q^m} -> F_q bridge -------------------------------------------


def expand_fq_system(M: MatFqm) -> MatFq:
    """Split F_{q^m}-linear constraints on F_q unknowns into F_q equations.

    Row r of M is the coefficient vector of one constraint sum_j c_j u_j
    with the u_j ranging over F_q.  Each constraint becomes m rows, one per
    polynomial-basis coordinate: row r m + t holds coefficient t of every
    c_j.
    """
    ctx = M.ctx
    digits = _matrix_digits(ctx, M).transpose(0, 2, 1).reshape(M.rows * ctx.m, M.cols)
    return MatFq(ctx.q, digits.tolist(), M.cols)


def fq_kernel(ctx: FieldCtx, rows, width: int) -> MatFq:
    """Basis of {x in F_q^width : sum_j r_j x_j = 0 for every row r} for an
    iterable of F_{q^m} rows, equal to right_kernel(expand_fq_system(...)).

    At q=2 each row is split into its m coefficient bit-rows as it arrives
    and fed to a _BitEchelon, so the expanded system is never held; at odd
    q the expanded system goes to the F_q echelon (_fq_rref).
    """
    if ctx.q != 2:
        return right_kernel(expand_fq_system(MatFqm(ctx, list(rows), width)))
    ech = _BitEchelon(width)
    for row in rows:
        for bits in _bit_rows(ctx, row):
            ech.add(bits)
    return MatFq(2, [[(v >> j) & 1 for j in range(width)] for v in ech.kernel_basis()], width)


def _bit_rows(ctx: FieldCtx, row: list[int]) -> list[int]:
    """q=2: the m coefficient bit-rows of an F_{2^m} row, bit-row t holding
    coefficient t of every entry (bit j = entry j)."""
    return _pack_rows(_coeff_digits(ctx, row).T)


def _digit_dtype(q: int):
    """The dtype of coefficient digits: uint8 up to q = 256, else int64."""
    return np.uint8 if q <= 256 else np.int64


@functools.lru_cache(maxsize=None)
def _limb_powers(q: int, m: int) -> np.ndarray:
    """q^0, q^1, ..., q^(c-1) as int64, for the largest c <= m with q^c
    below 2^63: c base-q digits make one int64 limb of an encoding.
    Read-only, one per (q, m)."""
    powers = [1]
    while len(powers) < m and q ** (len(powers) + 1) <= np.iinfo(np.int64).max:
        powers.append(powers[-1] * q)
    table = np.array(powers, dtype=np.int64)
    table.flags.writeable = False
    return table


def _coeff_digits(ctx: FieldCtx, row: list[int]) -> np.ndarray:
    """The coefficients of F_{q^m} elements (base-q digits of their
    encodings), shape (len(row), m).  At q=2 the bytes of each encoding
    are unpacked; at odd q each encoding is split into int64 limbs of c
    digits (_limb_powers), so encodings of any size stay exact, and each
    limb is divided out by the powers of q."""
    q, m = ctx.q, ctx.m
    if q == 2:
        nbytes = (m + 7) // 8
        buf = b"".join(a.to_bytes(nbytes, "little") for a in row)
        arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(row), nbytes)
        return np.unpackbits(arr, axis=1, bitorder="little")[:, :m]
    powers = _limb_powers(q, m)
    c = len(powers)
    base = q**c
    out = np.empty((len(row), m), dtype=_digit_dtype(q))
    rest = row
    for t0 in range(0, m, c):
        limb = rest
        if t0 + c < m:
            rest = [a // base for a in limb]
            limb = [a % base for a in limb]
        vals = np.array(limb, dtype=np.int64)
        out[:, t0 : t0 + c] = vals[:, None] // powers[: m - t0] % q
    return out


def _from_digits(ctx: FieldCtx, digits: np.ndarray) -> list[int]:
    """The encodings of the F_{q^m} elements whose coefficients are the rows
    of digits (count, m): the inverse of _coeff_digits."""
    q, m = ctx.q, ctx.m
    if q == 2:
        return _pack_rows(digits)
    powers = _limb_powers(q, m)
    c = len(powers)
    base = q**c
    out: list[int] | None = None
    for t0 in reversed(range(0, m, c)):
        limb = (digits[:, t0 : t0 + c].astype(np.int64) @ powers[: m - t0]).tolist()
        out = limb if out is None else [a * base + b for a, b in zip(out, limb)]
    return out


def _matrix_digits(ctx: FieldCtx, M) -> np.ndarray:
    """The coefficient digits of the entries of M (MatFqm or MatFq), shape
    (rows, cols, m)."""
    return _coeff_digits(ctx, [e for r in M.data for e in r]).reshape(M.rows, M.cols, ctx.m)


def _from_matrix_digits(ctx: FieldCtx, D: np.ndarray) -> MatFqm:
    """The MatFqm whose entries have the coefficient digits D (rows, cols,
    m): the inverse of _matrix_digits."""
    rows, cols = D.shape[:2]
    entries = _from_digits(ctx, D.reshape(rows * cols, ctx.m))
    return MatFqm(ctx, [entries[i * cols : (i + 1) * cols] for i in range(rows)], cols)


def _neg_digits(D: np.ndarray, q: int) -> np.ndarray:
    """The coefficient digits of -a for each element a with digits D."""
    return D if q == 2 else (q - D) % q


def _sub_digits(D: np.ndarray, E: np.ndarray, q: int) -> np.ndarray:
    """The coefficient digits of a - b for elements a, b with digits D, E."""
    if q == 2:
        return D ^ E
    return ((D.astype(np.int64) - E) % q).astype(D.dtype)


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as ints, bit j = column j."""
    return [
        int.from_bytes(packed.tobytes(), "little")
        for packed in np.packbits(bits, axis=1, bitorder="little")
    ]


def _outer_bit_rows(ctx: FieldCtx, x: list[int], y: list[int]) -> list[int]:
    """q=2: _bit_rows of x (x) y (entry u len(y) + v is x_u y_v), computed
    by _clmul_planes."""
    planes = _clmul_planes(ctx, _coeff_digits(ctx, x)[:, None], _coeff_digits(ctx, y)[None])
    return _pack_rows(planes.reshape(ctx.m, len(x) * len(y)))


# Byte bound on the Toeplitz block, and on the block of sums, of one
# _clmul_planes step (at least one entry's m x (2m-1) block, and one row of
# sums).  Larger blocks mean fewer BLAS calls but a higher peak RSS.
_CLMUL_BLOCK_BYTES = 1 << 16

# float32 represents every integer up to 2^24 exactly; _clmul_planes and
# _fq_matmul keep each of their sums at or below this bound.
_CLMUL_EXACT = 1 << 24


def _clmul_planes(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The coefficient digits of the F_{q^m} matrix product A B, with no
    F_{q^m} arithmetic.  A (P, K, m) and B (K, Q, m) hold the coefficient
    digits of the entries (as from _coeff_digits); plane t of the (m, P, Q)
    result holds digit t of sum_a A[p, a] B[a, q].  The result is a view of
    digits stored entry by entry, so its .transpose(1, 2, 0), the layout of
    _matrix_digits, costs no copy.

    Two exact float32 BLAS products per block of columns of B: the digits
    of A against the Toeplitz layout of B give the unreduced polynomial
    products (coefficients 0 .. 2m-2, summed over a), and those against
    the (2m-1) x m table of the digits of x^s mod f give the reduced ones;
    both are read mod q (& 1 at q=2).  Every sum stays an integer of at most
    _CLMUL_EXACT, below which float32 is exact: each a adds at most
    m (q-1)^2 to a running sum of the first product, which is reduced mod q
    whenever the next block of a could push it past that bound, and once
    more before the second product if its sums (w (q-1) times the running
    bound) could.  A field too large for even one entry's sums within the
    bound (w (q-1)^2 > _CLMUL_EXACT) gets the same steps on Python ints.

    The Toeplitz layout goes on the operand with fewer entries (through
    (A B)^T = B^T A^T when that is A), so a thin product such as one row
    times a long row takes a few large BLAS calls, not one per entry.  Each
    Toeplitz block, and each block of sums, is capped at _CLMUL_BLOCK_BYTES
    by splitting over a, the columns of B and the rows of A.
    """
    q, m = ctx.q, ctx.m
    P, K, _ = A.shape
    Q = B.shape[1]
    if Q > P:  # lay out the operand with fewer entries: (A B)^T = B^T A^T
        At, Bt = A.transpose(1, 0, 2), B.transpose(1, 0, 2)
        return _clmul_planes(ctx, Bt, At).transpose(0, 2, 1)
    w = 2 * m - 1
    unit = (q - 1) ** 2  # the most one product of two digits adds to a sum
    fits = max(w * unit, m * unit + q - 1) <= _CLMUL_EXACT
    dtype = np.float32 if fits else object
    red = _reduction_table(ctx, dtype)
    X = A.reshape(P, K * m).astype(dtype)
    blocks = max(1, _CLMUL_BLOCK_BYTES // (4 * m * w))  # (a, q) entries per block
    qc = max(1, blocks // max(K, 1))
    # a block of a adds at most step to a sum, and a reduced sum is below q
    ka = max(1, min(K, blocks // qc, (_CLMUL_EXACT - q + 1) // (m * unit)))
    step = ka * m * unit
    pc = max(1, _CLMUL_BLOCK_BYTES // (4 * qc * w))  # rows of X per block of sums
    out = np.empty((P, Q, m), dtype=_digit_dtype(q))
    for q0 in range(0, Q, qc):
        q1 = min(Q, q0 + qc)
        first = _toeplitz(B[:ka, q0:q1], dtype)
        for p0 in range(0, P, pc):
            p1 = min(P, p0 + pc)
            S = X[p0:p1, : ka * m] @ first
            top = step  # bound on the entries of S
            for a0 in range(ka, K, ka):
                if top + step > _CLMUL_EXACT:
                    S = _mod_q(S, q).astype(dtype)
                    top = q - 1
                S += X[p0:p1, a0 * m : (a0 + ka) * m] @ _toeplitz(B[a0 : a0 + ka, q0:q1], dtype)
                top += step
            if top * w * (q - 1) > _CLMUL_EXACT:
                S = _mod_q(S, q).astype(dtype)
            Z = _mod_q(S.reshape((p1 - p0) * (q1 - q0), w) @ red, q)
            out[p0:p1, q0:q1] = Z.reshape(p1 - p0, q1 - q0, m)
    return out.transpose(2, 0, 1)


def _fq_matmul(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """The product mod q of arrays A (..., K) and B (K, Q) with entries in
    [0, q), as int32: exact float32 products over chunks of K short enough
    that no sum passes _CLMUL_EXACT (Python ints when one term could)."""
    unit = (q - 1) ** 2
    dtype = np.float32 if unit <= _CLMUL_EXACT else object
    E = max(1, _CLMUL_EXACT // unit)
    B = B.astype(dtype)
    out = _mod_q(A[..., :E].astype(dtype) @ B[:E], q)
    for a0 in range(E, B.shape[0], E):
        out = _mod_q(out + _mod_q(A[..., a0 : a0 + E].astype(dtype) @ B[a0 : a0 + E], q), q)
    return out


def _mod_q(S: np.ndarray, q: int) -> np.ndarray:
    """Integer-valued entries mod q: float32 as int32 (& 1 at q=2; np.fmod
    is far slower), Python ints as Python ints."""
    if S.dtype == object:
        return S % q
    S = S.astype(np.int32)
    if q == 2:
        S &= 1
    else:
        S %= q
    return S


def _toeplitz(Y: np.ndarray, dtype) -> np.ndarray:
    """Coefficient digits Y (K, Q, m) laid out as the (K m, Q (2m-1))
    matrix of dtype with entry ((a, i), (q, s)) = Y[a, q, s - i] (0 outside
    the range): row (a, i) holds the coefficients of x^i Y[a, q]."""
    K, Q, m = Y.shape
    pad = np.zeros((K, Q, 3 * m - 2), dtype=dtype)
    pad[:, :, m - 1 : 2 * m - 1] = Y
    sa, sq, se = pad.strides
    # entry (a, i, q, s) at pad[a, q, m - 1 - i + s]: a window of the padded
    # row that slides one place left per step of i (a view of pad, built
    # directly as np.lib.stride_tricks.as_strided would, at half its cost)
    view = np.ndarray((K, m, Q, 2 * m - 1), dtype, pad, (m - 1) * se, (sa, -se, sq, se))
    return view.reshape(K * m, Q * (2 * m - 1))


@functools.lru_cache(maxsize=None)
def _reduction_table(ctx: FieldCtx, dtype) -> np.ndarray:
    """The (2m-1) x m table of dtype whose row s holds the coefficients of
    x^s mod f, for F_{q^m} = F_q[x]/(f); read-only, one per field."""
    q, m, f = ctx.q, ctx.m, ctx.modulus
    rows, p = [], [1] + [0] * (m - 1)
    for _ in range(2 * m - 1):
        rows.append(p)
        top, p = p[-1], [0] + p[:-1]  # times x, then x^m = -(f - x^m)
        if top:
            p = [(c - top * fc) % q for c, fc in zip(p, f)]
    table = np.array(rows, dtype=dtype)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _frob_matrix(ctx: FieldCtx, i: int) -> np.ndarray:
    """The m x m F_q matrix of a -> a^(q^i), 0 <= i < m: row t holds the
    coefficient digits of (x^t)^(q^i), so the digits of a^(q^i) are those
    of a times it, mod q.  Read-only, one per field and i."""
    if i == 0:
        table = np.eye(ctx.m, dtype=_digit_dtype(ctx.q))
    else:
        table = _coeff_digits(ctx, ctx._frob_images(i))
    table.flags.writeable = False
    return table


def _frob_digits(ctx: FieldCtx, D: np.ndarray, powers) -> np.ndarray:
    """The coefficient digits (..., len(powers), m) of a^(q^i) for every i
    in powers and every element a with digits D (..., m).  The Frobenius is
    F_q-linear, so this is _fq_matmul against the matrices of the powers
    (_frob_matrix) side by side, as many per product as fit in
    _CLMUL_BLOCK_BYTES (all of them for the decoder's powers at m=40, one
    at a time at m=104)."""
    q, m = ctx.q, ctx.m
    powers = [i % m for i in powers]
    out = np.empty((*D.shape[:-1], len(powers), m), dtype=_digit_dtype(q))
    step = max(1, _CLMUL_BLOCK_BYTES // (4 * m * m))
    for i0 in range(0, len(powers), step):
        chunk = powers[i0 : i0 + step]
        F = np.hstack([_frob_matrix(ctx, i) for i in chunk])
        digits = _fq_matmul(D, F, q).reshape(*D.shape[:-1], len(chunk), m)
        out[..., i0 : i0 + len(chunk), :] = digits
    return out


def solve_fq(q: int, system: np.ndarray) -> list[int] | None:
    """One solution x of A x = b over F_q, given the augmented matrix
    [A | b] as an integer array with entries in [0, q); None if
    inconsistent.  Free variables are set to zero.

    At q=2 the rows are packed 8 columns per byte and bulk-loaded into a
    _BitEchelon; at odd q they go to the F_q echelon (_fq_rref).
    """
    cols = system.shape[1] - 1
    if q == 2:
        ech = _BitEchelon(cols + 1)
        ech.load(np.packbits(system.astype(np.uint8), axis=1, bitorder="little"))
        if cols in ech.pivots:
            return None  # a row reduced to 0 = 1
        # the right-hand side is a non-pivot column fixed to 1; free
        # variables stay zero
        x = ech.complete(1 << cols)
        return [(x >> j) & 1 for j in range(cols)]
    A = _fq_array(q, system, cols + 1)
    pivots = _fq_rref(A, q)
    if cols in pivots:
        return None
    x = [0] * cols
    for i, p in enumerate(pivots):
        x[p] = int(A[i, cols])
    return x


def solve_left(A: MatFqm, B: MatFqm) -> MatFqm | None:
    """Solve X A = B over F_{q^m}; None if inconsistent.

    Free variables are set to zero, so the answer is the unique solution
    whenever A has full row rank.  The transposed system A^T X^T = B^T is
    reduced as the augmented matrix [A^T | B^T].
    """
    A._check(B, cols=True)
    ctx, k = A.ctx, A.rows
    aug = np.concatenate([_matrix_digits(ctx, A), _matrix_digits(ctx, B)])
    aug = aug.transpose(1, 0, 2).copy()
    pivots = _fqm_rref(ctx, aug)
    if pivots and pivots[-1] >= k:
        return None
    Xt = np.zeros((k, B.rows, ctx.m), dtype=aug.dtype)
    Xt[pivots] = aug[: len(pivots), k:]
    return _from_matrix_digits(ctx, Xt.transpose(1, 0, 2))


# -- row spaces ----------------------------------------------------------


def canonical(M: MatFqm) -> MatFqm:
    """Canonical form of the row space: trimmed RREF."""
    R, _, _ = rref(M)
    return R


def space_intersect(A: MatFqm, B: MatFqm) -> MatFqm:
    A._check(B, cols=True)
    dual = right_kernel(A).vstack(right_kernel(B))
    return canonical(right_kernel(dual))



# -- random samplers -------------------------------------------------------

_RESAMPLE_CAP = 64  # nonsingularity rejection bound; failure odds ~ q^-64


def _resample(draw, accept):
    """The first draw() that accept() takes, trying at most _RESAMPLE_CAP."""
    for _ in range(_RESAMPLE_CAP):
        x = draw()
        if accept(x):
            return x
    raise RuntimeError("rejection sampling failed")


def random_gl(q: int, n: int, rng) -> MatFq:
    """Uniform-ish invertible n x n matrix over F_q by rejection."""
    return _resample(lambda: MatFq.random(q, n, n, rng), lambda M: rank(M) == n)


def random_invertible_matfqm(ctx: FieldCtx, n: int, rng) -> MatFqm:
    return _resample(lambda: MatFqm.random(ctx, n, n, rng), lambda M: rank(M) == n)


def random_rank_s_matfqm(ctx: FieldCtx, k: int, lam: int, s: int, rng) -> MatFqm:
    """k x lam matrix over F_{q^m} of rank exactly s, as a product A B of
    full-rank k x s and s x lam factors."""
    if not 1 <= s <= min(k, lam):
        raise ValueError(f"rank {s} impossible for a {k}x{lam} matrix")

    def full_rank(rows: int, cols: int) -> MatFqm:
        full = min(rows, cols)
        return _resample(lambda: MatFqm.random(ctx, rows, cols, rng), lambda M: rank(M) == full)

    return full_rank(k, s) @ full_rank(s, lam)


def random_independent_vec(ctx: FieldCtx, n: int, rng) -> list[int]:
    """Vector in F_{q^m}^n with F_q-linearly independent coordinates."""
    if n > ctx.m:
        raise ValueError("cannot fit more than m independent coordinates")
    return _resample(lambda: [ctx.random(rng) for _ in range(n)], lambda v: rank_fq(ctx, v) == n)


def random_vec_rank(ctx: FieldCtx, n: int, t: int, rng) -> list[int]:
    """Length-n vector of rank weight exactly t: a rank-t support basis
    combined through a full-rank t x n matrix over F_q."""
    if not 0 <= t <= min(n, ctx.m):
        raise ValueError(f"rank {t} impossible for length {n}")
    if t == 0:
        return [0] * n
    support = random_independent_vec(ctx, t, rng)
    B = _resample(lambda: MatFq.random(ctx.q, t, n, rng), lambda M: rank(M) == t)
    return vec_mat(ctx, support, B)
