"""Exact rational linear algebra: matrices, canonical forms and subspaces.

Everything downstream (brackets, radicals, chain combinatorics) is built on
two currencies defined here: ``Matrix`` over the rationals and ``Subspace``,
a subspace of Q^n stored as its unique reduced-row-echelon basis.  Equality
of subspaces is literal equality of canonical bases, so no tolerances exist
anywhere in the package.

A scalar is a Python ``int`` when its value is integral and a
``fractions.Fraction`` otherwise.  The two compare and hash equal and print
alike, so the choice never shows in results; it only keeps integral work in
C.  ``qq`` is the one coercion (``Matrix`` applies it to every entry) and
``div`` the one division, so no float can arise from ``int / int``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]

Q0 = 0
Q1 = 1


def qq(value) -> Scalar:
    """Coerce ints, rationals and strings like '3/4' or '4/2' to a scalar:
    an int when the value is integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def div(a, b) -> Scalar:
    """Exact quotient a / b as a scalar; the package's only division."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return qq(a / b)


class Matrix:
    """Immutable dense rational matrix, rows stored as tuples.

    `cols` must be passed explicitly for matrices with no rows, so empty
    matrices keep their shape through transposes and products.
    """

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, data: Sequence[Sequence], cols: Optional[int] = None):
        rows = tuple(tuple([x if type(x) is int else qq(x) for x in row])
                     for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (0 if cols is None else cols)
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
        self.data = rows
        self._hash = None

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[Q0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[Q1 if i == j else Q0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data and self.cols == other.cols

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.cols, self.data))
        return self._hash

    def __repr__(self) -> str:
        return "Matrix(%r)" % [[str(x) for x in row] for row in self.data]

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return Matrix([
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        ], cols=self.cols)

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sub")
        return Matrix([
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        ], cols=self.cols)

    def neg(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data], cols=self.cols)

    def scale(self, c) -> "Matrix":
        c = qq(c)
        return Matrix([[c * a for a in row] for row in self.data], cols=self.cols)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        out = [[Q0] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, row in enumerate(self.data):
            acc = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                for j, b in enumerate(odata[k]):
                    if b:
                        acc[j] += a * b
        return Matrix(out, cols=other.cols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if self.cols != len(vec):
            raise ValueError("shape mismatch in apply")
        out = [Q0] * self.rows
        for j, x in enumerate(vec):
            if not x:
                continue
            for i, row in enumerate(self.data):
                a = row[j]
                if a:
                    out[i] += a * x
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)], cols=self.rows)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        t = Q0
        for i in range(self.rows):
            t += self.data[i][i]
        return qq(t)

    def trace_of_product(self, other: "Matrix"):
        """tr(self * other) in O(n^2), without forming the product."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError("shape mismatch in trace_of_product")
        t = Q0
        for row, col in zip(self.data, zip(*other.data)):
            for a, b in zip(row, col):
                if a and b:
                    t += a * b
        return qq(t)

    def stack(self, other: "Matrix") -> "Matrix":
        if other.rows == 0:
            return self
        if self.rows == 0:
            return other
        if self.cols != other.cols:
            raise ValueError("shape mismatch in stack")
        return Matrix(self.data + other.data, cols=self.cols)

    def flatten(self) -> tuple:
        """Row-major entry tuple (the operator-space coordinates)."""
        return tuple(chain.from_iterable(self.data))


def matrix_from_flat(entries: Sequence, rows: int, cols: int) -> Matrix:
    if len(entries) != rows * cols:
        raise ValueError("flat entry count does not match shape")
    return Matrix([entries[i * cols:(i + 1) * cols] for i in range(rows)],
                  cols=cols)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns; row space preserved."""
    rows = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [div(x, pv) if x else Q0 for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                ri = rows[i]
                for j in range(c, ncols):
                    if prow[j]:
                        ri[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    kept = [row for row in rows[:r]]
    return (Matrix(kept, cols=ncols) if kept else Matrix.zeros(0, ncols)), tuple(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[0].rows


def nullspace_matrix(m: Matrix) -> Matrix:
    """Basis (as rows) of the right kernel {x : Mx = 0}."""
    red, pivots = rref(m)
    ncols = m.cols
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [Q0] * ncols
        vec[f] = Q1
        for r, p in enumerate(pivots):
            vec[p] = -red.entry(r, f)
        basis.append(vec)
    return Matrix(basis, cols=ncols) if basis else Matrix.zeros(0, ncols)


def nullspace_sparse(rows: Iterable[dict], ncols: int) -> Matrix:
    """Kernel basis for a system given as sparse rows {column: coefficient}.

    Same result as ``nullspace_matrix`` on the dense system; intended for the
    large, very sparse systems (derivation and centroid conditions) where
    dense elimination is wasteful.
    """
    pivot_rows: dict[int, dict] = {}
    for raw in rows:
        row = {j: qq(v) for j, v in raw.items() if v}
        while row:
            lead = min(row)
            if lead in pivot_rows:
                factor = row.pop(lead)
                for j, v in pivot_rows[lead].items():
                    if j == lead:
                        continue
                    nv = row.get(j, Q0) - factor * v
                    if not nv:
                        row.pop(j, None)
                    else:
                        row[j] = nv
            else:
                pv = row[lead]
                pivot_rows[lead] = {j: div(v, pv) for j, v in row.items()}
                break
    for lead in sorted(pivot_rows, reverse=True):
        prow = pivot_rows[lead]
        for other_lead, orow in pivot_rows.items():
            if other_lead >= lead or lead not in orow:
                continue
            factor = orow.pop(lead)
            for j, v in prow.items():
                if j == lead:
                    continue
                nv = orow.get(j, Q0) - factor * v
                if not nv:
                    orow.pop(j, None)
                else:
                    orow[j] = nv
    pivot_set = set(pivot_rows)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Q0] * ncols
        vec[f] = Q1
        for lead, prow in pivot_rows.items():
            coeff = prow.get(f)
            if coeff is not None:
                vec[lead] = -coeff
        basis.append(vec)
    return Matrix(basis, cols=ncols) if basis else Matrix.zeros(0, ncols)


def nullspace(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {x : Mx = 0}."""
    return Subspace.span(m.cols, nullspace_matrix(m).data)


def solve(a: Matrix, b: Sequence) -> Optional[tuple]:
    """One solution of A x = b (free variables set to 0), or None."""
    if a.rows != len(b):
        raise ValueError("shape mismatch in solve")
    aug = Matrix([list(row) + [qq(bb)] for row, bb in zip(a.data, b)]) \
        if a.rows else Matrix.zeros(0, a.cols + 1)
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [Q0] * a.cols
    for r, p in enumerate(pivots):
        x[p] = red.entry(r, a.cols)
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; ValueError if it is singular."""
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of non-square matrix")
    aug = Matrix([list(row) + [Q1 if j == i else Q0 for j in range(n)]
                  for i, row in enumerate(m.data)], cols=2 * n)
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is not invertible")
    return Matrix([red.row(i)[n:] for i in range(n)], cols=n)


def determinant(m: Matrix) -> Scalar:
    """Determinant of a square matrix by Gaussian elimination."""
    n = m.rows
    if m.cols != n:
        raise ValueError("determinant of non-square matrix")
    rows = [list(r) for r in m.data]
    det = Q1
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            return Q0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        pv = rows[c][c]
        det *= pv
        for r in range(c + 1, n):
            f = div(rows[r][c], pv)
            if f:
                for j in range(c, n):
                    rows[r][j] -= f * rows[c][j]
    return qq(det)


class Subspace:
    """Subspace of Q^n held as its canonical RREF basis (no zero rows)."""

    __slots__ = ("ambient_dim", "basis", "pivots", "_hash")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        # internal: callers use Subspace.span / Subspace.zero / Subspace.full
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._hash = None

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [list(v) for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not rows:
            return Subspace.zero(ambient_dim)
        red, pivots = rref(Matrix(rows))
        return Subspace(ambient_dim, red, pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(0, ambient_dim), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim),
                        tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0

    def is_full(self) -> bool:
        return self.basis.rows == self.ambient_dim

    def vectors(self) -> tuple:
        return self.basis.data

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.basis))
        return self._hash

    def __repr__(self) -> str:
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)

    def sort_key(self) -> tuple:
        """Deterministic tie-break key: pivot columns, then basis entries."""
        return (self.dim, self.pivots, self.basis.flatten())

    def reduce(self, vec: Sequence) -> tuple:
        """Remainder of vec after clearing its pivot-column entries.

        Zero exactly when vec lies in the subspace; otherwise the canonical
        representative of vec modulo the subspace.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        v = [x if type(x) is int else qq(x) for x in vec]
        for brow, p in zip(self.basis.data, self.pivots):
            c = v[p]
            if c:
                for j, b in enumerate(brow):
                    if b:
                        v[j] -= c * b
        return tuple(v)

    def contains_vector(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.vectors())

    def coords_of(self, vec: Sequence) -> Optional[tuple]:
        """Coefficients of vec in the canonical basis, or None.

        Basis row r is 1 at pivot r and 0 at every other pivot, so the
        coefficients are the entries of vec at the pivot columns.
        """
        if not self.contains_vector(vec):
            return None
        return tuple(qq(vec[p]) for p in self.pivots)


class SpanBuilder:
    """Incrementally maintained row-reduced spanning set.

    Cheaper than recanonicalizing a Subspace on every insertion when growing
    spans one vector at a time (envelopes, spinning, closures).
    """

    __slots__ = ("ambient_dim", "rows", "pivot_of")

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows: list[list] = []
        self.pivot_of: dict[int, int] = {}

    def _reduce(self, vec: Sequence) -> list:
        v = [x if type(x) is int else qq(x) for x in vec]
        for p, r in self.pivot_of.items():
            c = v[p]
            if c:
                for j, b in enumerate(self.rows[r]):
                    if b:
                        v[j] -= c * b
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self._reduce(vec)
        pivot = None
        for j, x in enumerate(v):
            if x:
                pivot = j
                break
        if pivot is None:
            return False
        pv = v[pivot]
        if pv != 1:
            v = [div(x, pv) if x else Q0 for x in v]
        self.pivot_of[pivot] = len(self.rows)
        self.rows.append(v)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def subspace(self) -> Subspace:
        return Subspace.span(self.ambient_dim, self.rows)


def span_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(u.ambient_dim, list(u.vectors()) + list(v.vectors()))


def span_intersect(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if u.is_zero() or v.is_zero():
        return Subspace.zero(u.ambient_dim)
    # x in U∩V  <=>  x = U^T a = V^T b; solve the stacked system for (a; -b).
    ut = u.basis.transpose()
    vt = v.basis.transpose()
    stacked = Matrix([
        list(ut.row(i)) + list(vt.row(i)) for i in range(u.ambient_dim)
    ])
    ker = nullspace_matrix(stacked)
    vecs = []
    for krow in ker.data:
        coeffs = krow[:u.dim]
        vec = [Q0] * u.ambient_dim
        for c, brow in zip(coeffs, u.vectors()):
            if c:
                for j in range(u.ambient_dim):
                    vec[j] += c * brow[j]
        vecs.append(vec)
    return Subspace.span(u.ambient_dim, vecs)


def complement_codim(z: Subspace, y: Subspace) -> tuple[Matrix, int]:
    """Basis of a complement of Y∩Z inside Z, and codim Z/(Y∩Z).

    The returned numbers witness the finite-dimensional closed-sum identity
    dim(Z/(Y∩Z)) = dim((Y+Z)/Y).
    """
    if z.ambient_dim != y.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    inter = span_intersect(y, z)
    picked: list = []
    current = inter
    for vec in z.vectors():
        if not current.contains_vector(vec):
            picked.append(vec)
            current = span_sum(current, Subspace.span(z.ambient_dim, [vec]))
    codim = z.dim - inter.dim
    comp = (Matrix(picked, cols=z.ambient_dim) if picked
            else Matrix.zeros(0, z.ambient_dim))
    return comp, codim
