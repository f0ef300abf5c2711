"""Exact rational linear algebra: matrices, canonical forms and subspaces.

Everything downstream (brackets, radicals, chain combinatorics) is built on
two currencies defined here: ``Matrix`` over the rationals and ``Subspace``,
a subspace of Q^n stored as its unique reduced-row-echelon basis.  Equality
of subspaces is literal equality of canonical bases, so no tolerances exist
anywhere in the package.

A scalar is a Python ``int`` when its value is integral and a
``fractions.Fraction`` otherwise.  The two compare and hash equal and print
alike, so the choice never shows in results; it only keeps integral work in
C.  ``qq`` is the one coercion (``Matrix`` applies it to the entries that
are not already ints) and ``div`` the one division, so no float can arise
from ``int / int``.

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): ``rref``,
``nullspace_sparse`` and ``SpanBuilder`` clear a row's denominators once,
on entry (``primitive_part``), and combine integer rows as ``a*v - b*row``
with ``a = pivot/g``, ``b = f/g`` and ``g = gcd(pivot, f)``, keeping rows
primitive with positive pivots.  A pivot that divides the entry it clears
(in particular a pivot of 1) is a plain sparse subtraction.  Fractions
appear only once, when a finished row is divided by its pivot to give the
canonical form; since the RREF is unique, the results are those of
elimination over Q.

Each eliminator has its jobs.  Linear systems, for their solutions
(``solve``) and their kernels (``nullspace_sparse``), are sparse rows
{column: coefficient}, since the systems callers build are mostly zero.
``rref`` works on dense matrices: spans, ``rank``, ``inverse`` and
``nullspace_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]

Q0 = 0
Q1 = 1

_INTS = frozenset((int,))


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


def primitive_part(values: Sequence) -> list:
    """values times a positive rational: coprime ints with the same signs.

    Denominators are cleared with their lcm and the content (gcd of the
    entries) divided out; an all-zero input comes back as zeros.  Entries
    are scalars (ints or Fractions).
    """
    dens = [x.denominator for x in values if type(x) is not int]
    if dens:
        den = lcm(*dens)
        values = [x.numerator * (den // x.denominator) for x in values]
    g = gcd(*values)
    if g > 1:
        return [x // g for x in values]
    return list(values)


class Matrix:
    """Immutable dense rational matrix, rows stored as tuples.

    `cols` must be passed explicitly for matrices with no rows, so empty
    matrices keep their shape through transposes and products.
    """

    __slots__ = ("rows", "cols", "data", "_hash", "_support", "_all_int")

    def __init__(self, data: Sequence[Sequence], cols: Optional[int] = None):
        rows = tuple(map(tuple, data))
        all_int = _INTS.issuperset(map(type, chain.from_iterable(rows)))
        if not all_int:
            rows = tuple(tuple([x if type(x) is int else qq(x) for x in row])
                         for row in rows)
            all_int = _INTS.issuperset(map(type, chain.from_iterable(rows)))
        self._all_int = all_int
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (0 if cols is None else cols)
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
        self.data = rows
        self._hash = None
        self._support = None

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

    @property
    def support(self) -> tuple:
        """Per row, the ``(column, entry)`` pairs of its nonzero entries.

        Computed on first use and kept: the matrix is immutable.
        """
        if self._support is None:
            self._support = tuple(tuple([(j, x) for j, x in enumerate(row) if x])
                                  for row in self.data)
        return self._support

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

    def scale(self, c) -> "Matrix":
        c = qq(c)
        return Matrix([[c * a for a in row] for row in self.data], cols=self.cols)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        ocols = other.cols
        osupport = other.support
        out = []
        for srow in self.support:
            acc = [Q0] * ocols
            for k, a in srow:
                for j, b in osupport[k]:
                    acc[j] += a * b
            out.append(acc)
        return Matrix(out, cols=ocols)

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
        odata = other.data
        for i, srow in enumerate(self.support):
            for k, a in srow:
                b = odata[k][i]
                if b:
                    t += a * b
        return qq(t)

    def flatten(self) -> tuple:
        """Row-major entry tuple (the operator-space coordinates)."""
        return tuple(chain.from_iterable(self.data))


def matrix_from_flat(entries: Sequence, rows: int, cols: int) -> Matrix:
    if len(entries) != rows * cols:
        raise ValueError("flat entry count does not match shape")
    return Matrix([entries[i * cols:(i + 1) * cols] for i in range(rows)],
                  cols=cols)


def trace_gram(mats: Sequence[Matrix]) -> Matrix:
    """The symmetric matrix of tr(a_i a_j), each pair i <= j traced once."""
    out = [[Q0] * len(mats) for _ in mats]
    for i, a in enumerate(mats):
        for j in range(i, len(mats)):
            out[i][j] = out[j][i] = a.trace_of_product(mats[j])
    return Matrix(out, cols=len(mats))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns; row space preserved."""
    nrows, ncols = m.rows, m.cols
    if m._all_int:
        rows = [list(r) for r in m.data]
    else:
        rows = [primitive_part(r) for r in m.data]
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        pv = prow[c]
        if pv != 1:
            g = gcd(*prow)
            if pv < 0:
                g = -g
            if g != 1:
                prow = [x // g for x in prow]
                pv = prow[c]
        rows[r] = prow
        support = None
        for i in range(nrows):
            ri = rows[i]
            f = ri[c]
            if not f or i == r:
                continue
            if support is None:
                # entries of prow left of c are zero
                support = [(j, y) for j, y in enumerate(prow[c:], c) if y]
            scaled = False
            if pv != 1:
                g = gcd(pv, f)
                a = pv // g
                f //= g
                if a != 1:
                    ri = rows[i] = [a * x for x in ri]
                    scaled = True
            for j, y in support:
                ri[j] -= f * y
            if scaled:
                g = gcd(*ri)
                if g != 1:
                    rows[i] = [x // g for x in ri]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    kept = []
    for row, c in zip(rows, pivots):
        pv = row[c]
        kept.append(row if pv == 1 else [div(x, pv) if x else Q0 for x in row])
    return (Matrix(kept, cols=ncols) if kept else Matrix.zeros(0, ncols)), tuple(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[0].rows


def _kernel_basis(reduced: list, ncols: int) -> Matrix:
    """Kernel basis of a system in reduced form, one vector per free column.

    ``reduced`` holds ``(pivot, entries)`` pairs: a row with entry 1 at its
    pivot, 0 at every other pivot, and ``entries`` its other nonzero
    ``(column, entry)`` pairs.  Free column f gives the vector that is 1 at
    f and minus row p's entry at f on each pivot p.
    """
    pivot_set = {p for p, _ in reduced}
    free = [f for f in range(ncols) if f not in pivot_set]
    vecs = {}
    for f in free:
        vecs[f] = vec = [Q0] * ncols
        vec[f] = Q1
    for p, entries in reduced:
        for j, x in entries:
            vecs[j][p] = -x
    basis = [vecs[f] for f in free]
    return Matrix(basis, cols=ncols) if basis else Matrix.zeros(0, ncols)


def nullspace_matrix(m: Matrix) -> Matrix:
    """Basis (as rows) of the right kernel {x : Mx = 0}."""
    red, pivots = rref(m)
    return _kernel_basis([(p, [(j, x) for j, x in srow if j != p])
                          for p, srow in zip(pivots, red.support)], m.cols)


def _clear_sparse(row: dict, col: int, prow: dict) -> dict:
    """Fraction-free ``a*row - b*prow``, zero at col, prow's pivot column.

    Rows are dicts of nonzero integer entries; a row that was scaled is
    divided by its content again.
    """
    f, pv = row[col], prow[col]
    scaled = False
    if pv != 1:
        g = gcd(pv, f)
        a = pv // g
        f //= g
        if a != 1:
            row = {j: a * v for j, v in row.items()}
            scaled = True
    for j, v in prow.items():
        nv = row.get(j, Q0) - f * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    if scaled and row:
        g = gcd(*row.values())
        if g != 1:
            row = {j: v // g for j, v in row.items()}
    return row


def nullspace_sparse(rows: Iterable[dict], ncols: int) -> Matrix:
    """Kernel basis for a system given as sparse rows {column: coefficient}.

    Same result as ``nullspace_matrix`` on the dense system; intended for the
    large, very sparse systems (derivation and centroid conditions) where
    dense elimination is wasteful.  Rows are eliminated sparsest first
    (Markowitz, Management Science 3, 1957), a stable sort, so the caller's
    order only breaks ties; the kernel is canonical either way.
    """
    pivot_rows: dict[int, dict] = {}
    for row in sorted(({j: v for j, v in raw.items() if v} for raw in rows), key=len):
        if not _INTS.issuperset(map(type, row.values())):
            row = dict(zip(row, primitive_part([qq(v) for v in row.values()])))
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                pv = row[lead]
                if pv != 1:
                    g = gcd(*row.values())
                    if pv < 0:
                        g = -g
                    if g != 1:
                        row = {j: v // g for j, v in row.items()}
                pivot_rows[lead] = row
                break
            row = _clear_sparse(row, lead, prow)
    # back substitution, largest lead first: the rows it subtracts are
    # finished, so they bring no pivot column back
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        for col in [j for j in row if j != lead and j in pivot_rows]:
            row = _clear_sparse(row, col, pivot_rows[col])
        pivot_rows[lead] = row
    reduced = []
    for lead, row in pivot_rows.items():
        pv = row.pop(lead)
        reduced.append((lead, row.items() if pv == 1
                        else [(j, div(v, pv)) for j, v in row.items()]))
    return _kernel_basis(reduced, ncols)


def nullspace(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {x : Mx = 0}."""
    return Subspace.span(m.cols, nullspace_matrix(m).data)


def solve(rows: Iterable[dict], rhs: Iterable, ncols: int) -> Optional[tuple]:
    """One solution of A x = b (free variables set to 0), or None.

    A is given as sparse rows {column: coefficient} over ``ncols`` unknowns,
    one row per entry of b.  The answer is the first ncols entries of the
    ``nullspace_sparse`` vector of [A | -b] for its last column.  It is the
    point read off the RREF R of [A | b].  Proof.  The row operations that
    give R give R with its last column negated from [A | -b].  That column
    is a pivot exactly when A x = b is inconsistent (a row of R reads
    0 = 1); its row is then 0 elsewhere, so every kernel vector is 0 there.
    Otherwise the negated R is the RREF of [A | -b], which is unique, and
    the column is free.  Its kernel vector is 1 there, 0 at the other free
    columns and, at each pivot p, minus the negated last entry of row p:
    the x_p that R gives with the free variables at 0.
    """
    aug = [{**row, ncols: -b} for row, b in zip(rows, rhs, strict=True)]
    kernel = nullspace_sparse(aug, ncols + 1)
    if not kernel.rows or not kernel.data[-1][ncols]:
        return None
    return kernel.data[-1][:ncols]


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
        for srow, p in zip(self.basis.support, self.pivots):
            c = v[p]
            if c:
                for j, b in srow:
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
    spans one vector at a time (``closure``).  ``rows`` are primitive
    integer vectors, in insertion order, each with a positive entry at its
    pivot and zeros at the pivots of the rows before it.
    """

    __slots__ = ("ambient_dim", "rows", "_reducers")

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows: list[list[int]] = []
        # per row: (pivot, pivot entry, nonzero (column, entry) pairs)
        self._reducers: list[tuple] = []

    def _reduce(self, vec: Sequence) -> list:
        """An integer multiple of vec minus a combination of the rows,
        zero at every pivot."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if _INTS.issuperset(map(type, vec)):
            v = list(vec)
        else:
            v = primitive_part([x if type(x) is int else qq(x) for x in vec])
        for p, pv, support in self._reducers:
            c = v[p]
            if c:
                if pv != 1:
                    g = gcd(pv, c)
                    a = pv // g
                    c //= g
                    if a != 1:
                        v = [a * x for x in v]
                for j, b in support:
                    v[j] -= c * b
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self._reduce(vec)
        if not any(v):
            return False
        for pivot, pv in enumerate(v):
            if pv:
                break
        g = gcd(*v)
        if pv < 0:
            g = -g
        if g != 1:
            v = [x // g for x in v]
            pv = v[pivot]
        self._reducers.append(
            (pivot, pv, [(j, x) for j, x in enumerate(v) if x]))
        self.rows.append(v)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def subspace(self) -> Subspace:
        return Subspace.span(self.ambient_dim, self.rows)


def closure(dim: int, seeds: Iterable, maps: Sequence = (), flat=None) -> list:
    """The seeds, then every image under the maps, that enlarge their span.

    Elements are kept in the order found: each seed that enlarges the span,
    then, depth first from the last element found, its images under each
    map in turn.  ``flat`` reads an element as a vector of Q^dim (elements
    are such vectors when it is None).  For linear maps the result spans
    the smallest subspace that contains the seeds and is invariant under
    every map (a spinning closure; de Graaf, *Lie Algebras: Theory and
    Algorithms*, 2000).
    """
    builder = SpanBuilder(dim)
    add = builder.add if flat is None else lambda x: builder.add(flat(x))
    found = [x for x in seeds if add(x)]
    frontier = list(found)
    while frontier:
        x = frontier.pop()
        for f in maps:
            y = f(x)
            if add(y):
                found.append(y)
                frontier.append(y)
    return found


@dataclass(frozen=True)
class SeriesResult:
    """Subspace series, listed until its first repetition."""

    terms: tuple
    stable_index: int

    def stable_term(self) -> Subspace:
        return self.terms[self.stable_index]

    def reaches_zero(self) -> bool:
        return self.terms[self.stable_index].is_zero()


def _series(start: Subspace, step) -> SeriesResult:
    """start, step(start), step(step(start)), ... up to the first term that
    step leaves fixed."""
    terms = [start]
    while True:
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return SeriesResult(tuple(terms), len(terms) - 1)
        terms.append(nxt)


def _common_ambient(spaces: Sequence[Subspace]) -> int:
    n = spaces[0].ambient_dim
    if any(s.ambient_dim != n for s in spaces):
        raise ValueError("ambient dimension mismatch")
    return n


def span_sum(*spaces: Subspace) -> Subspace:
    """Sum of one or more subspaces of the same Q^n, in one elimination."""
    return Subspace.span(_common_ambient(spaces),
                         chain.from_iterable(s.vectors() for s in spaces))


def span_intersect(*spaces: Subspace) -> Subspace:
    """Intersection of one or more subspaces of the same Q^n."""
    n = _common_ambient(spaces)
    u = spaces[0]
    for v in spaces[1:]:
        if u.is_zero() or v.is_zero():
            return Subspace.zero(n)
        # x in U∩V  <=>  x = U^T a = V^T b; solve the stacked system for (a; -b)
        stacked = Matrix([a + b for a, b in zip(u.basis.transpose().data,
                                                v.basis.transpose().data)])
        coeffs = Matrix([k[:u.dim] for k in nullspace_matrix(stacked).data],
                        cols=u.dim)
        u = Subspace.span(n, coeffs.mul(u.basis).data)
    return u


def complement_codim(z: Subspace, y: Subspace) -> tuple[Matrix, int]:
    """Basis of a complement of Y∩Z inside Z, and codim Z/(Y∩Z).

    The returned numbers witness the finite-dimensional closed-sum identity
    dim(Z/(Y∩Z)) = dim((Y+Z)/Y).
    """
    inter = span_intersect(y, z)
    picked = closure(z.ambient_dim, inter.vectors() + z.vectors())[inter.dim:]
    codim = z.dim - inter.dim
    comp = (Matrix(picked, cols=z.ambient_dim) if picked
            else Matrix.zeros(0, z.ambient_dim))
    return comp, codim
