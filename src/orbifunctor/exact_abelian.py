"""Exact integer linear algebra and finitely presented abelian groups.

Everything downstream (functor modules, chain complexes, Bredon homology)
reduces to the primitives here: Smith normal form with unimodular transform
witnesses, integer kernels and solvers, and finitely presented abelian groups
in canonical form together with homomorphisms between them.

Conventions, fixed once for the whole package:

* matrices act on column vectors;
* a presentation matrix's COLUMNS are relations among row-indexed generators;
* canonical coordinates of a group list the free generators first, then the
  torsion generators in invariant-factor order.

All arithmetic is exact over Python's unbounded integers.  No floats anywhere.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from types import MappingProxyType


def _xgcd(a, b):
    # Returns (g, x, y) with g = x*a + y*b and g >= 0.
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """Immutable integer matrix with explicit shape (0 rows or 0 cols legal).

    Stored sparsely: ``nonzeros[i]`` maps the column of each nonzero entry of
    row i to that entry, and products only visit those entries.  ``rows`` is
    a dense read-only view, built on each access.  Stored rows are shared
    between matrices and must never be mutated.

    >>> IntMatrix.identity(2) * IntMatrix.from_rows([[3], [5]])
    IntMatrix(2, 1, [[3], [5]])
    """

    __slots__ = ("nrows", "ncols", "nonzeros")
    _identities = {}    # n -> the shared identity(n)

    def __init__(self, nrows, ncols, rows=None, *, nonzeros=None):
        """Build from dense `rows`, or from per-row `nonzeros` dicts (whose
        values must be nonzero ints); exactly one of the two is given."""
        if nonzeros is None:
            nonzeros = []
            for row in rows:
                row = list(map(int, row))
                if len(row) != ncols:
                    raise ValueError(f"expected shape {nrows}x{ncols}")
                nonzeros.append({j: x for j, x in enumerate(row) if x})
        if len(nonzeros) != nrows:
            raise ValueError(f"expected shape {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.nonzeros = tuple(nonzeros)

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = [list(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("nrows required for a matrix with no columns")
            nrows = len(cols[0])
        return cls(len(cols), nrows, cols).transpose()

    @classmethod
    def selection(cls, nrows, positions):
        """The 0/1 matrix whose column j is the unit vector at positions[j]."""
        positions = list(positions)
        rows = [{} for _ in range(nrows)]
        for j, i in enumerate(positions):
            rows[i][j] = 1
        return cls(nrows, len(positions), nonzeros=rows)

    @classmethod
    def identity(cls, n):
        """The n×n identity: one shared instance per n, with read-only rows;
        a product with it returns the other factor."""
        if n not in cls._identities:
            cls._identities[n] = cls(n, n, nonzeros=[MappingProxyType({i: 1})
                                                     for i in range(n)])
        return cls._identities[n]

    def is_identity(self):
        return self._identities.get(self.nrows) is self     # the shared one

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols, nonzeros=[{} for _ in range(nrows)])

    @classmethod
    def diagonal(cls, entries, nrows=None, ncols=None):
        entries = [int(d) for d in entries]
        nrows = len(entries) if nrows is None else nrows
        ncols = len(entries) if ncols is None else ncols
        if len(entries) > min(nrows, ncols):
            raise ValueError(f"{len(entries)} diagonal entries in {nrows}x{ncols}")
        nonzeros = [{i: d} if d else {} for i, d in enumerate(entries)]
        return cls(nrows, ncols, nonzeros=nonzeros + [{} for _ in
                                                      range(nrows - len(entries))])

    def _dense(self):
        """Fresh dense rows as lists."""
        out = []
        for nz in self.nonzeros:
            row = [0] * self.ncols
            for j, a in nz.items():
                row[j] = a
            out.append(row)
        return out

    @property
    def rows(self):
        return tuple(map(tuple, self._dense()))

    def __getitem__(self, ij):
        i, j = ij
        if not -self.ncols <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        return self.nonzeros[i].get(j % self.ncols, 0)

    def column(self, j):
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        return [nz.get(j, 0) for nz in self.nonzeros]

    def columns(self):
        return self.transpose()._dense()

    def transpose(self):
        nonzeros = [{} for _ in range(self.ncols)]
        for i, nz in enumerate(self.nonzeros):
            for j, a in nz.items():
                nonzeros[j][i] = a
        return IntMatrix(self.ncols, self.nrows, nonzeros=nonzeros)

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by "
                                 f"{other.nrows}x{other.ncols}")
            if self.is_identity():
                return other
            if other.is_identity():
                return self
            orows = other.nonzeros
            out = []
            for nz in self.nonzeros:
                acc = {}
                for k, a in nz.items():
                    for j, b in orows[k].items():
                        acc[j] = acc.get(j, 0) + a * b
                out.append({j: x for j, x in acc.items() if x})
            return IntMatrix(self.nrows, other.ncols, nonzeros=out)
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector, returned as a list."""
        vec = list(vec)
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != {self.ncols}")
        if self.is_identity():
            return vec
        return [sum([a * vec[j] for j, a in nz.items()]) for nz in self.nonzeros]

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        out = []
        for r1, r2 in zip(self.nonzeros, other.nonzeros):
            acc = dict(r1)
            for j, b in r2.items():
                acc[j] = acc.get(j, 0) + b
            out.append({j: x for j, x in acc.items() if x})
        return IntMatrix(self.nrows, self.ncols, nonzeros=out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return IntMatrix(self.nrows, self.ncols,
                         nonzeros=[{j: c * a for j, a in nz.items()} if c else {}
                                   for nz in self.nonzeros])

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        n = self.ncols
        return IntMatrix(self.nrows, n + other.ncols,
                         nonzeros=[{**r1, **{j + n: b for j, b in r2.items()}}
                                   for r1, r2 in zip(self.nonzeros, other.nonzeros)])

    def is_zero(self):
        return not any(self.nonzeros)

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        m = self._dense()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.nonzeros == other.nonzeros)

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(tuple(sorted(nz.items())) for nz in self.nonzeros)))

    def __repr__(self):
        return f"IntMatrix({self.nrows}, {self.ncols}, {self._dense()})"


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _SnfState:
    """Mutable Smith reduction of one matrix, mirroring the requested transforms.

    Maintains s = u * a * v throughout, plus uinv with u * uinv = 1 when asked.
    Row operations multiply u on the left (and uinv by the inverse on the
    right); column operations multiply v on the right.
    """

    def __init__(self, a, need_u, need_uinv, need_v):
        self.m = a.nrows
        self.n = a.ncols
        self.s = a._dense()
        self.u = _identity_rows(self.m) if need_u else None
        self.uinv = _identity_rows(self.m) if need_uinv else None
        self.v = _identity_rows(self.n) if need_v else None
        self.rank = 0

    # -- row operations ----------------------------------------------------

    def row_swap(self, i, k):
        self.s[i], self.s[k] = self.s[k], self.s[i]
        if self.u is not None:
            self.u[i], self.u[k] = self.u[k], self.u[i]
        if self.uinv is not None:
            for row in self.uinv:
                row[i], row[k] = row[k], row[i]

    def row_add(self, i, k, q):
        # row_i += q * row_k
        si, sk = self.s[i], self.s[k]
        for j in range(self.n):
            if sk[j]:
                si[j] += q * sk[j]
        if self.u is not None:
            ui, uk = self.u[i], self.u[k]
            for j in range(self.m):
                if uk[j]:
                    ui[j] += q * uk[j]
        if self.uinv is not None:
            # inverse transform on columns: col_k -= q * col_i
            for row in self.uinv:
                if row[i]:
                    row[k] -= q * row[i]

    def row_negate(self, k):
        self.s[k] = [-x for x in self.s[k]]
        if self.u is not None:
            self.u[k] = [-x for x in self.u[k]]
        if self.uinv is not None:
            for row in self.uinv:
                row[k] = -row[k]

    def row_combine(self, k, i, x, y, z, w):
        # rows (k, i) <- (x*row_k + y*row_i, z*row_k + w*row_i), x*w - y*z = 1
        sk, si = self.s[k], self.s[i]
        for j in range(self.n):
            a, b = sk[j], si[j]
            if a or b:
                sk[j] = x * a + y * b
                si[j] = z * a + w * b
        if self.u is not None:
            uk, ui = self.u[k], self.u[i]
            for j in range(self.m):
                a, b = uk[j], ui[j]
                if a or b:
                    uk[j] = x * a + y * b
                    ui[j] = z * a + w * b
        if self.uinv is not None:
            # columns (k, i) <- (w*col_k - z*col_i, -y*col_k + x*col_i)
            for row in self.uinv:
                a, b = row[k], row[i]
                if a or b:
                    row[k] = w * a - z * b
                    row[i] = -y * a + x * b

    # -- column operations -------------------------------------------------

    def col_swap(self, j, k):
        for row in self.s:
            row[j], row[k] = row[k], row[j]
        if self.v is not None:
            for row in self.v:
                row[j], row[k] = row[k], row[j]

    def col_add(self, j, k, q):
        # col_j += q * col_k
        for row in self.s:
            if row[k]:
                row[j] += q * row[k]
        if self.v is not None:
            for row in self.v:
                if row[k]:
                    row[j] += q * row[k]

    def col_combine(self, k, j, x, y, z, w):
        # cols (k, j) <- (x*col_k + y*col_j, z*col_k + w*col_j), x*w - y*z = 1
        for row in self.s:
            a, b = row[k], row[j]
            if a or b:
                row[k] = x * a + y * b
                row[j] = z * a + w * b
        if self.v is not None:
            for row in self.v:
                a, b = row[k], row[j]
                if a or b:
                    row[k] = x * a + y * b
                    row[j] = z * a + w * b

    # -- the reduction -----------------------------------------------------

    def _find_pivot(self, k):
        # Minimal-absolute-value pivoting keeps coefficient growth tame.
        best = None
        best_abs = None
        for i in range(k, self.m):
            row = self.s[i]
            for j in range(k, self.n):
                val = row[j]
                if val:
                    a = -val if val < 0 else val
                    if best_abs is None or a < best_abs:
                        best, best_abs = (i, j), a
                        if a == 1:
                            return best
        return best

    def diagonalize(self):
        m, n, s = self.m, self.n, self.s
        for k in range(min(m, n)):
            piv = self._find_pivot(k)
            if piv is None:
                break
            if piv[0] != k:
                self.row_swap(k, piv[0])
            if piv[1] != k:
                self.col_swap(k, piv[1])
            while True:
                for i in range(k + 1, m):
                    b = s[i][k]
                    if b:
                        a = s[k][k]
                        if b % a == 0:
                            self.row_add(i, k, -(b // a))
                        else:
                            g, x, y = _xgcd(a, b)
                            self.row_combine(k, i, x, y, -(b // g), a // g)
                if all(s[k][j] == 0 for j in range(k + 1, n)):
                    break
                for j in range(k + 1, n):
                    b = s[k][j]
                    if b:
                        a = s[k][k]
                        if b % a == 0:
                            self.col_add(j, k, -(b // a))
                        else:
                            g, x, y = _xgcd(a, b)
                            self.col_combine(k, j, x, y, -(b // g), a // g)
                if all(s[i][k] == 0 for i in range(k + 1, m)):
                    break
            self.rank += 1
        for k in range(self.rank):
            if s[k][k] < 0:
                self.row_negate(k)
        # Enforce the divisor chain d_1 | d_2 | ... by gcd/lcm merges.
        changed = True
        while changed:
            changed = False
            for k in range(self.rank - 1):
                a, b = s[k][k], s[k + 1][k + 1]
                if b % a:
                    changed = True
                    self.col_add(k, k + 1, 1)          # s[k+1][k] becomes b
                    g, x, y = _xgcd(a, b)
                    self.row_combine(k, k + 1, x, y, -(b // g), a // g)
                    # now s[k][k] = g, s[k][k+1] = y*b, s[k+1][k+1] = a*b//g
                    self.col_add(k + 1, k, -(s[k][k + 1] // g))
        return self

    def divisors(self):
        return [self.s[k][k] for k in range(self.rank)]


class SmithDecomposition:
    """U * A * V = S with U, V unimodular and S diagonal, d_1 | d_2 | ..."""

    __slots__ = ("u", "s", "v", "divisors")

    def __init__(self, u, s, v, divisors):
        self.u = u
        self.s = s
        self.v = v
        self.divisors = tuple(divisors)

    def __repr__(self):
        return f"SmithDecomposition(divisors={list(self.divisors)})"


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Full Smith decomposition with both unimodular transforms.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).divisors
    (2, 4)
    >>> smith_normal_form(IntMatrix.zeros(2, 2)).divisors
    ()
    """
    st = _SnfState(a, need_u=True, need_uinv=False, need_v=True).diagonalize()
    u = IntMatrix(a.nrows, a.nrows, st.u)
    v = IntMatrix(a.ncols, a.ncols, st.v)
    s = IntMatrix.diagonal(st.divisors(), a.nrows, a.ncols)
    if a.nrows <= 12 and a.ncols <= 12 and u * a * v != s:
        # cheap self-check at small sizes; property tests cover the rest
        raise ArithmeticError("Smith self-check failed: U*A*V != S")
    return SmithDecomposition(u, s, v, st.divisors())


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel {x : A x = 0}.

    >>> kernel_basis(IntMatrix.from_rows([[1, 1]])).ncols
    1
    """
    st = _SnfState(a, need_u=False, need_uinv=False, need_v=True).diagonalize()
    return IntMatrix(a.ncols, a.ncols - st.rank, [row[st.rank:] for row in st.v])


def solve(a: IntMatrix, b) -> list | None:
    """One integer solution x of A x = b, or None if there is none."""
    b = IntMatrix.from_columns([b], nrows=a.nrows)      # checks the length
    st = _SnfState(a, need_u=True, need_uinv=False, need_v=True).diagonalize()
    x = _solve_reduced(st, b)
    return None if x is None else x.column(0)


def _solve_reduced(st, b: IntMatrix) -> IntMatrix | None:
    # X with A X = B from the diagonalized state of A (u and v kept), or None
    # when a column of B leaves the column span: U·B, its first rank rows
    # divided by the divisors, then V·Y
    c = _rows_times(st.u, b.nonzeros)
    divisors = st.divisors()
    if any(c[st.rank:]) or any(x % d for row, d in zip(c, divisors)
                               for x in row.values()):
        return None
    y = [{j: x // d for j, x in row.items()} for row, d in zip(c, divisors)]
    return IntMatrix(st.n, b.ncols, nonzeros=_rows_times(st.v, y))


def _rows_times(rows, nonzeros):
    # dense rows times the matrix with these per-row nonzeros, as per-row
    # nonzeros; only the matrix rows that hold entries are visited
    live = [(k, nz) for k, nz in enumerate(nonzeros) if nz]
    out = []
    for row in rows:
        acc = {}
        for k, nz in live:
            x = row[k]
            if x:
                for j, y in nz.items():
                    acc[j] = acc.get(j, 0) + x * y
        out.append({j: x for j, x in acc.items() if x})
    return out


def solve_mod(a: IntMatrix, b, moduli) -> list | None:
    """One solution x of A x = b modulo the given target moduli (0 = no reduction)."""
    moduli = list(moduli)
    if len(moduli) != a.nrows:
        raise ValueError("one modulus per target row required")
    aug = a.hstack(_relation_columns(moduli))
    x = solve(aug, b)
    return None if x is None else x[: a.ncols]


class LatticeBasis:
    """A full-column-rank integer matrix whose columns span a lattice.

    Supports exact membership/coordinate queries, reusing one Smith reduction.
    """

    __slots__ = ("matrix", "_st")

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix
        self._st = _SnfState(matrix, need_u=True, need_uinv=False,
                             need_v=True).diagonalize()
        if self._st.rank != matrix.ncols:
            raise ValueError("columns are not independent")

    def coordinates(self, mat: IntMatrix) -> IntMatrix | None:
        """X with matrix * X = mat, or None if a column of mat is outside
        the lattice."""
        if self._st is None:        # a sub-quotient defers its reduction
            LatticeBasis.__init__(self, self.matrix)
        return _solve_reduced(self._st, mat)


# ---------------------------------------------------------------------------
# Finitely presented abelian groups
# ---------------------------------------------------------------------------


class FpAbGroup:
    """Finitely presented abelian group in canonical form.

    rank + invariant factors t_1 | t_2 | ... (each >= 2).  Canonical element
    coordinates: free coordinates first, then one coordinate mod t_i per
    torsion factor.  Groups coming out of a presentation carry a witness pair
    (to_can, reps) translating between presentation coordinates and canonical
    coordinates; equality deliberately ignores the witness.  An identity
    witness is the shared `IntMatrix.identity(n)`, so products with it and
    `apply` of it do no arithmetic.

    >>> FpAbGroup.from_invariants(1, [2, 6])
    FpAbGroup(Z ⊕ Z/2 ⊕ Z/6)
    """

    __slots__ = ("rank", "torsion", "ngens", "to_can", "reps")

    def __init__(self, rank, torsion, to_can=None, reps=None):
        torsion = tuple(int(t) for t in torsion)
        if rank < 0:
            raise ValueError("negative rank")
        if any(t < 2 for t in torsion):
            raise ValueError(f"invariant factors must be >= 2: {torsion}")
        for t, t2 in zip(torsion, torsion[1:]):
            if t2 % t:
                raise ValueError(f"invariant factors must form a chain: {torsion}")
        self.rank = rank
        self.torsion = torsion
        self.ngens = n = rank + len(torsion)
        one = IntMatrix.identity(n)
        self.to_can = one if to_can is None else to_can   # pres -> canonical
        self.reps = one if reps is None else reps   # canonical -> pres reps
        if self.to_can.nrows != n:
            raise ValueError(f"to_can has {self.to_can.nrows} rows, not {n}")
        if self.reps.ncols != n:
            raise ValueError(f"reps has {self.reps.ncols} columns, not {n}")

    @classmethod
    def free(cls, n):
        return cls(n, ())

    @classmethod
    def zero(cls):
        return cls(0, ())

    @classmethod
    def from_invariants(cls, rank, torsion):
        return cls(rank, torsion)

    @classmethod
    def cyclic(cls, n):
        """Z/n for n >= 2, Z for n = 0, trivial for n = 1."""
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @property
    def pres_gens(self):
        return self.to_can.ncols

    def moduli(self):
        """Per-canonical-generator annihilator: 0 for free, t_i for torsion."""
        return (0,) * self.rank + self.torsion

    def order(self):
        """Group order, or None when infinite."""
        return None if self.rank else prod(self.torsion, start=1)

    def exponent(self):
        """lcm of the invariant factors (1 if torsion-free)."""
        return self.torsion[-1] if self.torsion else 1

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def reduce(self, vec):
        vec = list(vec)
        if len(vec) != self.ngens:
            raise ValueError(f"coordinate length {len(vec)} != {self.ngens}")
        for i, t in enumerate(self.torsion):
            j = self.rank + i
            vec[j] %= t
        return vec

    def reduce_matrix(self, mat: IntMatrix) -> IntMatrix:
        """mat with torsion rows reduced; mat itself when nothing changes."""
        if mat.nrows != self.ngens:
            raise ValueError("row count must match ngens")
        if not self.torsion:
            return mat
        nonzeros = list(mat.nonzeros)
        for j, t in enumerate(self.torsion, self.rank):
            if any(not 0 <= x < t for x in nonzeros[j].values()):
                nonzeros[j] = {c: r for c, x in nonzeros[j].items() if (r := x % t)}
        if all(a is b for a, b in zip(nonzeros, mat.nonzeros)):
            return mat
        return IntMatrix(mat.nrows, mat.ncols, nonzeros=nonzeros)

    def to_canonical(self, pres_vec):
        """Canonical coordinates of an element given in presentation coordinates."""
        return self.reduce(self.to_can.apply(pres_vec))

    def representative(self, can_vec):
        """A presentation-coordinate representative of a canonical element."""
        return self.reps.apply(can_vec)

    def order_of(self, can_vec):
        """Order of the element, or None when infinite."""
        vec = self.reduce(can_vec)
        if any(vec[: self.rank]):
            return None
        acc = 1
        for i, t in enumerate(self.torsion):
            x = vec[self.rank + i]
            if x:
                acc = lcm(acc, t // gcd(t, x))
        return acc

    def __eq__(self, other):
        return (isinstance(other, FpAbGroup) and self.rank == other.rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"FpAbGroup({format_group(self)})"


def format_group(g: FpAbGroup) -> str:
    """Canonical display form, e.g. 'Z^2 ⊕ Z/2 ⊕ Z/4', or '0' when trivial."""
    parts = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank > 1:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{t}" for t in g.torsion)
    return " ⊕ ".join(parts) if parts else "0"


def cokernel_presentation(a: IntMatrix) -> FpAbGroup:
    """Z^rows modulo the column span of `a`, in canonical form with witnesses.

    >>> cokernel_presentation(IntMatrix.from_rows([[2, 0], [0, 3]]))
    FpAbGroup(Z/6)
    >>> cokernel_presentation(IntMatrix.zeros(2, 0))
    FpAbGroup(Z^2)
    """
    m = a.nrows
    if a.is_zero():
        return FpAbGroup(m, ())
    st = _SnfState(a, need_u=True, need_uinv=True, need_v=False).diagonalize()
    divisors = st.divisors()
    r = len(divisors)
    free_idx = list(range(r, m))
    tors_idx = [i for i in range(r) if divisors[i] > 1]
    torsion = [divisors[i] for i in tors_idx]
    keep = free_idx + tors_idx
    if keep == list(range(m)) and st.u == _identity_rows(m):
        return FpAbGroup(m - r, torsion)
    to_can = IntMatrix.from_rows([st.u[i] for i in keep], ncols=m)
    reps = IntMatrix.from_columns([[st.uinv[i][j] for i in range(m)] for j in keep],
                                  nrows=m)
    return FpAbGroup(m - r, torsion, to_can=to_can, reps=reps)


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


class AbHom:
    """Homomorphism between canonical-form groups, as a matrix on generators.

    Column j is the image of the j-th canonical source generator, in canonical
    target coordinates.  Torsion rows are stored reduced, so equality is plain
    matrix equality.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpAbGroup, target: FpAbGroup, matrix: IntMatrix,
                 check=True):
        if matrix.nrows != target.ngens or matrix.ncols != source.ngens:
            raise ValueError(f"matrix shape {matrix.nrows}x{matrix.ncols} does not "
                             f"map {source.ngens} gens into {target.ngens} gens")
        self.source = source
        self.target = target
        self.matrix = (target.reduce_matrix(matrix) if target.torsion
                       else matrix)
        if check and source.torsion:
            self._check_relations()

    def _check_relations(self):
        # t_i * (image of the i-th torsion generator) must vanish in the target.
        for i, t in enumerate(self.source.torsion):
            col = self.matrix.column(self.source.rank + i)
            image = self.target.reduce([t * x for x in col])
            if any(image):
                raise ValueError(
                    f"matrix does not respect source relation {t}*g_{i}: "
                    f"residue {image}")

    @classmethod
    def identity(cls, g: FpAbGroup):
        return cls(g, g, IntMatrix.identity(g.ngens), check=False)

    @classmethod
    def zero(cls, source: FpAbGroup, target: FpAbGroup):
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens),
                   check=False)

    def apply(self, vec):
        return self.target.reduce(self.matrix.apply(self.source.reduce(vec)))

    def compose(self, first: "AbHom") -> "AbHom":
        """self ∘ first (apply `first`, then self)."""
        if first.target is not self.source and first.target != self.source:
            raise ValueError("composition mismatch")
        return AbHom(first.source, self.target, self.matrix * first.matrix,
                     check=False)

    def add(self, other: "AbHom") -> "AbHom":
        if self.source is not other.source and self.source != other.source:
            raise ValueError("source mismatch")
        return AbHom(self.source, self.target, self.matrix + other.matrix,
                     check=False)

    def negate(self) -> "AbHom":
        return AbHom(self.source, self.target, -self.matrix, check=False)

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (isinstance(other, AbHom) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return (f"AbHom({format_group(self.source)} -> {format_group(self.target)}, "
                f"{[list(r) for r in self.matrix.rows]})")


def hom_from_presentation(source: FpAbGroup, target: FpAbGroup,
                          pres_matrix: IntMatrix) -> AbHom:
    """Canonical AbHom induced by a map given on presentation generators.

    `pres_matrix` sends source presentation coordinates to target presentation
    coordinates and must carry source relations into target relations (checked
    on construction).
    """
    if (pres_matrix.nrows != target.pres_gens
            or pres_matrix.ncols != source.pres_gens):
        raise ValueError("presentation-level matrix has the wrong shape")
    return AbHom(source, target, target.to_can * pres_matrix * source.reps)


def _relation_columns(moduli) -> IntMatrix:
    """Relation columns t * e_k, one per nonzero modulus t, in order: row k
    holds t in the column of its nonzero modulus."""
    rows, j = [], 0
    for t in moduli:
        rows.append({j: t} if t else {})
        j += bool(t)
    return IntMatrix(len(rows), j, nonzeros=rows)


def _torsion_columns(g: FpAbGroup) -> IntMatrix:
    """Relation columns t_i * e_i of the canonical presentation of g."""
    return _relation_columns(g.moduli())


def _kernel_lattice(f: AbHom) -> IntMatrix:
    """Basis of the lattice of source canonical coordinates that f sends to
    0 in the target; it holds the source relations."""
    full = kernel_basis(f.matrix.hstack(_torsion_columns(f.target)))
    # The projection to source coordinates is injective on this kernel (the
    # torsion tail columns are independent), so the projected columns are
    # already a lattice basis.
    n = f.source.ngens
    return IntMatrix(n, full.ncols, nonzeros=full.nonzeros[:n])


def hom_kernel(f: AbHom) -> "HomologyData":
    """ker f as a sub-quotient of the source: the lattice that f sends to 0,
    presented by the source relations.  Unpacks as (group, lattice,
    inclusion), the lattice being the sub-quotient itself."""
    return HomologyData(None, f)


def hom_cokernel(f: AbHom):
    """(cokernel group, projection from the target)."""
    tgt = f.target
    rels = _torsion_columns(tgt).hstack(f.matrix)
    grp = cokernel_presentation(rels)
    projection = AbHom(tgt, grp, grp.to_can)
    return grp, projection


def hom_image(f: AbHom):
    """(image group, mono into target, epi from source)."""
    # image = Z^{source gens} / (preimage lattice of 0)
    grp = cokernel_presentation(_kernel_lattice(f))
    epi = AbHom(f.source, grp, grp.to_can)
    mono = AbHom(grp, f.target, f.matrix * grp.reps)
    return grp, mono, epi


def hom_kernel_cokernel(f: AbHom):
    """(kernel, cokernel) canonical forms; `hom_image` gives the image."""
    return hom_kernel(f).group, hom_cokernel(f)[0]


def is_isomorphism(f: AbHom) -> bool:
    """A unit-monomial matrix (each source generator sent to a unit multiple
    of its own target generator of the same order) is read off with no
    reduction; any other map is decided by its kernel and cokernel."""
    m, src, tgt = f.matrix, f.source.moduli(), f.target.moduli()
    if m.nrows == m.ncols and all(len(nz) == 1 for nz in m.nonzeros):
        entries = [next(iter(nz.items())) for nz in m.nonzeros]
        if len({j for j, _ in entries}) == m.ncols and all(
                src[j] == t and gcd(x, t) == 1
                for (j, x), t in zip(entries, tgt)):
            return True
    ker, coker = hom_kernel_cokernel(f)
    return ker.is_trivial() and coker.is_trivial()


def solve_image_membership(f: AbHom, y):
    """(preimage, residue): one of the two is None.

    The residue certificate is the class of y in the cokernel of f (nonzero
    coordinates prove non-membership).
    """
    y = f.target.reduce(y)
    x = solve_mod(f.matrix, y, f.target.moduli())
    if x is not None:
        return f.source.reduce(x), None
    coker, projection = hom_cokernel(f)
    residue = projection.apply(y)
    if not any(residue):
        raise ArithmeticError("solver failed on a member element")
    return None, residue


def express_in_kernel(sub: "HomologyData", mat: IntMatrix) -> IntMatrix:
    """Canonical coordinates in `sub.group` of every column of `mat`, given
    in canonical coordinates of `sub.space`.

    The lattice holds the relations that present the group, so lattice
    coordinates are right up to a relation, which `to_can` removes.  Raises
    ValueError if any column leaves the lattice.
    """
    x = sub.coordinates(sub.space.reduce_matrix(mat))
    if x is None:
        raise ValueError("element does not lie in the kernel subgroup")
    return sub.group.reduce_matrix(sub.group.to_can * x)


def quotient_group(g: FpAbGroup, relation_vectors):
    """(Q, projection) where Q = g modulo the subgroup the vectors generate.

    Vectors are in canonical coordinates of g.
    """
    cols = [g.reduce(v) for v in relation_vectors]
    rels = _torsion_columns(g).hstack(IntMatrix.from_columns(cols, nrows=g.ngens))
    q = cokernel_presentation(rels)
    return q, AbHom(g, q, q.to_can)


class HomologyData(LatticeBasis):
    """The sub-quotient ker(dout) / im(din) at the middle of a composable
    pair  A --din--> B --dout--> C; either map may be None (a zero map).

    The lattice is the cycles: the canonical coordinates of B that dout
    sends to 0.  The relations of B and the columns of din lie in it and
    present `group` once, on lattice coordinates; `express_in_kernel` gives
    classes of cycles.  A kernel is the case din = None (`hom_kernel`).
    """

    __slots__ = ("space", "group", "_is_kernel")

    def __init__(self, d_in: AbHom | None, d_out: AbHom | None, space=None):
        if space is None:
            space = d_out.source if d_out is not None else d_in.target
        self.space = space
        if d_out is None:
            d_out = AbHom.zero(space, FpAbGroup.zero())
        if d_out.source != space:
            raise ValueError("outgoing map source mismatch")
        relations = _torsion_columns(space)
        if d_in is not None:
            if d_in.target != space:
                raise ValueError("incoming map target mismatch")
            if not d_out.compose(d_in).is_zero():
                raise ValueError("maps do not compose to zero")
            relations = relations.hstack(d_in.matrix)
        self._is_kernel = d_in is None
        # the lattice is reduced on its first solve (a kernel basis has
        # independent columns); with no relation to place, the group is free
        # on the lattice basis and nothing is solved here
        self.matrix, self._st = _kernel_lattice(d_out), None
        if relations.is_zero():
            self.group = FpAbGroup.free(self.matrix.ncols)
            return
        coords = self.coordinates(relations)
        if coords is None:
            raise ArithmeticError("a relation escaped the cycle lattice")
        # (a trivial lattice gives zero rows, presented with no reduction)
        self.group = cokernel_presentation(coords)

    @property
    def inclusion(self) -> AbHom:
        """Representative cycles of the canonical generators, built on each
        read (homology witnesses can be large); a homomorphism into the space
        only for a kernel, since a multiple of a cycle may be a boundary."""
        return AbHom(self.group, self.space, self.matrix * self.group.reps,
                     check=self._is_kernel)

    def __iter__(self):
        return iter((self.group, self, self.inclusion))


def _exact_quotient(x, d):
    q, r = divmod(x, d)
    if r:
        raise ValueError("entry incompatible with a valid homomorphism")
    return q


class HomBasis:
    """Coordinates for Hom(A, B) built from the structure decomposition.

    Hom(Z, B) = B and Hom(Z/t, B) = B[t]; the t-torsion of a factor Z/u is
    cyclic of order gcd(t, u) generated by (u/gcd) times that generator.  One
    coordinate entry (a, b, modulus, mult) represents the homomorphism sending
    source generator a to mult * (target generator b); pairs with trivial
    contribution are omitted.
    """

    __slots__ = ("source", "target", "entries", "index", "group")

    def __init__(self, source: FpAbGroup, target: FpAbGroup):
        self.source = source
        self.target = target
        smod = source.moduli()
        tmod = target.moduli()
        entries = []
        for a in range(source.ngens):
            t = smod[a]
            for b in range(target.ngens):
                u = tmod[b]
                if t == 0:
                    entries.append((a, b, u, 1))
                elif u == 0:
                    continue            # Hom(Z/t, Z) = 0
                else:
                    g = gcd(t, u)
                    if g > 1:
                        entries.append((a, b, g, u // g))
        self.entries = tuple(entries)
        self.index = {(a, b): k for k, (a, b, _, _) in enumerate(entries)}
        self.group = cokernel_presentation(
            _relation_columns(m for _, _, m, _ in entries))

    def to_hom(self, can_vec) -> AbHom:
        z = self.group.representative(can_vec)
        nonzeros = [{} for _ in range(self.target.ngens)]
        for coeff, (a, b, _, mult) in zip(z, self.entries):
            if coeff:
                nonzeros[b][a] = coeff * mult
        return AbHom(self.source, self.target,
                     IntMatrix(self.target.ngens, self.source.ngens,
                               nonzeros=nonzeros))

    def coords_of(self, f: AbHom):
        if f.source != self.source or f.target != self.target:
            raise ValueError("hom does not match this basis")
        z = [0] * len(self.entries)
        for b, row in enumerate(f.matrix.nonzeros):
            for a, raw in row.items():
                k = self.index.get((a, b))
                if k is None:
                    raise ValueError("valid hom has a forced-zero entry")
                z[k] = _exact_quotient(raw, self.entries[k][3])
        return self.group.to_canonical(z)

    def _compose_map(self, other: "HomBasis", images) -> AbHom:
        # images(a, b) yields ((a2, b2), x): the entry (a, b) of this basis,
        # with multiplier 1, is sent to x at position (a2, b2) of a hom matrix;
        # entries forced to zero in `other` are dropped.
        nonzeros = [{} for _ in other.entries]
        for k, (a, b, _, mult) in enumerate(self.entries):
            for pos, x in images(a, b):
                k2 = other.index.get(pos)
                if k2 is not None:
                    nonzeros[k2][k] = _exact_quotient(mult * x,
                                                      other.entries[k2][3])
        pres = IntMatrix(len(other.entries), len(self.entries),
                         nonzeros=nonzeros)
        return hom_from_presentation(self.group, other.group, pres)

    def postcompose(self, other: "HomBasis", psi: AbHom) -> AbHom:
        """Linear map Hom(A,B) -> Hom(A,B'), f ↦ psi∘f, in basis coordinates."""
        if (psi.source != self.target or psi.target != other.target
                or other.source != self.source):
            raise ValueError("composition mismatch")
        cols = psi.matrix.transpose().nonzeros
        return self._compose_map(
            other, lambda a, b: (((a, b2), x) for b2, x in cols[b].items()))

    def precompose(self, other: "HomBasis", chi: AbHom) -> AbHom:
        """Linear map Hom(A,B) -> Hom(A',B), f ↦ f∘chi, in basis coordinates."""
        if (chi.target != self.source or chi.source != other.source
                or other.target != self.target):
            raise ValueError("composition mismatch")
        rows = chi.matrix.nonzeros
        return self._compose_map(
            other, lambda a, b: (((a2, b), x) for a2, x in rows[a].items()))


def hom_group(a: FpAbGroup, b: FpAbGroup) -> FpAbGroup:
    """Canonical form of Hom(A, B).

    >>> hom_group(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6))
    FpAbGroup(Z/2)
    >>> hom_group(FpAbGroup.cyclic(2), FpAbGroup.free(1))
    FpAbGroup(0)
    """
    return HomBasis(a, b).group


class TensorBasis:
    """Coordinates for A ⊗ B on generator pairs (a, b).

    The pair coordinate has annihilator gcd of the two generator annihilators
    (with 0 meaning free); pairs of coprime torsion orders vanish and are
    omitted.
    """

    __slots__ = ("left", "right", "entries", "index", "group")

    def __init__(self, left: FpAbGroup, right: FpAbGroup):
        self.left = left
        self.right = right
        lmod = left.moduli()
        rmod = right.moduli()
        entries = []
        for a in range(left.ngens):
            for b in range(right.ngens):
                ta, tb = lmod[a], rmod[b]
                if ta == 0 and tb == 0:
                    m = 0
                elif ta == 0:
                    m = tb
                elif tb == 0:
                    m = ta
                else:
                    m = gcd(ta, tb)
                    if m == 1:
                        continue
                entries.append((a, b, m))
        self.entries = tuple(entries)
        self.index = {(a, b): i for i, (a, b, _) in enumerate(entries)}
        self.group = cokernel_presentation(
            _relation_columns(m for _, _, m in entries))

    def pure(self, x, y):
        """Canonical class of the elementary tensor x ⊗ y."""
        x = self.left.reduce(x)
        y = self.right.reduce(y)
        z = [0] * len(self.entries)
        for i, (a, b, _) in enumerate(self.entries):
            z[i] = x[a] * y[b]
        return self.group.to_canonical(z)

    def induced(self, other: "TensorBasis", f: AbHom, g: AbHom) -> AbHom:
        """f ⊗ g as a map of tensor groups in canonical coordinates."""
        if f.source != self.left or g.source != self.right:
            raise ValueError("source mismatch")
        if f.target != other.left or g.target != other.right:
            raise ValueError("target mismatch")
        fcols = f.matrix.transpose().nonzeros
        gcols = g.matrix.transpose().nonzeros
        nonzeros = [{} for _ in other.entries]
        for k, (a, b, _) in enumerate(self.entries):
            for a2, fa in fcols[a].items():
                for b2, gb in gcols[b].items():
                    k2 = other.index.get((a2, b2))
                    if k2 is not None:
                        nonzeros[k2][k] = fa * gb
        pres = IntMatrix(len(other.entries), len(self.entries),
                         nonzeros=nonzeros)
        return hom_from_presentation(self.group, other.group, pres)


def tensor_group(a: FpAbGroup, b: FpAbGroup) -> FpAbGroup:
    """Canonical form of A ⊗ B.

    >>> tensor_group(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6))
    FpAbGroup(Z/2)
    >>> tensor_group(FpAbGroup.cyclic(2), FpAbGroup.cyclic(3))
    FpAbGroup(0)
    """
    return TensorBasis(a, b).group


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------


class DirectSum:
    """⊕ of canonical-form groups, canonicalized, with coordinate bookkeeping.

    Presentation coordinates of `group` are the parts' canonical coordinates,
    concatenated.  Each projection is built once, on first use.
    """

    __slots__ = ("parts", "offsets", "group", "_projects")

    def __init__(self, parts):
        self.parts = tuple(parts)
        offsets = []
        pos = 0
        moduli = []
        for p in self.parts:
            offsets.append(pos)
            pos += p.ngens
            moduli.extend(p.moduli())
        self.offsets = tuple(offsets)
        self.group = cokernel_presentation(_relation_columns(moduli))
        self._projects = [None] * len(self.parts)

    @property
    def total_gens(self):
        return self.group.pres_gens

    def embed(self, i, vec):
        """Component canonical coords -> concatenated presentation coords."""
        out = [0] * self.total_gens
        for k, x in enumerate(vec):
            out[self.offsets[i] + k] = x
        return out

    def project(self, i) -> AbHom:
        h = self._projects[i]
        if h is None:
            part = self.parts[i]
            lo = self.offsets[i]
            rows = self.group.reps.nonzeros[lo:lo + part.ngens]
            h = self._projects[i] = AbHom(
                self.group, part,
                IntMatrix(part.ngens, self.group.ngens, nonzeros=rows))
        return h

    def assemble(self, component_vecs):
        """Canonical coords of the element with the given components."""
        return self.group.to_canonical([x for vec in component_vecs for x in vec])

    def hom_into(self, source: FpAbGroup, components) -> AbHom:
        """The map into the sum whose i-th component is components[i]."""
        components = list(components)
        if len(components) != len(self.parts):
            raise ValueError("one component per part required")
        nonzeros = []
        for part, h in zip(self.parts, components):
            if h.source != source or h.target != part:
                raise ValueError("component does not map source into its part")
            nonzeros.extend(h.matrix.nonzeros)
        return AbHom(source, self.group, self.group.to_can * IntMatrix(
            self.total_gens, source.ngens, nonzeros=nonzeros))

    def quotient(self, relations: IntMatrix) -> FpAbGroup:
        """The sum modulo relation columns in presentation coordinates."""
        return cokernel_presentation(_relation_columns(
            [t for part in self.parts for t in part.moduli()]).hstack(relations))


def block_hom(ds_src: DirectSum, ds_tgt: DirectSum, blocks) -> AbHom:
    """Assemble an AbHom between direct sums from a dict {(i_tgt, j_src): AbHom},
    the blocks placed on the presentation coordinates of both sums."""
    nonzeros = [{} for _ in range(ds_tgt.total_gens)]
    for (i, j), f in blocks.items():
        lo, shift = ds_tgt.offsets[i], ds_src.offsets[j]
        for r, row in enumerate(f.matrix.nonzeros):
            nonzeros[lo + r].update((c + shift, x) for c, x in row.items())
    return hom_from_presentation(ds_src.group, ds_tgt.group, IntMatrix(
        ds_tgt.total_gens, ds_src.total_gens, nonzeros=nonzeros))
