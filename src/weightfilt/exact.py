"""Exact linear algebra over the rationals and the Gaussian rationals.

Everything in this package reduces to subspace-lattice computations in a
finite-dimensional vector space, and every verdict the library emits is an
exact certificate.  Floating point is therefore banned from this module (and
from everything built on it): scalars are `fractions.Fraction` or
:class:`GaussianRational`, subspaces are canonicalized by reduced row echelon
bases so that equality is structural, and positivity of symmetric forms is
decided by exact pivoting rather than eigenvalues.

Vectors are plain tuples of scalars.  Operators act on column vectors, i.e.
``M.apply(v)`` computes ``M @ v``; bilinear forms pair as ``x^T K y``.

Rational data is handled as Python ints wherever that is cheaper:
`rref` and `rank_of_rows` run one fraction-free integer elimination, and
`Matrix` products, ``apply``, sums and rational scalar multiples run on
each matrix's sparse integer form (its entries times the lcm of their
denominators), multiplying only nonzero entries, and `exp_nilpotent` sums
its series on that form.  A rational `Subspace` stores its reduced rows as
primitive integer rows, so membership, sums, intersections, images,
preimages and kernels build no `Fraction`; its `Fraction` basis is built on
first read.  Results are returned as
`Fraction`s, never as ints.  Data holding a `GaussianRational` takes a
generic loop over the scalars instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

ScalarLike = Union[int, Fraction, "GaussianRational", str]


class Immutable:
    """Base of the library's value types: fields are set once, in ``__init__``.

    Subclasses declare their own ``__slots__`` and fill them with
    ``object.__setattr__``; afterwards assigning or deleting an attribute
    raises, which keeps cached hashes valid.  (A private constructor may
    fill the slots instead of ``__init__``, and private caches such as a
    ``_hash`` slot may be filled on first use.)
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class GaussianRational(Immutable):
    """A Gaussian rational ``re + im*i`` with exact `Fraction` parts.

    The class interoperates with `int` and `Fraction` in either operand
    position, so generic row-reduction code can mix the two scalar types.

    >>> z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    >>> z + 1
    GaussianRational(3/2, -3/4)
    >>> z * z.conjugate()
    GaussianRational(13/16, 0)
    >>> (z / z) == 1
    True
    >>> bool(GaussianRational(0, 0))
    False
    """

    __slots__ = ("re", "im")

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0) -> None:
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(x: object) -> Optional["GaussianRational"]:
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = GaussianRational(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"


Scalar = Union[Fraction, GaussianRational]
Vector = Tuple[Scalar, ...]

I = GaussianRational(0, 1)


def as_scalar(x: ScalarLike) -> Scalar:
    """Coerce ints/strings to `Fraction`; pass exact scalars through."""
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    return Fraction(x)


def _as_vector(v: Iterable[ScalarLike]) -> Vector:
    return tuple(as_scalar(x) for x in v)


_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _int_vector(v: Sequence[ScalarLike]) -> Optional[Tuple[List[int], int]]:
    """``(ints, scale)`` with ``v == ints / scale``, where ``scale`` is the lcm
    of the denominators; None unless every entry is an `int` or a `Fraction`."""
    try:
        dens = [x.denominator for x in v]
    except AttributeError:
        return None
    scale = lcm(*dens)
    if scale == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (scale // d) for x, d in zip(v, dens)], scale


def _integer_rows(rows: Sequence[Sequence[Scalar]]) -> Optional[List[List[int]]]:
    """The nonzero rows, each scaled to integers by the lcm of its
    denominators; None if an entry is not rational (a `GaussianRational`)."""
    out: List[List[int]] = []
    for row in rows:
        scaled = _int_vector(row)
        if scaled is None:
            return None
        if any(scaled[0]):
            out.append(scaled[0])
    return out


def _eliminate(mat: List[List[int]], above: bool) -> List[int]:
    """Fraction-free elimination of integer rows, in place; returns the pivots.

    For each pivot ``p`` in row ``r`` and entry ``e`` of row ``i`` in its
    column, row ``i`` becomes ``p*row_i - e*row_r`` divided by the gcd of its
    entries, which keeps the row space over Q and the entries small.  Rows
    below the pivot are always cleared; rows above it only when ``above``
    (Gauss–Jordan).  Afterwards the first ``len(pivots)`` rows hold the
    pivots in order and the rest are zero.
    """
    n = len(mat)
    pivots: List[int] = []
    if not n:
        return pivots
    r = 0
    for c in range(len(mat[0])):
        for i in range(r, n):
            if mat[i][c]:
                break
        else:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        pr = mat[r]
        p = pr[c]
        for i in range(0 if above else r + 1, n):
            ri = mat[i]
            e = ri[c]
            if e and i != r:
                new = [p * a - e * b for a, b in zip(ri, pr)]
                g = gcd(*new)
                if g > 1:
                    new = [a // g for a in new]
                mat[i] = new
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def rref(rows: Sequence[Sequence[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form.  Returns (nonzero reduced rows, pivot columns).

    Rows of `int` and `Fraction` entries are scaled to integers and reduced
    fraction-free by `_eliminate`; each pivot row is divided by its pivot
    only at the end, so every returned entry is a `Fraction`.  Rows holding
    a `GaussianRational` take the generic field loop.  The RREF is unique,
    so both routes return the same rows and pivots.

    >>> reduced, pivots = rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    >>> reduced
    [[Fraction(1, 1), Fraction(2, 1)]]
    >>> pivots
    [0]
    """
    mat = _integer_rows(rows)
    if mat is None:
        return _field_rref(rows)
    pivots = _eliminate(mat, above=True)
    return [
        [Fraction(a, row[c]) if a else _ZERO for a in row]
        for row, c in zip(mat, pivots)
    ], pivots


def _field_rref(rows: Sequence[Sequence[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Gauss–Jordan over any exact field whose elements support +,-,*,/ and
    truthiness; `rref` and `rank_of_rows` use it for Gaussian rows.  Ints are
    coerced first, so that no division yields a float."""
    work = [[as_scalar(x) for x in r] for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        if inv != 1:
            work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                ri = work[i]
                rr = work[r]
                work[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank_of_rows(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a list of row vectors.

    Rational rows take the forward half of `rref`'s integer elimination:
    rows are cleared below each pivot only, and no `Fraction` is built.
    Gaussian rows take the generic field loop.
    """
    mat = _integer_rows(rows)
    if mat is None:
        return len(_field_rref(rows)[0])
    return len(_eliminate(mat, above=False))


def solve_columns(
    cols: Sequence[Vector], target: Vector
) -> Optional[Tuple[Scalar, ...]]:
    """Solve ``sum_i c_i * cols[i] == target`` exactly; None if inconsistent.

    Free coefficients are set to zero, so the answer is deterministic.
    """
    if not cols:
        return () if not any(target) else None
    n = len(target)
    aug = [[col[i] for col in cols] + [target[i]] for i in range(n)]
    reduced, pivots = rref(aug)
    m = len(cols)
    coeffs: List[Scalar] = [Fraction(0)] * m
    for row, p in zip(reduced, pivots):
        if p == m:
            return None  # pivot in the augmented column: inconsistent
        coeffs[p] = row[m]
    return tuple(coeffs)


_IntForm = Tuple[int, Tuple[Tuple[Tuple[int, int], ...], ...]]


def _int_form(grid: Sequence[Sequence[Scalar]]) -> Optional[_IntForm]:
    """``(scale, rows)`` such that ``grid[i][j] == a / scale`` for each pair
    ``(j, a)`` of ``rows[i]``, which lists the nonzero entries of row ``i``
    as ints; ``scale`` is the lcm of all denominators.  None if an entry is
    a `GaussianRational`."""
    nonzero = []
    try:
        for row in grid:
            nums = [x.numerator for x in row]
            nonzero.append([(j, a, row[j].denominator) for j, a in enumerate(nums) if a])
    except AttributeError:
        return None
    scale = lcm(*[d for row in nonzero for _, _, d in row])
    return scale, tuple(tuple((j, a * (scale // d)) for j, a, d in row) for row in nonzero)


def _sparse_product(a: _IntForm, b: _IntForm, cols: int) -> Tuple[int, List[List[int]]]:
    """The integer rows and scale of the product of two integer forms; only
    pairs of nonzero entries are multiplied."""
    b_rows = b[1]
    out = []
    for a_row in a[1]:
        acc = [0] * cols
        for k, x in a_row:
            for j, y in b_rows[k]:
                acc[j] += x * y
        out.append(acc)
    return a[0] * b[0], out


def _sparse_sum(a: _IntForm, b: _IntForm, sign: int, cols: int) -> Tuple[int, List[List[int]]]:
    """The integer rows and scale of ``a + sign * b`` for two integer forms."""
    scale = lcm(a[0], b[0])
    fa, fb = scale // a[0], sign * (scale // b[0])
    out = []
    for a_row, b_row in zip(a[1], b[1]):
        acc = [0] * cols
        for j, x in a_row:
            acc[j] = x * fa
        for j, y in b_row:
            acc[j] += y * fb
        out.append(acc)
    return scale, out


def _apply_ints(form: _IntForm, ints: Sequence[int]) -> List[int]:
    """The integer vector ``rows · ints`` for the rows of an integer form."""
    out = []
    for srow in form[1]:
        t = 0
        for j, a in srow:
            t += a * ints[j]
        out.append(t)
    return out


class Matrix(Immutable):
    """An immutable exact matrix.

    ``entries`` is a tuple of row tuples of `Fraction` or `GaussianRational`
    scalars.  Products, ``apply``, sums, negation and rational scalar
    multiples of rational matrices run on an integer form: the entries
    scaled to ints by the lcm of their denominators, with each row kept as
    its nonzero ``(column, int)`` pairs.  It is computed once per matrix,
    on first use, and a result built from ints keeps its own, so a chain of
    products never re-derives it.  Only pairs of nonzero entries are
    multiplied, and the result gets one `Fraction` per nonzero entry and
    the shared zero elsewhere.  A matrix holding a `GaussianRational` takes
    the generic loop over its scalars.  Results of arithmetic are built by
    `_trusted`, which skips the coercion of each entry that ``__init__``
    does.

    >>> m = Matrix.from_rows([[0, 1], [0, 0]])
    >>> m.apply((1, 2))
    (Fraction(2, 1), Fraction(0, 1))
    >>> (m * m).is_zero()
    True
    >>> m.rank()
    1
    """

    __slots__ = ("rows", "cols", "entries", "_hash", "_ints")

    def __init__(self, entries: Sequence[Sequence[ScalarLike]], rows: Optional[int] = None, cols: Optional[int] = None) -> None:
        grid = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        nrows = len(grid)
        if rows is not None and rows != nrows:
            raise ValueError(f"matrix has {nrows} rows, not {rows}")
        ncols = (len(grid[0]) if grid else 0) if cols is None else cols
        for row in grid:
            if len(row) != ncols:
                raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", nrows)
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ints", None)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _trusted(cls, grid: Tuple[Vector, ...], rows: int, cols: int, ints: Optional[_IntForm] = None) -> "Matrix":
        """A matrix from a grid the caller guarantees is canonical.

        ``grid`` must be a tuple of ``rows`` tuples of ``cols`` exact scalars
        (`Fraction` or `GaussianRational`, never `int`), which is what
        ``__init__`` would build, so its coercion and shape checks are
        skipped.  ``ints`` is the grid's `_int_form` if the caller has it.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ints", ints)
        return self

    @classmethod
    def _from_ints(cls, scale: int, dense: List[List[int]], cols: int) -> "Matrix":
        """The rational matrix with entries ``dense[i][j] / scale``."""
        g = gcd(scale, *chain.from_iterable(dense))
        scale //= g
        grid, sparse = [], []
        for row in dense:
            nonzero = [(j, a // g) for j, a in enumerate(row) if a]
            out = [_ZERO] * cols
            if scale == 1:
                for j, a in nonzero:
                    out[j] = Fraction(a)
            else:
                for j, a in nonzero:
                    out[j] = Fraction(a, scale)
            grid.append(tuple(out))
            sparse.append(tuple(nonzero))
        return cls._trusted(tuple(grid), len(dense), cols, (scale, tuple(sparse)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        return cls(rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted(((_ZERO,) * cols,) * rows, rows, cols, (1, ((),) * rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        grid = tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        return cls._trusted(grid, n, n, (1, tuple(((i, 1),) for i in range(n))))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[ScalarLike]], nrows: int) -> "Matrix":
        if not cols:
            return cls.zero(nrows, 0)
        return cls([[col[i] for col in cols] for i in range(nrows)], nrows, len(cols))

    # -- structure -------------------------------------------------------

    def _integer_form(self) -> Optional[_IntForm]:
        """The `_int_form` of the entries, computed on first use; None for
        a matrix with a `GaussianRational` entry."""
        if self._ints is None:
            object.__setattr__(self, "_ints", _int_form(self.entries) or False)
        return self._ints or None

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(tuple(zip(*self.entries)) if self.rows else ((),) * self.cols, self.cols, self.rows)

    def is_zero(self) -> bool:
        if self._ints:
            return not any(self._ints[1])
        return all(not x for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def rank(self) -> int:
        # a matrix with no rows or no columns has rank 0 by shape
        return rank_of_rows(self.entries) if self.rows and self.cols else 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: object, sign: int) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch in addition")
        a = self._integer_form()
        b = other._integer_form() if a is not None else None
        if b is not None:
            return Matrix._from_ints(*_sparse_sum(a, b, sign, self.cols), self.cols)
        if sign < 0:
            other = -other
        return Matrix._trusted(
            tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "Matrix":
        return self._scaled(_MINUS_ONE)

    def __mul__(self, other: object) -> "Matrix":
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("matrix shape mismatch in product")
            a = self._integer_form()
            b = other._integer_form() if a is not None else None
            if b is not None:
                return Matrix._from_ints(*_sparse_product(a, b, other.cols), other.cols)
            bt = other.transpose().entries
            return Matrix._trusted(
                tuple(
                    tuple(sum((x * y for x, y in zip(row, col) if x and y), _ZERO) for col in bt)
                    for row in self.entries
                ),
                self.rows,
                other.cols,
            )
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scaled(as_scalar(other))
        return NotImplemented

    def _scaled(self, s: Scalar) -> "Matrix":
        """``s`` times this matrix, on the integer form when both are rational."""
        form =self._integer_form() if isinstance(s, Fraction) else None
        if form is None:
            return Matrix._trusted(
                tuple(tuple(x * s for x in row) for row in self.entries), self.rows, self.cols
            )
        p, cols = s.numerator, self.cols
        dense = []
        for srow in form[1]:
            acc = [0] * cols
            for j, a in srow:
                acc[j] = a * p
            dense.append(acc)
        return Matrix._from_ints(form[0] * s.denominator, dense, cols)

    def __rmul__(self, other: object) -> "Matrix":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("only square matrices have powers")
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        out = Matrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def apply(self, v: Sequence[ScalarLike]) -> Vector:
        form = self._integer_form()
        scaled = _int_vector(v) if form is not None else None
        if scaled is None:
            vec = _as_vector(v)
            if len(vec) != self.cols:
                raise ValueError("vector length does not match matrix columns")
            return tuple(
                sum((a * b for a, b in zip(row, vec) if a and b), _ZERO)
                for row in self.entries
            )
        ints, vs = scaled
        if len(ints) != self.cols:
            raise ValueError("vector length does not match matrix columns")
        scale = form[0] * vs
        return tuple(
            _ZERO if not t else Fraction(t) if scale == 1 else Fraction(t, scale)
            for t in _apply_ints(form, ints)
        )

    def commutes_with(self, other: "Matrix") -> bool:
        return self * other == other * self

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("only square matrices are invertible")
        n = self.rows
        aug = [list(row) + [_ONE if i == j else _ZERO for j in range(n)]
               for i, row in enumerate(self.entries)]
        reduced, pivots = rref(aug)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._trusted(tuple(tuple(row[n:]) for row in reduced), n, n)

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        # computed on first use: most matrices are never hashed
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, self.entries)))
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({[[str(x) for x in row] for row in self.entries]})"


# The stored form of a subspace: (integer rows, pivots, basis).  A rational
# subspace keeps its RREF rows as primitive integer rows with positive pivots
# and no basis (it is built on first read); a subspace with a non-real RREF
# keeps no integer rows and its RREF rows over Q(i) as the basis.
_Form = Tuple[Optional[Tuple[Tuple[int, ...], ...]], Tuple[int, ...], Optional[Tuple[Vector, ...]]]


def _primitive(row: Sequence[int], c: int) -> Tuple[int, ...]:
    """``row`` divided by the gcd of its entries, signed so that the entry
    in column ``c`` is positive."""
    g = gcd(*row)
    if row[c] < 0:
        g = -g
    return tuple(row) if g == 1 else tuple(a // g for a in row)


def _int_span(mat: List[List[int]]) -> _Form:
    """The stored form of the span of integer rows, which are reduced in place.

    `_eliminate` leaves each pivot row equal to its RREF row times a nonzero
    integer, so making it primitive with a positive pivot gives the one
    integer row on that RREF row's line.
    """
    pivots = _eliminate(mat, above=True)
    return tuple(_primitive(row, c) for row, c in zip(mat, pivots)), tuple(pivots), None


def _int_null_space(mat: List[List[int]], ncols: int) -> _Form:
    """The stored form of the null space of integer rows of width ``ncols``
    (reduced in place).

    The kernel vector of free column ``f`` is ``s`` at ``f`` and
    ``-row[f] * s / row[p]`` at the pivot ``p`` of each row with
    ``row[f] != 0``, where ``s`` is the lcm of those rows' pivot entries,
    so it has integer entries.
    """
    pairs = list(zip(mat, _eliminate(mat, above=True)))
    pivot_set = {p for _, p in pairs}
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        acting = [(row, p) for row, p in pairs if row[f]]
        s = lcm(*[row[p] for row, p in acting])
        v = [0] * ncols
        v[f] = s
        for row, p in acting:
            v[p] = -row[f] * (s // row[p])
        basis.append(v)
    return _int_span(basis)


def _field_span(reduced: Sequence[Sequence[Scalar]], pivots: Sequence[int]) -> _Form:
    """The stored form of a span given by its RREF over Q(i): integer rows
    when every entry is real, so that such a span equals (and hashes like)
    the same rational subspace; else the RREF rows themselves."""
    real = _integer_rows(
        [[x.re if isinstance(x, GaussianRational) and not x.im else x for x in row] for row in reduced]
    )
    if real is None:
        return None, tuple(pivots), tuple(tuple(row) for row in reduced)
    return tuple(_primitive(row, c) for row, c in zip(real, pivots)), tuple(pivots), None


class Subspace(Immutable):
    """A linear subspace with a canonical reduced-row-echelon basis.

    A rational subspace stores each RREF row as its primitive integer row
    with a positive pivot: the RREF row is that row divided by its pivot
    entry, so the stored rows are unique.  Equality and hashing compare
    these int tuples, and membership, sums, intersections, images,
    preimages and kernels run fraction-free on them.  ``basis`` gives the
    RREF rows as `Fraction`s; it is built on first read and kept.  A
    subspace whose RREF has a non-real `GaussianRational` entry stores that
    RREF as its basis and takes the generic field loops; one whose RREF is
    real is stored as a rational subspace, whatever its input scalars.

    >>> u = Subspace.span([(1, 1, 0), (0, 0, 1)], 3)
    >>> w = Subspace.span([(2, 2, 2), (0, 0, -5)], 3)
    >>> u == w
    True
    >>> u.dim
    2
    >>> u.contains_vector((3, 3, 7))
    True
    """

    __slots__ = ("ambient_dim", "_rows", "_pivots", "_basis", "_hash")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence[ScalarLike]]) -> None:
        vecs = [tuple(b) for b in basis]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("basis vector length does not match ambient dimension")
        mat = _integer_rows(vecs)
        self._fill(ambient_dim, _int_span(mat) if mat is not None else _field_span(*_field_rref(vecs)))

    def _fill(self, ambient_dim: int, form: _Form) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", form[0])
        object.__setattr__(self, "_pivots", form[1])
        object.__setattr__(self, "_basis", form[2])
        object.__setattr__(self, "_hash", None)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _make(cls, ambient_dim: int, form: _Form) -> "Subspace":
        """A subspace from a stored form the caller guarantees is canonical
        (see `_Form`), skipping ``__init__``."""
        self = object.__new__(cls)
        self._fill(ambient_dim, form)
        return self

    @classmethod
    def span(cls, vectors: Sequence[Sequence[ScalarLike]], ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, vectors)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        # the empty basis is in RREF
        return cls._make(ambient_dim, ((), (), None))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        # the rows of the identity are in RREF, with pivots 0, 1, ..., n-1
        rows = tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim))
        return cls._make(ambient_dim, (rows, tuple(range(ambient_dim)), None))

    # -- basic queries ----------------------------------------------------

    @property
    def basis(self) -> Tuple[Vector, ...]:
        """The reduced row echelon basis; for a rational subspace, its
        `Fraction` rows are built from the integer rows on first read."""
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(
                tuple(Fraction(a, row[c]) if a else _ZERO for a in row)
                for row, c in zip(self._rows, self._pivots)
            ))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def is_zero(self) -> bool:
        return not self._pivots

    def is_full(self) -> bool:
        return len(self._pivots) == self.ambient_dim

    def _residue(self, x: Sequence[int]) -> Tuple[List[int], int]:
        """``(y, m)`` such that ``y / m`` is the residue of the integer vector
        ``x`` against the basis; ``m`` is the lcm of the pivots used.

        Each stored row is zero at the other rows' pivots, so the residue is
        ``x - sum_r (x[p_r] / a_r) * row_r`` over the rows ``r`` with pivot
        column ``p_r`` and pivot entry ``a_r``, all read from ``x`` itself.
        """
        acting = [(row, p) for row, p in zip(self._rows, self._pivots) if x[p]]
        m = lcm(*[row[p] for row, p in acting])
        y = [a * m for a in x] if m != 1 else list(x)
        for row, p in acting:
            f = x[p] * (m // row[p])
            for j, a in enumerate(row):
                if a:
                    y[j] -= f * a
        return y, m

    def _scaled_vector(self, v: Sequence[ScalarLike]) -> Optional[Tuple[List[int], int]]:
        """`_int_vector` of ``v`` for a rational subspace, after checking its
        length; None when either side takes the field loop."""
        scaled = _int_vector(v) if self._rows is not None else None
        if scaled is not None and len(scaled[0]) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return scaled

    def reduce_vector(self, v: Sequence[ScalarLike]) -> Vector:
        """Canonical residue of ``v`` after eliminating basis components."""
        scaled = self._scaled_vector(v)
        if scaled is not None:
            y, m = self._residue(scaled[0])
            m *= scaled[1]
            return tuple(Fraction(a, m) if a else _ZERO for a in y)
        vec = list(_as_vector(v))
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        for row, p in zip(self.basis, self._pivots):
            f = vec[p]
            if f:
                for j in range(self.ambient_dim):
                    if row[j]:
                        vec[j] = vec[j] - f * row[j]
        return tuple(vec)

    def contains_vector(self, v: Sequence[ScalarLike]) -> bool:
        scaled = self._scaled_vector(v)
        if scaled is not None:
            return not any(self._residue(scaled[0])[0])
        return not any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self._rows is None or other._rows is None:
            return all(self.contains_vector(b) for b in other.basis)
        return self._contains_rows(other)

    def _contains_rows(self, other: "Subspace") -> bool:
        """`contains` for two rational subspaces of one ambient space."""
        # every leading column of a subspace is a leading column of any
        # subspace containing it
        if other.dim > self.dim or not set(other._pivots) <= set(self._pivots):
            return False
        return all(not any(self._residue(x)[0]) for x in other._rows)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains(self)

    # -- lattice operations ------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        return _sum_and_intersection(self, other)[0]

    def intersect(self, other: "Subspace") -> "Subspace":
        return _sum_and_intersection(self, other)[1]

    def coordinates_of(self, v: Sequence[ScalarLike]) -> Optional[Tuple[Scalar, ...]]:
        """Coefficients of ``v`` in the stored basis, or None if outside."""
        return self.rref_coordinates(v) if self.contains_vector(v) else None

    def rref_coordinates(self, v: Sequence[ScalarLike]) -> Tuple[Scalar, ...]:
        """Coefficients of a vector *known to lie in the subspace*.

        For a reduced-row-echelon basis the coefficient of the j-th basis
        vector is just the entry of ``v`` at its pivot column, so this skips
        the linear solve.  Garbage in, garbage out when ``v`` is outside.
        """
        return tuple(as_scalar(v[p]) for p in self._pivots)

    def extend_to(self, larger: "Subspace") -> List[Vector]:
        """Vectors of ``larger`` extending this basis (deterministic choice)."""
        if not larger.contains(self):
            raise ValueError("can only extend inside a containing subspace")
        out: List[Vector] = []
        current = self
        for v in larger.basis:
            r = current.reduce_vector(v)
            if any(r):
                out.append(r)
                current = Subspace(self.ambient_dim, list(current.basis) + [r])
        return out

    # -- images under operators --------------------------------------------

    def image_under(self, m: Matrix) -> "Subspace":
        if m.cols != self.ambient_dim:
            raise ValueError("operator does not act on this ambient space")
        form = m._integer_form() if self._rows is not None else None
        if form is None:
            return Subspace(m.rows, [m.apply(b) for b in self.basis])
        # the integer form is m times a nonzero scale, which keeps the span
        return Subspace._make(m.rows, _int_span([_apply_ints(form, x) for x in self._rows]))

    def preimage_under(self, m: Matrix) -> "Subspace":
        """Largest subspace U with ``m(U)`` inside self (i.e. m^{-1}(self))."""
        if m.rows != self.ambient_dim:
            raise ValueError("operator does not land in this ambient space")
        form = m._integer_form() if self._rows is not None else None
        if form is None:
            # v is in the preimage iff  m(v)  reduces to zero against our basis.
            cols = [self.reduce_vector(m.column(j)) for j in range(m.cols)]
            return kernel_of(Matrix.from_columns(cols, self.ambient_dim))
        # m(v) reduces to zero iff, at each column i that is not a pivot,
        # s*m(v)_i == sum_r (s / a_r) * row_r[i] * m(v)_{p_r}, with s the
        # lcm of the pivot entries a_r; the integer form's scale is common
        # to both sides.  Pivot columns give no condition.
        sparse = form[1]
        pairs = list(zip(self._rows, self._pivots))
        s = lcm(*[row[p] for row, p in pairs])
        pivot_set = set(self._pivots)
        eqs = []
        for i in range(self.ambient_dim):
            if i in pivot_set:
                continue
            acc = [0] * m.cols
            for j, a in sparse[i]:
                acc[j] = a * s
            for row, p in pairs:
                if row[i]:
                    f = row[i] * (s // row[p])
                    for j, a in sparse[p]:
                        acc[j] -= f * a
            eqs.append(acc)
        return Subspace._make(m.cols, _int_null_space(eqs, m.cols))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        if self._rows is None or other._rows is None:
            return self.basis == other.basis
        return self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            key = self._rows if self._rows is not None else self._basis
            object.__setattr__(self, "_hash", hash((self.ambient_dim, key)))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _nested_in(u: Subspace, w: Subspace) -> bool:
    """Whether ``u <= w`` is known without elimination: u is zero or w is
    full, or both are rational and every row of u reduces to zero against
    w.  Other pairs with a non-real Gaussian operand are left to the
    elimination."""
    if u.is_zero() or w.is_full():
        return True
    return u._rows is not None and w._rows is not None and w._contains_rows(u)


@lru_cache(maxsize=1 << 10)
def _sum_and_intersection(u: Subspace, w: Subspace) -> Tuple[Subspace, Subspace]:
    """Zassenhaus: one elimination yields both the sum and the intersection.

    When one operand lies in the other (see `_nested_in`), the pair is
    ``(larger, smaller)`` and no elimination runs; both are canonical
    already.  Nesting is tested on pivots and rows, not through
    `Subspace.contains` or ``==``.
    """
    if u.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if _nested_in(u, w):
        return w, u
    if _nested_in(w, u):
        return u, w
    n = u.ambient_dim
    # Eliminate the block rows (b | b) for b in u and (b | 0) for b in w.
    # Each resulting row is its RREF row times a nonzero scalar, so it is
    # zero left of its pivot and every pivot column is zero outside its row.
    # The rows with a pivot in the left half come first; their left halves
    # are RREF rows up to scale and span the projection of the block's row
    # space, u + w.  The other rows have zero left halves, and their right
    # halves are RREF rows up to scale spanning u ∩ w.
    if u._rows is not None and w._rows is not None:
        block = [list(b) * 2 for b in u._rows] + [list(b) + [0] * n for b in w._rows]
        pivots = _eliminate(block, above=True)
        k = sum(1 for p in pivots if p < n)
        left = tuple(_primitive(row[:n], p) for row, p in zip(block, pivots[:k]))
        right = tuple(_primitive(row[n:], p - n) for row, p in zip(block[k:], pivots[k:]))
        return (
            Subspace._make(n, (left, tuple(pivots[:k]), None)),
            Subspace._make(n, (right, tuple(p - n for p in pivots[k:]), None)),
        )
    reduced, pivots = rref([list(b) * 2 for b in u.basis] + [list(b) + [_ZERO] * n for b in w.basis])
    k = sum(1 for p in pivots if p < n)
    return (
        Subspace._make(n, _field_span([row[:n] for row in reduced[:k]], pivots[:k])),
        Subspace._make(n, _field_span([row[n:] for row in reduced[k:]], [p - n for p in pivots[k:]])),
    )


def sum_of(spaces: Sequence[Subspace], ambient_dim: int) -> Subspace:
    out = Subspace.zero(ambient_dim)
    for s in spaces:
        out = out.sum(s)
    return out


def intersection_of(spaces: Sequence[Subspace], ambient_dim: int) -> Subspace:
    out = Subspace.full(ambient_dim)
    for s in spaces:
        out = out.intersect(s)
    return out


def kernel_of(m: Matrix) -> Subspace:
    """Exact null space of ``m`` (solutions of ``m v = 0``)."""
    if m._integer_form() is not None:
        # the preimage of zero, by integer rows
        return Subspace.zero(m.rows).preimage_under(m)
    reduced, pivots = rref(m.entries)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis: List[List[Scalar]] = []
    for f in free:
        v: List[Scalar] = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(v)
    return Subspace(m.cols, basis)


def image_of(m: Matrix) -> Subspace:
    """Column space of ``m``."""
    form = m._integer_form()
    if form is None:
        return Subspace.full(m.cols).image_under(m)
    cols = [[0] * m.rows for _ in range(m.cols)]
    for i, srow in enumerate(form[1]):
        for j, a in srow:
            cols[j][i] = a
    return Subspace._make(m.rows, _int_span(cols))


class QuotientPresentation(Immutable):
    """A subquotient ``sub/den`` presented by explicit coset representatives.

    The representatives are the reduced row echelon basis of the residues
    of ``sub``'s basis against ``den``, so they are zero at ``den``'s
    pivots and span a complement of ``den`` in ``sub``.  Equal subquotients
    get equal presentations, and `reduce` reads a vector's coordinates at
    the representatives' pivots after reducing it against ``den``.

    >>> V = Subspace.full(2)
    >>> L = Subspace.span([(1, 1)], 2)
    >>> q = QuotientPresentation(V, L)
    >>> q.dim
    1
    >>> q.reduce((1, 0)) == tuple(-x for x in q.reduce((0, 1)))
    True
    """

    __slots__ = ("sub", "den", "ambient_dim", "_complement")

    def __init__(self, sub: Subspace, den: Subspace) -> None:
        if sub.ambient_dim != den.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not sub.contains(den):
            raise ValueError("denominator is not contained in the numerator")
        n = sub.ambient_dim
        if sub._rows is not None and den._rows is not None:
            # each residue's scale leaves its line, and so the span, unchanged
            complement = Subspace._make(n, _int_span([den._residue(x)[0] for x in sub._rows]))
        else:
            complement = Subspace(n, [den.reduce_vector(b) for b in sub.basis])
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "_complement", complement)

    @property
    def reps(self) -> Tuple[Vector, ...]:
        """The coset representatives: the complement's RREF basis."""
        return self._complement.basis

    @property
    def dim(self) -> int:
        return self._complement.dim

    def reduce(self, v: Sequence[ScalarLike]) -> Tuple[Scalar, ...]:
        """Coordinates of ``v + den`` in the representative basis."""
        coords = self._complement.coordinates_of(self.den.reduce_vector(v))
        if coords is None:
            raise ValueError("vector is not in the numerator subspace")
        return coords

    def lift(self, coords: Sequence[ScalarLike]) -> Vector:
        cs = _as_vector(coords)
        if len(cs) != self.dim:
            raise ValueError("coordinate length mismatch")
        n = self.ambient_dim
        out: List[Scalar] = [Fraction(0)] * n
        for c, rep in zip(cs, self.reps):
            if c:
                for j in range(n):
                    if rep[j]:
                        out[j] = out[j] + c * rep[j]
        return tuple(out)

    def induced_matrix(self, m: Matrix, target: "QuotientPresentation") -> Matrix:
        """Matrix of the map induced by ``m`` into ``target`` (rep bases).

        The caller promises that ``m`` maps sub into target.sub and den into
        target.den; `reduce` raises if the first promise is broken.
        """
        cols = [target.reduce(m.apply(rep)) for rep in self.reps]
        return Matrix.from_columns(cols, target.dim)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotientPresentation):
            return NotImplemented
        return self.sub == other.sub and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.sub, self.den))

    def __repr__(self) -> str:
        return f"QuotientPresentation(dim={self.dim}, ambient={self.ambient_dim})"


def restrict_operator(m: Matrix, s: Subspace) -> Matrix:
    """Matrix of ``m`` restricted to an invariant subspace, in its basis."""
    cols = []
    for b in s.basis:
        w = m.apply(b)
        c = s.coordinates_of(w)
        if c is None:
            raise ValueError("subspace is not invariant under the operator")
        cols.append(c)
    return Matrix.from_columns(cols, s.dim)


def exp_nilpotent(m: Matrix) -> Matrix:
    """Exact exponential of a nilpotent matrix (the series terminates).

    A rational matrix is ``A / s`` for its integer form ``A``, so the
    series is ``sum of A^k / (s^k k!)``.  It is summed on ints: the partial
    sum is kept over the running common scale ``s^k k!``, and one `Matrix`
    is built from it at the end.  A Gaussian matrix sums `Matrix` terms.
    """
    if not m.is_square():
        raise ValueError("exponential of a non-square matrix")
    n = m.rows
    form = m._integer_form()
    if form is None:
        out = Matrix.identity(n)
        power = Matrix.identity(n)
        k = 1
        while True:
            power = power * m
            if power.is_zero():
                return out
            if k > n:
                raise ValueError("matrix is not nilpotent")
            out = out + power * Fraction(1, factorial(k))
            k += 1
    s = form[0]
    total = [[int(i == j) for j in range(n)] for i in range(n)]
    scale = 1
    power = form[1]  # the sparse rows of s^k M^k
    k = 1
    while any(power):
        if k > n:
            raise ValueError("matrix is not nilpotent")
        f = s * k
        scale *= f
        if f != 1:
            total = [[x * f for x in row] for row in total]
        for row, srow in zip(total, power):
            for j, a in srow:
                row[j] += a
        dense = _sparse_product((1, power), form, n)[1]
        power = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in dense)
        k += 1
    return Matrix._from_ints(scale, total, n)


def is_symmetric(m: Matrix) -> bool:
    return m.is_square() and m == m.transpose()


class PositivityCertificate(Immutable):
    """Outcome of an exact positive-definiteness test.

    ``witness`` is the 0-based pivot index at which definiteness failed
    (None on success); ``pivots`` are the Schur-complement pivots seen.
    """

    __slots__ = ("positive", "witness", "pivots")

    def __init__(self, positive: bool, witness: Optional[int], pivots: Tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "pivots", pivots)

    def __bool__(self) -> bool:
        return self.positive

    def __repr__(self) -> str:
        state = "positive-definite" if self.positive else f"fails at pivot {self.witness}"
        return f"PositivityCertificate({state})"


def is_positive_definite(m: Matrix) -> PositivityCertificate:
    """Exact PD test by symmetric Gaussian elimination (no eigenvalues).

    A symmetric rational matrix is positive definite iff elimination without
    row exchange produces a strictly positive pivot at every step.

    >>> bool(is_positive_definite(Matrix.from_rows([[2, -1], [-1, 2]])))
    True
    >>> cert = is_positive_definite(Matrix.from_rows([[1, 2], [2, 1]]))
    >>> (cert.positive, cert.witness)
    (False, 1)
    """
    if not is_symmetric(m):
        raise ValueError("positivity is only defined for symmetric matrices")
    n = m.rows
    work = [list(row) for row in m.entries]
    pivots: List[Fraction] = []
    for k in range(n):
        p = work[k][k]
        if not isinstance(p, Fraction):
            raise ValueError("positivity test requires rational entries")
        if p <= 0:
            return PositivityCertificate(False, k, tuple(pivots))
        pivots.append(p)
        for i in range(k + 1, n):
            f = work[i][k] / p
            if f:
                for j in range(k, n):
                    work[i][j] = work[i][j] - f * work[k][j]
    return PositivityCertificate(True, None, tuple(pivots))

