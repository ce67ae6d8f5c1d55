"""Exact arithmetic and subspace-lattice foundations."""

from collections import namedtuple
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightfilt.exact import (
    GaussianRational,
    I,
    Matrix,
    QuotientPresentation,
    Subspace,
    _int_form,
    _sum_and_intersection,
    exp_nilpotent,
    image_of,
    is_positive_definite,
    kernel_of,
    rank_of_rows,
    rref,
    solve_columns,
)

from references import (
    as_exact,
    reference_apply,
    reference_exp_nilpotent,
    reference_image,
    reference_kernel,
    reference_preimage,
    reference_reduce,
    reference_rref,
    reference_span,
    reference_sum_and_intersection,
    reference_zassenhaus,
)
from strategies import (
    gaussian_scalars,
    matrices,
    nilpotent_matrices,
    square_matrices,
    subspaces,
)


class TestGaussianRational:
    def test_field_identities(self):
        x = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
        assert x + 0 == x
        assert x * 1 == x
        assert x - x == 0
        assert x * x.conjugate() == Fraction(4, 9) + Fraction(1, 4)

    def test_reflected_ops_with_builtins(self):
        x = GaussianRational(1, 1)
        assert 2 + x == GaussianRational(3, 1)
        assert Fraction(1, 2) * x == GaussianRational(Fraction(1, 2), Fraction(1, 2))
        assert 1 - x == GaussianRational(0, -1)
        assert (2 / GaussianRational(1, 1)) == GaussianRational(1, -1)

    def test_division(self):
        assert I * I == -1
        assert (GaussianRational(1, 1) / GaussianRational(1, -1)) == I

    def test_hash_agrees_with_fraction_on_reals(self):
        assert hash(GaussianRational(Fraction(3, 4), 0)) == hash(Fraction(3, 4))
        assert GaussianRational(Fraction(3, 4), 0) == Fraction(3, 4)

    @given(gaussian_scalars(), gaussian_scalars())
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(gaussian_scalars())
    def test_nonzero_elements_invert(self, a):
        if a != 0:
            assert a * (1 / a) == 1

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1, 2) / GaussianRational(0, 0)


class TestMatrix:
    @given(matrices())
    def test_double_transpose(self, m):
        assert m.transpose().transpose() == m

    @given(matrices(rows=3, cols=3), matrices(rows=3, cols=3))
    def test_transpose_reverses_products(self, a, b):
        assert (a * b).transpose() == b.transpose() * a.transpose()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.zero(2, 3) * Matrix.zero(2, 3)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]], 3, 2)
        with pytest.raises(ValueError):
            Matrix([], 2, 2)

    def test_degenerate_shapes_compose(self):
        # maps through a zero-dimensional space keep their outer shape
        f = Matrix.zero(0, 3)
        g = Matrix.zero(2, 0)
        assert (g * f).rows == 2 and (g * f).cols == 3

    @given(nilpotent_matrices(max_dim=5))
    def test_exp_nilpotent_inverts(self, n):
        e = exp_nilpotent(n)
        em = exp_nilpotent(-n)
        assert e * em == Matrix.identity(n.rows)

    @given(matrices())
    def test_rank_bounded_and_transpose_invariant(self, m):
        r = m.rank()
        assert 0 <= r <= min(m.rows, m.cols)
        assert m.transpose().rank() == r

    def test_inverse_round_trip(self):
        m = Matrix([[1, 2], [3, 5]])
        assert m * m.inverse() == Matrix.identity(2)
        with pytest.raises(ValueError):
            Matrix([[1, 1], [1, 1]]).inverse()


class TestRankAndSolve:
    @given(matrices())
    def test_integer_scaling_fast_path_matches_generic(self, m):
        # rank via fraction-clearing elimination vs. rank of the transpose,
        # which takes an independent elimination route
        rows = [tuple(x * 12 for x in row) for row in m.entries]
        assert rank_of_rows(rows) == m.rank()

    @given(matrices(rows=3, cols=2))
    def test_solve_columns_solves_consistent_systems(self, m):
        cols = [tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)]
        b = m.apply((Fraction(1), Fraction(-2)))
        y = solve_columns(cols, b)
        assert y is not None
        assert m.apply(y) == b

    def test_solve_columns_detects_inconsistency(self):
        assert solve_columns([(Fraction(1), Fraction(0))], (Fraction(0), Fraction(1))) is None

    def test_int_rows_give_fractions(self):
        # floating point is banned: int input must not come back as floats
        reduced, pivots = rref([[2, 4], [1, 3]])
        assert reduced == [[1, 0], [0, 1]] and pivots == [0, 1]
        assert all(type(x) is Fraction for row in reduced for x in row)
        reduced, _ = rref([[1, 2]])
        assert all(type(x) is Fraction for row in reduced for x in row)
        y = solve_columns([(2, 4)], (1, 2))
        assert y == (Fraction(1, 2),)
        assert all(type(x) is Fraction for x in y)


_rational_entries = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)


@st.composite
def _row_blocks(draw, entries=_rational_entries):
    """Row lists with zero, duplicate and dependent rows among random ones;
    0 rows and width 0 included."""
    width = draw(st.integers(min_value=0, max_value=6))
    base = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=5))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "dependent"]), max_size=4)):
        if kind == "zero" or not base:
            rows.append([0] * width)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            s, t = draw(_rational_entries), draw(_rational_entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows)) if rows else rows


class TestIntegerKernel:
    @given(_row_blocks())
    @example([[2, 4], [1, 2]])
    @example([[Fraction(1, 3), 1], [0, 5]])
    @example([])
    @example([[], []])
    @settings(max_examples=300, deadline=None)
    def test_rref_matches_fraction_reference(self, rows):
        expected = reference_rref(rows)
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == expected
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert rank_of_rows(rows) == len(expected[0])

    @given(_row_blocks(st.one_of(_rational_entries, gaussian_scalars())))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_rows_match_reference(self, rows):
        expected = reference_rref(rows)
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == expected
        assert all(isinstance(x, (Fraction, GaussianRational)) for row in reduced for x in row)
        assert rank_of_rows(rows) == len(expected[0])


def _reference_mul(a, b):
    """The Fraction product `Matrix.__mul__` computed for every matrix
    before its integer kernel: one scalar operation per cell."""
    bt = [[b.entries[i][j] for i in range(b.rows)] for j in range(b.cols)]
    return Matrix(
        [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in bt] for row in a.entries],
        a.rows,
        b.cols,
    )


def _reference_add(a, b):
    return Matrix([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)], a.rows, a.cols)


def _reference_scale(a, s):
    s = as_exact(s)
    return Matrix([[x * s for x in row] for row in a.entries], a.rows, a.cols)


def _reference_pow(a, n):
    """Square and multiply on `_reference_mul`, in the order `Matrix.__pow__`
    has always used: the order decides whether a cancelled Gaussian cell
    comes out as a `Fraction` zero or a `GaussianRational` zero."""
    out = Matrix([[Fraction(int(i == j)) for j in range(a.rows)] for i in range(a.rows)], a.rows, a.rows)
    base = a
    while n:
        if n & 1:
            out = _reference_mul(out, base)
        base = _reference_mul(base, base)
        n >>= 1
    return out


def _reference_exp(m):
    out = power = _reference_pow(m, 0)
    for k in range(1, m.rows + 1):
        power = _reference_mul(power, m)
        if not any(x for row in power.entries for x in row):
            break
        out = _reference_add(out, _reference_scale(power, Fraction(1, factorial(k))))
    return out


def _assert_same(got, want):
    """Equal to the reference with the same scalar type in every cell, and
    indistinguishable from the same grid built by ``Matrix.__init__``."""
    assert got == want
    assert [[type(x) for x in row] for row in got.entries] == [[type(x) for x in row] for row in want.entries]
    assert type(got.entries) is tuple and all(type(row) is tuple for row in got.entries)
    assert all(type(x) in (Fraction, GaussianRational) for row in got.entries for x in row)
    again = Matrix(got.entries, got.rows, got.cols)
    assert got == again and hash(got) == hash(again)
    if got._ints:
        # a form kept from integer arithmetic is the one the entries give
        assert got._ints == _int_form(got.entries)


def _sparse(entries):
    """Entries that are zero at least two times in three, so that the
    matrices are sparse, as the operands of the polarization routes are."""
    return st.one_of(st.just(0), st.just(0), entries)


_ENTRY_KINDS = {
    "integer": _sparse(st.integers(min_value=-6, max_value=6)),
    "rational": _sparse(_rational_entries),
    "gaussian": _sparse(st.one_of(_rational_entries, gaussian_scalars())),
}
_entry_kinds = st.sampled_from(sorted(_ENTRY_KINDS))


@st.composite
def _matrix_of(draw, rows, cols, kind=None):
    entries = _ENTRY_KINDS[kind or draw(_entry_kinds)]
    grid = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix(grid, rows, cols)


_dims = st.integers(min_value=0, max_value=4)


@st.composite
def _composable(draw):
    """Two composable matrices, each with its own entry kind, so rational
    and Gaussian operands meet; 0-row and 0-column shapes included."""
    r, k, c = draw(_dims), draw(_dims), draw(_dims)
    return draw(_matrix_of(r, k)), draw(_matrix_of(k, c))


@st.composite
def _nilpotents(draw):
    """Strictly lower triangular matrices of any entry kind, conjugated by
    a shear so that they are not triangular."""
    n = draw(st.integers(min_value=1, max_value=4))
    lower = draw(_matrix_of(n, n))
    m = Matrix([[x if i > j else 0 for j, x in enumerate(row)] for i, row in enumerate(lower.entries)], n, n)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if i == j:
        return m
    shear = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    inverse = [list(row) for row in shear]
    shear[i][j], inverse[i][j] = Fraction(2), Fraction(-2)
    return _reference_mul(_reference_mul(Matrix(shear), m), Matrix(inverse))


class TestIntegerArithmetic:
    """The integer kernels against the Fraction loops they replaced."""

    @given(_composable())
    @example((Matrix.zero(0, 3), Matrix.zero(3, 2)))
    @example((Matrix.zero(2, 0), Matrix.zero(0, 3)))
    @example((Matrix([[I, 0]]), Matrix([[0], [Fraction(1, 2)]])))
    @settings(max_examples=300, deadline=None)
    def test_product_matches_reference(self, pair):
        a, b = pair
        _assert_same(a * b, _reference_mul(a, b))
        # a product of products reuses the integer forms the first one kept
        ab = a * b
        _assert_same(ab * b.transpose(), _reference_mul(_reference_mul(a, b), b.transpose()))

    @given(data=st.data(), m=_composable())
    @settings(max_examples=200, deadline=None)
    def test_apply_matches_reference(self, data, m):
        m = m[0]
        kind = _ENTRY_KINDS[data.draw(_entry_kinds)]
        v = data.draw(st.lists(kind, min_size=m.cols, max_size=m.cols))
        got, want = m.apply(v), reference_apply(m, v)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]

    @given(data=st.data(), r=_dims, c=_dims)
    @settings(max_examples=200, deadline=None)
    def test_sum_difference_and_negation_match_reference(self, data, r, c):
        a, b = data.draw(_matrix_of(r, c)), data.draw(_matrix_of(r, c))
        _assert_same(a + b, _reference_add(a, b))
        _assert_same(a - b, _reference_add(a, _reference_scale(b, -1)))
        _assert_same(-a, _reference_scale(a, -1))

    @given(
        m=_composable(),
        s=st.one_of(st.integers(min_value=-6, max_value=6), _rational_entries, gaussian_scalars()),
    )
    @example(m=(Matrix([[Fraction(1, 2), 3]]), Matrix.zero(2, 0)), s=Fraction(2, 3))
    @settings(max_examples=200, deadline=None)
    def test_scalar_multiples_match_reference(self, m, s):
        m = m[0]
        _assert_same(m * s, _reference_scale(m, s))
        _assert_same(s * m, _reference_scale(m, s))

    @given(data=st.data(), n=_dims, k=st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_powers_match_reference(self, data, n, k):
        m = data.draw(_matrix_of(n, n))
        _assert_same(m**k, _reference_pow(m, k))

    def test_power_keeps_cancelled_gaussian_cell_type(self):
        # (m**2)**2 cancels the cell (2, 1) to a GaussianRational zero, and the
        # identity times that square leaves it a Fraction zero
        m = Matrix([[0, 0, 0, 0], [0, 4 * I, 0, 0], [0, 1, 4, 0], [0, 0, 0, 0]])
        _assert_same(m**4, _reference_pow(m, 4))
        assert type((m**4).entries[2][1]) is Fraction

    @given(_nilpotents())
    @example(Matrix([[0, 0, 2, 0], [0, 0, 0, 0], [I, 0, 0, -2 * I], [0, 0, 1, 0]]))
    @settings(max_examples=100, deadline=None)
    def test_exp_nilpotent_matches_reference(self, m):
        _assert_same(exp_nilpotent(m), _reference_exp(m))

    @given(m=nilpotent_matrices(max_dim=6), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exp_nilpotent_matches_fraction_series(self, m, data):
        # non-integer entries: a rational multiple conjugated by a rational
        # diagonal; times i, the same matrix takes the Gaussian series
        nonzero = _rational_entries.filter(bool)
        s = data.draw(nonzero)
        d = data.draw(st.lists(nonzero, min_size=m.rows, max_size=m.rows))
        m = Matrix([[x * s * d[i] / d[j] for j, x in enumerate(row)] for i, row in enumerate(m.entries)])
        _assert_same(exp_nilpotent(m), reference_exp_nilpotent(m))
        _assert_same(exp_nilpotent(m * I), reference_exp_nilpotent(m * I))

    @given(square_matrices())
    @example(Matrix([[0, 1], [1, 0]]))
    @example(Matrix([[0, I], [1, 0]]))
    def test_exp_nilpotent_refuses_what_the_series_refuses(self, m):
        try:
            want = reference_exp_nilpotent(m)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                exp_nilpotent(m)
        else:
            _assert_same(exp_nilpotent(m), want)

    @given(n=_dims)
    def test_identity_and_zero_are_canonical(self, n):
        _assert_same(Matrix.identity(n), Matrix([[int(i == j) for j in range(n)] for i in range(n)], n, n))
        _assert_same(Matrix.zero(n, 2), Matrix([[0, 0]] * n, n, 2))
        _assert_same(Matrix.zero(2, n), Matrix([[0] * n] * 2, 2, n))


class TestSubspace:
    @given(subspaces())
    def test_canonical_equality_is_extensional(self, s):
        again = Subspace.span(list(s.basis), s.ambient_dim)
        assert again == s
        assert hash(again) == hash(s)
        doubled = Subspace.span([tuple(2 * x for x in b) for b in s.basis], s.ambient_dim)
        assert doubled == s

    @given(subspaces(ambient_dim=4), subspaces(ambient_dim=4))
    def test_dimension_formula(self, a, b):
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim

    @given(subspaces(ambient_dim=3), subspaces(ambient_dim=3))
    def test_sum_and_intersection_bounds(self, a, b):
        s, t = a.sum(b), a.intersect(b)
        assert t <= a and t <= b
        assert a <= s and b <= s

    @given(subspaces(ambient_dim=3))
    def test_membership_of_basis_vectors(self, s):
        for b in s.basis:
            assert s.contains_vector(b)
            assert s.reduce_vector(b) == tuple(Fraction(0) for _ in range(s.ambient_dim))

    @given(subspaces(ambient_dim=4))
    def test_rref_coordinates_match_generic_coordinates(self, s):
        for b in s.basis:
            assert s.rref_coordinates(b) == s.coordinates_of(b)

    @given(subspaces(ambient_dim=3))
    def test_extend_to_full(self, s):
        ext = s.extend_to(Subspace.full(3))
        assert len(ext) == 3 - s.dim

    def test_preimage_under(self):
        m = Matrix([[1, 0], [0, 0]])
        line = Subspace.span([(1, 0)], 2)
        pre = line.preimage_under(m)
        assert pre == Subspace.full(2)
        zero_pre = Subspace.zero(2).preimage_under(m)
        assert zero_pre == Subspace.span([(0, 1)], 2)


class TestKernelImage:
    @given(matrices())
    def test_rank_nullity(self, m):
        assert kernel_of(m).dim + image_of(m).dim == m.cols

    @given(matrices())
    def test_image_contains_applied_vectors(self, m):
        img = image_of(m)
        for j in range(m.cols):
            col = tuple(m.entries[i][j] for i in range(m.rows))
            assert img.contains_vector(col)

    @given(matrices())
    def test_kernel_vectors_map_to_zero(self, m):
        zero = tuple(Fraction(0) for _ in range(m.rows))
        for v in kernel_of(m).basis:
            assert m.apply(v) == zero


class TestQuotientPresentation:
    @given(subspaces(ambient_dim=4), subspaces(ambient_dim=4))
    def test_dimension(self, a, b):
        num = a.sum(b)
        q = QuotientPresentation(num, b)
        assert q.dim == num.dim - b.dim

    @given(subspaces(ambient_dim=3))
    def test_reduce_kills_denominator(self, den):
        q = QuotientPresentation(Subspace.full(3), den)
        zero = tuple(Fraction(0) for _ in range(q.dim))
        for v in den.basis:
            assert q.reduce(v) == zero

    @given(subspaces(ambient_dim=3))
    def test_lift_then_reduce_is_identity(self, den):
        q = QuotientPresentation(Subspace.full(3), den)
        for k in range(q.dim):
            e = tuple(Fraction(1) if i == k else Fraction(0) for i in range(q.dim))
            assert q.reduce(q.lift(e)) == e


class _ReferencePresentation:
    """`QuotientPresentation` before its representatives became an RREF
    complement: each basis vector of ``sub`` reduced against ``den`` and the
    representatives before it, with a new `Subspace` built per
    representative, and every vector solved against the representatives and
    ``den``'s basis by one `solve_columns` elimination."""

    def __init__(self, sub, den):
        reps, current = [], den
        for v in sub.basis:
            r = current.reduce_vector(v)
            if any(r):
                reps.append(r)
                current = Subspace(sub.ambient_dim, list(current.basis) + [r])
        self.reps, self.den = tuple(reps), den

    def reduce(self, v):
        coeffs = solve_columns(list(self.reps) + list(self.den.basis), tuple(v))
        if coeffs is None:
            raise ValueError("vector is not in the numerator subspace")
        return coeffs[: len(self.reps)]


def _reference_coordinates(s, v):
    """`Subspace.coordinates_of` before the pivot read: one solve."""
    return solve_columns(list(s.basis), tuple(as_exact(x) for x in v))


_PAIR_KINDS = {kind: _ENTRY_KINDS[kind] for kind in ("rational", "gaussian")}

# A subquotient ``sub/den`` with the data the checks run on: coordinate
# vectors for the quotient, coefficient vectors for ``sub``'s basis, vectors
# of the ambient space and an operator on it.
_Case = namedtuple("_Case", "sub den coords combos vectors op")


@st.composite
def _subquotient_cases(draw):
    """``den`` spans some drawn vectors and ``sub`` spans them and some
    more, so zero, full and equal pairs all occur; every entry is of one
    drawn kind, rational or Gaussian."""
    n = draw(st.integers(min_value=1, max_value=4))
    entries = _PAIR_KINDS[draw(st.sampled_from(sorted(_PAIR_KINDS)))]

    def vecs(length, count=None):
        vec = st.lists(entries, min_size=length, max_size=length)
        return draw(st.lists(vec, min_size=count or 0, max_size=count or n))

    low, extra = vecs(n), vecs(n)
    sub, den = Subspace(n, low + extra), Subspace(n, low)
    op = Matrix(vecs(n, n), n, n)
    return _Case(sub, den, vecs(sub.dim - den.dim, 2), vecs(sub.dim, 2), vecs(n, 3), op)


def _fixed_case(sub, den, op):
    """A case on given spaces and operator, with all-ones and unit vectors."""
    n, q = sub.ambient_dim, sub.dim - den.dim
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return _Case(sub, den, [(1,) * q], [(1,) * sub.dim], [(1,) * n] + units, op)


_SHIFT = Matrix([[int(j == i + 1) for j in range(3)] for i in range(3)])
_SPECIAL_CASES = [
    _fixed_case(Subspace.zero(3), Subspace.zero(3), _SHIFT),
    _fixed_case(Subspace.full(3), Subspace.zero(3), _SHIFT),
    _fixed_case(Subspace.full(3), Subspace.full(3), _SHIFT),
    _fixed_case(Subspace.span([(1, I, 0), (0, 0, 1)], 3), Subspace.span([(1, I, 0)], 3), Matrix.identity(3) * I),
    _fixed_case(Subspace.span([(1, I, 0)], 3), Subspace.span([(1, I, 0)], 3), _SHIFT),
]


def _subquotient_examples(test):
    for case in _SPECIAL_CASES:
        test = example(case=case)(test)
    return settings(max_examples=200, deadline=None)(given(case=_subquotient_cases())(test))


def _combination(coeffs, vectors, n):
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        out = [a + as_exact(c) * b for a, b in zip(out, v)]
    return tuple(out)


def _members(case):
    n = case.sub.ambient_dim
    return [_combination(c, case.sub.basis, n) for c in case.combos]


class TestQuotientComplement:
    """The RREF-complement presentation and the pivot-read `coordinates_of`
    against the sequential representatives and `solve_columns` solves they
    replaced, on rational and Gaussian subquotients."""

    @_subquotient_examples
    def test_presentation_matches_reference(self, case):
        sub, den, m = case.sub, case.den, case.op
        q, ref = QuotientPresentation(sub, den), _ReferencePresentation(sub, den)
        # the representatives complement the denominator, in RREF and zero
        # at the denominator's pivots
        assert q.dim == len(ref.reps) == sub.dim - den.dim
        assert Subspace(sub.ambient_dim, den.basis + q.reps) == sub
        assert Subspace(sub.ambient_dim, q.reps).basis == q.reps
        assert all(rep[p] == 0 for rep in q.reps for p in den._pivots)
        # reduce and lift are inverse modulo the denominator
        for c in case.coords:
            assert q.reduce(q.lift(c)) == tuple(as_exact(x) for x in c)
        for v in _members(case):
            assert den.contains_vector([a - b for a, b in zip(q.lift(q.reduce(v)), v)])
        # non-members raise, as they did
        for v in case.vectors:
            if not sub.contains_vector(v):
                with pytest.raises(ValueError, match="not in the numerator"):
                    q.reduce(v)
                with pytest.raises(ValueError, match="not in the numerator"):
                    ref.reduce(v)
        # induced matrices are conjugate to the reference's by the matrices
        # of the reference's representatives in the new ones
        target = (sub.image_under(m), den.image_under(m))
        qt, ref_t = QuotientPresentation(*target), _ReferencePresentation(*target)
        got = q.induced_matrix(m, qt)
        want = Matrix.from_columns([ref_t.reduce(m.apply(rep)) for rep in ref.reps], len(ref_t.reps))
        change = Matrix.from_columns([q.reduce(rep) for rep in ref.reps], q.dim)
        change_t = Matrix.from_columns([qt.reduce(rep) for rep in ref_t.reps], qt.dim)
        assert change.rank() == q.dim and change_t.rank() == qt.dim
        assert got * change == change_t * want
        for v in _members(case):
            assert q.reduce(v) == change.apply(ref.reduce(v))

    @_subquotient_examples
    def test_coordinates_of_matches_reference(self, case):
        for v in _members(case) + case.vectors:
            got, want = case.sub.coordinates_of(v), _reference_coordinates(case.sub, v)
            assert got == want
            assert (got is None) == (not case.sub.contains_vector(v))


class TestPositivity:
    def test_identity_is_positive(self):
        cert = is_positive_definite(Matrix.identity(3))
        assert cert.positive and cert.witness is None

    def test_witness_points_at_failing_pivot(self):
        m = Matrix([[1, 0], [0, -1]])
        cert = is_positive_definite(m)
        assert not cert.positive
        assert cert.witness == 1

    def test_semidefinite_is_not_definite(self):
        m = Matrix([[1, 1], [1, 1]])
        assert not is_positive_definite(m).positive

    @given(matrices(rows=3, cols=3))
    def test_gram_of_invertible_is_positive(self, m):
        if m.rank() == 3:
            cert = is_positive_definite(m.transpose() * m)
            assert cert.positive

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            is_positive_definite(Matrix([[1, 2], [0, 1]]))


def _stored(s):
    return s.basis, s._pivots


@st.composite
def _span_rows(draw, width, entries=_rational_entries):
    """Rows of one width spanning a random, the zero or the full space."""
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=4))
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    if kind == "zero":
        return draw(st.lists(st.just([0] * width), max_size=2))
    if kind == "full":
        rows += [[int(i == j) for j in range(width)] for i in range(width)]
    return draw(st.permutations(rows))


_gaussian_entries = st.one_of(_rational_entries, gaussian_scalars())


@st.composite
def _span_pair(draw):
    """Two row lists of one width, each rational or Gaussian."""
    n = draw(st.integers(min_value=0, max_value=5))
    kinds = [_rational_entries, _gaussian_entries]
    return n, draw(_span_rows(n, draw(st.sampled_from(kinds)))), draw(_span_rows(n, draw(st.sampled_from(kinds))))


@st.composite
def _zassenhaus_pair(draw):
    """Two subspaces of one width, each rational or Gaussian: independent,
    with the same leading columns, one inside the other either way, equal,
    or with a zero or full operand."""
    n = draw(st.integers(min_value=0, max_value=4))
    kinds = [_rational_entries, _gaussian_entries]
    entries = draw(st.sampled_from(kinds))
    u = Subspace(n, draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=max(n - 1, 0))))
    entries = draw(st.sampled_from(kinds))
    relation = draw(st.sampled_from(["random", "tilted", "inside", "around", "equal", "zero", "full"]))
    if relation == "random":
        w = Subspace(n, draw(_span_rows(n, entries)))
    elif relation == "tilted":
        # the basis of u moved off u within its leading columns' pattern
        free = [j for j in range(n) if j not in u._pivots]
        tilts = [(draw(st.sampled_from(free)), draw(entries)) if free else (0, 0) for _ in u.basis]
        w = Subspace(n, [[x + (c if j == f else 0) for j, x in enumerate(b)] for b, (f, c) in zip(u.basis, tilts)])
    elif relation == "inside":
        combos = draw(st.lists(st.lists(entries, min_size=u.dim, max_size=u.dim), max_size=3))
        w = Subspace(n, [[sum((c * b[j] for c, b in zip(cs, u.basis)), Fraction(0)) for j in range(n)] for cs in combos])
    elif relation == "around":
        w = Subspace(n, list(u.basis) + draw(_span_rows(n, entries)))
    elif relation == "equal":
        w = Subspace(n, [[3 * x for x in b] for b in reversed(u.basis)])
    else:
        w = Subspace.zero(n) if relation == "zero" else Subspace.full(n)
    return (u, w) if draw(st.booleans()) else (w, u)


class TestIntegerSubspace:
    """Integer `Subspace` rows against the Fraction reference loops."""

    @given(_zassenhaus_pair())
    @example((Subspace.span([(1, I)], 2), Subspace.span([(2, 2 * I)], 2)))
    @example((Subspace.span([(1, I)], 2), Subspace.span([(1, 0)], 2)))
    @example((Subspace.span([(1, I, 0)], 3), Subspace.span([(1, 0, 0), (0, 1, 0)], 3)))
    @example((Subspace.span([(1, 1)], 2), Subspace.span([(1, 0)], 2)))
    @example((Subspace.zero(0), Subspace.full(0)))
    @settings(max_examples=100, deadline=None)
    def test_zassenhaus_matches_elimination(self, pair):
        # nested pairs skip the elimination; every pair gives the subspaces
        # the elimination gives, stored in the same canonical form
        got = _sum_and_intersection.__wrapped__(*pair)
        want = reference_sum_and_intersection(*pair)
        for g, r in zip(got, want):
            assert g == r and hash(g) == hash(r)
            assert (g._rows, g._pivots) == (r._rows, r._pivots)
            assert _stored(g) == _stored(r)

    @given(_span_pair())
    @example((2, [[Fraction(1, 10**12), 1]], [[1, 0]]))
    @example((3, [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @example((0, [], []))
    @settings(max_examples=200, deadline=None)
    def test_span_and_lattice_match_reference(self, case):
        n, a, b = case
        u, w = Subspace(n, a), Subspace(n, b)
        ru, rw = reference_span(a), reference_span(b)
        assert _stored(u) == ru and _stored(w) == rw
        rsum, rcap = reference_zassenhaus(ru, rw, n)
        assert _stored(u.sum(w)) == rsum
        assert _stored(u.intersect(w)) == rcap
        assert u.contains(w) == (len(rsum[0]) == len(ru[0]))
        assert w.contains(u) == (len(rsum[0]) == len(rw[0]))
        for v in list(a) + list(b):
            got = u.reduce_vector(v)
            assert got == reference_reduce(ru, v)
            assert all(isinstance(x, (Fraction, GaussianRational)) for x in got)
            assert u.contains_vector(v) == (not any(got))

    @given(st.data(), st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_images_preimages_and_kernels_match_reference(self, data, r, c):
        m = data.draw(_matrix_of(r, c))
        source = data.draw(_span_rows(c, data.draw(st.sampled_from([_rational_entries, _gaussian_entries]))))
        target = data.draw(_span_rows(r, data.draw(st.sampled_from([_rational_entries, _gaussian_entries]))))
        assert _stored(kernel_of(m)) == reference_kernel(m.entries, c)
        assert _stored(image_of(m)) == reference_span([m.column(j) for j in range(c)])
        s, t = Subspace(c, source), Subspace(r, target)
        assert _stored(s.image_under(m)) == reference_image(reference_span(source), m)
        assert _stored(t.preimage_under(m)) == reference_preimage(reference_span(target), m)

    def test_gaussian_span_with_real_rref_is_the_rational_span(self):
        # the span of (i, i) is the span of (1, 1): same subspace, same hash
        gaussian = Subspace.span([(I, I)], 2)
        rational = Subspace.span([(1, 1)], 2)
        assert gaussian == rational and hash(gaussian) == hash(rational)
        assert gaussian.basis == ((Fraction(1), Fraction(1)),)
        assert gaussian._rows == rational._rows == ((1, 1),)
        line = Subspace.span([(1, I)], 2)
        assert line != Subspace.span([(1, 1)], 2) and line._rows is None
        # a Gaussian intersection that is real meets the rational cache keys
        assert line.sum(Subspace.span([(1, -I)], 2)) == Subspace.full(2)
        assert hash(line.sum(Subspace.span([(1, -I)], 2))) == hash(Subspace.full(2))

    def test_rows_are_primitive_with_positive_pivots(self):
        s = Subspace.span([(Fraction(-2, 3), Fraction(4, 9), 0), (0, 0, Fraction(-5, 7))], 3)
        assert s._rows == ((3, -2, 0), (0, 0, 1))
        assert s.basis == ((Fraction(1), Fraction(-2, 3), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))
