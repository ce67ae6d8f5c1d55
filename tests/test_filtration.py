"""Filtrations, the subquotient compatibility test, and iterated gradeds.

The compatibility decision procedure here is the *subquotient* route: build
every cell of the {-1,0,1}^n hypercomplex and demand short-exactness of all
rows.  Its agreement with the blowup/flatness route lives in test_rees.py
and the acceptance suite; nothing in this file consults the other oracle.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightfilt.exact import Matrix, QuotientPresentation, Subspace, intersection_of, sum_of
from weightfilt.filtration import (
    Filtration,
    IndexLattice,
    IteratedGradedMismatch,
    MultiFiltration,
    compatible_filtrations,
    compatible_subobjects,
    graded_piece,
    iterated_graded,
    total_graded_dimension,
)

from strategies import filtrations, multifiltrations, subspaces


def _line(a, b):
    return Subspace.span([(Fraction(a), Fraction(b))], 2)


def _two_step(sub):
    return Filtration(
        sub.ambient_dim,
        [(Fraction(0), sub), (Fraction(1), Subspace.full(sub.ambient_dim))],
    )


THREE_LINES = MultiFiltration([_two_step(_line(1, 0)), _two_step(_line(0, 1)), _two_step(_line(1, 1))])


def _reference_cells(subs, n):
    """Every hypercomplex cell as a presented subquotient."""
    cells = {}
    for point in product((-1, 0, 1), repeat=len(subs)):
        num = intersection_of([s for s, k in zip(subs, point) if k == -1], n)
        den = sum_of([num.intersect(s) for s, k in zip(subs, point) if k == 1], n)
        cells[point] = QuotientPresentation(num, den)
    return cells


def _inclusion_induced(src, dst):
    return Matrix.from_columns([dst.reduce(rep) for rep in src.reps], dst.dim)


def _reference_row_is_exact(cells, point, i):
    """Exactness of the row through ``point`` in direction ``i``, from the
    matrices of the inclusion-induced maps f: left -> mid and g: mid -> right.

    Whatever the input, g∘f == 0 and g is onto, and f is injective exactly
    when the dimensions add up.
    """
    left = cells[point]
    mid = cells[point[:i] + (0,) + point[i + 1 :]]
    right = cells[point[:i] + (1,) + point[i + 1 :]]
    f = _inclusion_induced(left, mid)
    g = _inclusion_induced(mid, right)
    assert (g * f).is_zero()
    assert g.rank() == right.dim
    additive = mid.dim == left.dim + right.dim
    assert (f.rank() == left.dim) == additive
    return additive


def _reference_rows(cells, n):
    """Every row as ``((point, direction), exact)``, in lexicographic order."""
    return [
        ((point, i), _reference_row_is_exact(cells, point, i))
        for point in sorted(cells)
        for i in range(n)
        if point[i] == -1
    ]


def _random_family(seed):
    """1–4 random subspaces of a space of dimension 1–5.  About one family
    in twelve is incompatible; hypothesis' own draws, which favour zero
    vectors, almost never give one."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)

    def subspace():
        vecs = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(0, n))]
        return Subspace.span(vecs, n)

    return [subspace() for _ in range(rng.randint(1, 4))]


class TestIndexLattice:
    def test_round_trip(self):
        lat = IndexLattice([Fraction(0), Fraction(1, 3), Fraction(1, 2)])
        for k in range(-7, 8):
            assert lat.phi_inv(lat.phi(k)) == k

    def test_phi_is_strictly_increasing(self):
        lat = IndexLattice([Fraction(0), Fraction(1, 2)])
        values = [lat.phi(k) for k in range(-4, 5)]
        assert values == sorted(set(values))

    @given(st.sets(st.fractions(min_value=0, max_value=Fraction(5, 6), max_denominator=6), min_size=0, max_size=4))
    def test_round_trip_random_offsets(self, offs):
        lat = IndexLattice(offs | {Fraction(0)})
        for k in range(-10, 11):
            assert lat.phi_inv(lat.phi(k)) == k


class TestFiltration:
    @given(filtrations())
    def test_values_are_increasing_and_exhaustive(self, f):
        jumps = f.jumps()
        assert list(jumps) == sorted(jumps)
        prev = Subspace.zero(f.ambient_dim)
        for x in jumps:
            cur = f.value_at(x)
            assert cur.contains(prev) and cur.dim > prev.dim
            assert f.value_below(x) == prev
            prev = cur
        assert prev.is_full()

    @given(filtrations())
    def test_graded_dims_sum_to_ambient(self, f):
        assert sum(f.graded_dims().values()) == f.ambient_dim

    @given(filtrations(ambient_dim=3))
    def test_value_is_constant_between_jumps(self, f):
        for x in f.jumps():
            assert f.value_at(x + Fraction(1, 97)) == f.value_at(x)

    def test_shift(self):
        f = _two_step(_line(1, 0))
        g = f.shift(Fraction(5, 2))
        assert g.jumps() == tuple(x + Fraction(5, 2) for x in f.jumps())

    def test_shift_moves_the_center_and_keeps_integer_indices(self):
        w = Filtration(2, [(-1, _line(1, 0)), (1, Subspace.full(2))], center=0)
        g = w.shift(3)
        assert g.jumps() == (2, 4) and g.center == 3
        assert all(type(k) is int for k in g.jumps() + (g.center,))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Filtration(2, [(Fraction(0), Subspace.full(2)), (Fraction(1), _line(1, 0))])

    def test_rejects_non_exhaustive(self):
        with pytest.raises(ValueError):
            Filtration(2, [(Fraction(0), _line(1, 0))])

    @given(filtrations(ambient_dim=3), subspaces(ambient_dim=3))
    def test_induced_on_is_a_filtration_of_the_piece(self, f, sub):
        if sub.dim == 0:
            return
        piece = QuotientPresentation(sub, Subspace.zero(3))
        induced = f.induced_on(piece)
        assert induced.ambient_dim == piece.dim
        assert sum(induced.graded_dims().values()) == piece.dim


class TestSubobjectCompatibility:
    @given(subspaces(ambient_dim=3), subspaces(ambient_dim=3))
    def test_any_two_subspaces_are_compatible(self, a, b):
        report = compatible_subobjects([a, b])
        assert report.compatible

    def test_three_distinct_lines_are_not(self):
        report = compatible_subobjects([_line(1, 0), _line(0, 1), _line(1, 1)])
        assert not report.compatible
        point, direction = report.witness
        assert direction in (0, 1, 2)
        assert set(point) <= {-1, 0, 1}

    def test_nested_triples_are_compatible(self):
        a = _line(1, 0)
        b = Subspace.full(2)
        report = compatible_subobjects([a, a, b])
        assert report.compatible

    @given(subspaces(ambient_dim=3), subspaces(ambient_dim=3), subspaces(ambient_dim=3))
    @settings(max_examples=40)
    def test_verdict_is_permutation_invariant(self, a, b, c):
        verdicts = {
            compatible_subobjects([x, y, z]).compatible
            for x, y, z in permutations((a, b, c))
        }
        assert len(verdicts) == 1

    def test_witness_is_lexicographically_first(self):
        subs = [_line(1, 0), _line(0, 1), _line(1, 1)]
        report = compatible_subobjects(subs)
        rows = dict(_reference_rows(_reference_cells(subs, 2), 3))
        assert rows[report.witness] is False
        assert all(exact for row, exact in rows.items() if row < report.witness)

    @given(subs=st.integers(min_value=0, max_value=2**32 - 1).map(_random_family))
    @example(subs=[_line(1, 0), _line(0, 1), _line(1, 1)])
    @example(subs=[_line(1, 0), _line(0, 1), _line(1, 1), _line(1, -1)])
    @settings(max_examples=150, deadline=None)
    def test_dimension_check_matches_induced_matrix_rows(self, subs):
        n = subs[0].ambient_dim
        cells = _reference_cells(subs, n)
        failing = [row for row, exact in _reference_rows(cells, len(subs)) if not exact]
        report = compatible_subobjects(subs)
        assert report.compatible == (not failing)
        assert report.witness == (failing[0] if failing else None)
        assert report.cell_dims == {p: c.dim for p, c in cells.items()}

    def test_reports_share_their_cell_points(self):
        # cached reports of families of one size hold one set of 3^n keys
        one = compatible_subobjects([_line(1, 0), _line(0, 1), _line(1, 1)])
        two = compatible_subobjects([_line(1, 2), _line(0, 1), _line(1, 0)])
        assert list(one.cell_dims) == list(product((-1, 0, 1), repeat=3))
        assert all(p is q for p, q in zip(one.cell_dims, two.cell_dims))


class TestFiltrationCompatibility:
    @given(multifiltrations(max_count=2, max_dim=4))
    @settings(max_examples=50, deadline=None)
    def test_pairs_are_always_compatible(self, mf):
        if len(mf) <= 2:
            assert compatible_filtrations(mf).compatible

    def test_three_lines_fail_with_witness(self):
        report = compatible_filtrations(THREE_LINES)
        assert not report.compatible
        index_tuple, cell, direction = report.witness
        assert len(index_tuple) == 3
        assert set(cell) <= {-1, 0, 1}

    def test_common_flag_triples_are_compatible(self):
        e1, e2 = _line(1, 0), _line(0, 1)
        mf = MultiFiltration([_two_step(e1), _two_step(e1), _two_step(e2)])
        assert compatible_filtrations(mf).compatible


class TestGradedPieces:
    @given(multifiltrations(max_count=2, max_dim=3))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_dims_sum_to_ambient(self, mf):
        total = 0
        for point in mf.jump_lattice():
            total += graded_piece(mf, point).dim
        assert total == mf.ambient_dim

    @given(multifiltrations(max_count=2, max_dim=3))
    @settings(max_examples=30, deadline=None)
    def test_iterated_matches_closed_form_for_pairs(self, mf):
        # pairs are compatible, so every order must agree with the closed form
        for order in permutations(range(len(mf))):
            dims = iterated_graded(mf, order, check=True)
            assert sum(dims.values()) == mf.ambient_dim

    def test_three_lines_mismatch_in_every_order(self):
        for order in permutations(range(3)):
            with pytest.raises(IteratedGradedMismatch):
                iterated_graded(THREE_LINES, order, check=True)

    def test_iterated_dims_depend_on_order_when_incompatible(self):
        first = iterated_graded(THREE_LINES, (0, 1, 2), check=False)
        second = iterated_graded(THREE_LINES, (2, 0, 1), check=False)
        assert {k: v for k, v in first.items() if v} != {k: v for k, v in second.items() if v}

    def test_total_graded_dimension(self):
        assert total_graded_dimension(_two_step(_line(1, 0))) == 2
