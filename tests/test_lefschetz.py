"""Graded bilinear structures, sl(2) completions, and polarization routes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightfilt.exact import GaussianRational, Matrix, Subspace
from weightfilt.fixtures import fixture_Vk, fixture_tensor_jordan
from weightfilt.lefschetz import (
    GradedBilinearStructure,
    GradedSpace,
    RationalHodgeStructure,
    conjugate_subspace,
    grading_is_monodromy,
    hodge_typing_check,
    lefschetz_decomposition_check,
    merge_slots,
    polarization_check,
    primitive_parts,
    sl2_complete,
    weil_w,
)

from references import (
    reference_operator_failure,
    reference_sl2_complete,
    reference_weil_w,
)
from strategies import conjugate_structure, random_unimodular


def _tensor_structure(sizes):
    return fixture_tensor_jordan(sizes).structure()


_tensor_sizes = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2)


@st.composite
def _moved_tensor_data(draw, sizes=_tensor_sizes):
    """A tensor fixture's space, operators and pairing, moved by a random
    unimodular change of basis (the identity when it draws no shears)."""
    fx = fixture_tensor_jordan(draw(sizes))
    g = random_unimodular(random.Random(draw(st.integers(0, 2**32))), fx.dim, rounds=draw(st.integers(0, 4)))
    return conjugate_structure(fx.graded_space(), fx.operators(), fx.pairing(), g)


class TestGradedSpace:
    def test_components_partition_the_space(self):
        sp = fixture_tensor_jordan((2, 3)).graded_space()
        assert sum(sp.dims().values()) == sp.ambient_dim

    def test_change_of_basis_is_invertible(self):
        sp = fixture_tensor_jordan((2, 2)).graded_space()
        b = sp.change_of_basis()
        assert b.rank() == sp.ambient_dim

    def test_grading_operator_eigenvalues(self):
        fx = fixture_Vk(2)
        sp = fx.graded_space()
        h = sp.grading_operator(0)
        assert h == fx.grading

    def test_rejects_overlapping_components(self):
        line = Subspace.span([(1, 0)], 2)
        with pytest.raises(ValueError):
            GradedSpace(2, {(0,): line, (2,): line})

    def test_rejects_wrong_total_dimension(self):
        with pytest.raises(ValueError):
            GradedSpace(2, {(0,): Subspace.span([(1, 0)], 2)})


class TestStructureValidation:
    def test_accepts_the_fixture(self):
        _tensor_structure((2, 2))  # constructor validates

    def test_rejects_raising_operator(self):
        fx = fixture_Vk(1)
        with pytest.raises(ValueError):
            GradedBilinearStructure(fx.graded_space(), [fx.raising], fx.pairing)

    def test_rejects_degenerate_pairing(self):
        fx = fixture_Vk(1)
        with pytest.raises(ValueError):
            GradedBilinearStructure(fx.graded_space(), [fx.lowering], Matrix.zero(2, 2))

    def test_rejects_non_nilpotent_operator(self):
        fx = fixture_Vk(1)
        with pytest.raises(ValueError):
            GradedBilinearStructure(fx.graded_space(), [Matrix.identity(2)], fx.pairing)


def _reference_grading_failure(space, pairing, center):
    """The grading test `GradedBilinearStructure` ran before it applied the
    pairing once per basis vector: one ``pairing.apply`` per pair tested."""
    degs = space.multidegrees()
    for ka in degs:
        for kb in degs:
            if tuple(a + b for a, b in zip(ka, kb)) == tuple(2 * x for x in center):
                continue
            for u in space.components[ka].basis:
                for v in space.components[kb].basis:
                    if sum((x * y for x, y in zip(u, pairing.apply(v)) if x and y), Fraction(0)):
                        return f"pairing does not respect the grading: {ka} meets {kb}"
    return None


class TestPairingGrading:
    @given(moved=_moved_tensor_data(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_failure_matches_reference(self, moved, data):
        space, ops, pairing = moved
        n = pairing.rows
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
        grid = [list(row) for row in pairing.entries]
        for i, j, x in data.draw(st.lists(cells, max_size=3)):
            grid[i][j] += x
        perturbed = Matrix(grid)
        if perturbed.rank() != n:
            return
        expected = _reference_grading_failure(space, perturbed, (0,) * space.nslots)
        if expected is None:
            GradedBilinearStructure(space, ops, perturbed)
        else:
            with pytest.raises(ValueError) as info:
                GradedBilinearStructure(space, ops, perturbed)
            assert str(info.value) == expected


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the `ValueError` it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestAdaptedFrame:
    """The frame code against the ambient references it replaced."""

    @given(moved=_moved_tensor_data(), merge=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_triples_and_weil_element_match_reference(self, moved, merge):
        structure = GradedBilinearStructure(*moved)
        if merge and structure.nslots == 2:
            structure = merge_slots(structure, 0, 1)
        assert weil_w(structure) == reference_weil_w(structure)
        for slot in range(structure.nslots):
            got, want = sl2_complete(structure, slot), reference_sl2_complete(structure, slot)
            assert (got.raise_op, got.lower_op, got.grading_op) == (want.raise_op, want.lower_op, want.grading_op)

    @given(
        moved=_moved_tensor_data(sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=2)),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_degree_two_operator_matches_reference(self, moved, data):
        # a random operator of degree -2 on the merged grading: nilpotent and
        # graded, but its weight grading need not be the given one, so the
        # sl2 solve may fail; it must fail with the reference's message
        pairing = moved[2]
        space = merge_slots(GradedBilinearStructure(*moved), 0, 1).space
        b = Matrix.from_columns([v for _, v in space.adapted_basis()], space.ambient_dim)
        degrees = [k for k, _ in space.adapted_basis()]
        n = len(degrees)
        entry = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2)))
        y_ad = Matrix(
            [[data.draw(entry) if degrees[r][0] == degrees[c][0] - 2 else 0 for c in range(n)] for r in range(n)]
        )
        structure = GradedBilinearStructure(space, [b * y_ad * b.inverse()], pairing)
        got = _outcome(sl2_complete, structure, 0)
        want = _outcome(reference_sl2_complete, structure, 0)
        if isinstance(want, str):
            assert got == want
            assert _outcome(weil_w, structure) == want
        else:
            assert (got.raise_op, got.grading_op) == (want.raise_op, want.grading_op)
            assert weil_w(structure) == reference_weil_w(structure)

    @given(
        sizes=_tensor_sizes,
        seed=st.integers(0, 2**32),
        rounds=st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_perturbed_operator_fails_like_reference(self, sizes, seed, rounds, data):
        # single entries changed in the fixture's coordinates, then moved;
        # entries above the diagonal keep the operator nilpotent, and
        # several of them can make several components fail
        fx = fixture_tensor_jordan(sizes)
        ops = fx.operators()
        i = data.draw(st.integers(0, len(ops) - 1))
        grid = [list(row) for row in ops[i].entries]
        cells = st.tuples(st.integers(0, fx.dim - 1), st.integers(0, fx.dim - 1), st.sampled_from((-2, -1, 1, Fraction(1, 2))))
        for r, c, x in data.draw(st.lists(cells, min_size=1, max_size=3)):
            grid[r][c] += x
        ops[i] = Matrix(grid)
        g = random_unimodular(random.Random(seed), fx.dim, rounds=rounds)
        space, ops, pairing = conjugate_structure(fx.graded_space(), ops, fx.pairing(), g)
        # the checks visit the components in the order they were given
        space = GradedSpace(space.ambient_dim, dict(data.draw(st.permutations(list(space.components.items())))))
        expected = reference_operator_failure(space, ops)
        got = _outcome(GradedBilinearStructure, space, ops, pairing)
        if expected is None:
            assert isinstance(got, GradedBilinearStructure) or "lower slot degree" not in got
        else:
            assert got == expected


class TestSl2Completion:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_vk_completion_recovers_the_raising_formula(self, k):
        # for an irreducible string the completion is unique, so it must
        # reproduce X v_l = (k - l)(l + 1) v_{l+1} on the nose
        fx = fixture_Vk(k)
        action = sl2_complete(fx.structure(), 0)
        assert action.raise_op == fx.raising
        assert action.lower_op == fx.lowering
        assert action.grading_op == fx.grading

    def test_bracket_relations_on_tensor_fixture(self):
        st = _tensor_structure((2, 3))
        for slot in (0, 1):
            a = sl2_complete(st, slot)
            x, y, h = a.raise_op, a.lower_op, a.grading_op
            assert x * y - y * x == h
            assert h * x - x * h == 2 * x
            assert h * y - y * h == -2 * y

    def test_flat_grading_rejects_a_genuine_lowering_operator(self):
        # grade a 2-dim space entirely in degree 0: J_2 cannot shift it by -2
        sp = GradedSpace(2, {(0,): Subspace.full(2)})
        n = Matrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            GradedBilinearStructure(sp, [n], Matrix.identity(2))
        # and the flat grading is not the one the operator induces
        assert not grading_is_monodromy(sp, [n])


class TestWeilElement:
    def test_reverses_the_grading(self):
        st = _tensor_structure((2, 2))
        w = weil_w(st)
        for deg in st.space.multidegrees():
            comp = st.space.component(deg)
            target = st.space.component(tuple(-d for d in deg))
            assert comp.image_under(w) == target

    def test_slot_weil_elements_commute(self):
        st = _tensor_structure((2, 3))
        w1 = sl2_complete(st, 0).weil_element()
        w2 = sl2_complete(st, 1).weil_element()
        assert w1 * w2 == w2 * w1


class TestPrimitiveDecomposition:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_vk_has_one_primitive_line_at_the_top(self, k):
        fx = fixture_Vk(k)
        prim = primitive_parts(fx.structure())
        assert {deg: s.dim for deg, s in prim.items() if s.dim} == {(k,): 1}

    @pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (2, 3), (3, 3)])
    def test_decomposition_dims(self, sizes):
        assert lefschetz_decomposition_check(_tensor_structure(sizes))

    def test_grading_is_monodromy_on_fixtures(self):
        st = _tensor_structure((2, 3))
        assert grading_is_monodromy(st.space, st.operators)

    def test_grading_is_monodromy_rejects_shifted_grading(self):
        fx = fixture_Vk(1)
        shifted = GradedSpace(
            2,
            {
                (0,): Subspace.span([fx.basis_vector(0)], 2),
                (2,): Subspace.span([fx.basis_vector(1)], 2),
            },
        )
        assert not grading_is_monodromy(shifted, [fx.lowering])


class TestPolarization:
    @pytest.mark.parametrize("sizes", [(2,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2)])
    def test_fixtures_polarized_by_both_routes(self, sizes):
        rep = polarization_check(_tensor_structure(sizes))
        assert rep.polarized
        assert rep.primitive_route and rep.weil_route
        assert rep.failure is None

    def test_vk_symmetric_pairing_fails_isotropy(self):
        rep = polarization_check(fixture_Vk(1).structure())
        assert not rep.polarized
        assert rep.failure == ("isotropy", 0)

    def test_negated_pairing_fails_both_routes(self):
        st = _tensor_structure((2, 2))
        negated = GradedBilinearStructure(st.space, list(st.operators), st.pairing * Fraction(-1))
        rep = polarization_check(negated)
        assert not rep.primitive_route and not rep.weil_route

    def test_scaled_pairing_stays_polarized(self):
        st = _tensor_structure((2, 3))
        scaled = GradedBilinearStructure(st.space, list(st.operators), st.pairing * Fraction(7, 3))
        assert polarization_check(scaled).polarized

    def test_degree_preserving_rescaling_keeps_the_verdict(self):
        st = _tensor_structure((2, 2))
        # components are coordinate lines, so any positive diagonal is a
        # degree-preserving change of basis
        scales = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5)]
        g = Matrix([[scales[i] if i == j else Fraction(0) for j in range(4)] for i in range(4)])
        gi = g.inverse()
        ops = [g * n * gi for n in st.operators]
        pairing = gi.transpose() * st.pairing * gi
        moved = GradedBilinearStructure(st.space, ops, pairing)
        assert polarization_check(moved).polarized


class TestMergeSlots:
    @pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_merge_preserves_polarization_and_grading(self, sizes):
        st = _tensor_structure(sizes)
        merged = merge_slots(st, 0, 1)
        assert merged.nslots == 1
        assert grading_is_monodromy(merged.space, merged.operators)
        assert polarization_check(merged).polarized

    def test_merge_adds_degrees(self):
        st = _tensor_structure((2, 2))
        merged = merge_slots(st, 0, 1)
        assert sorted(merged.space.dims().items()) == [((-2,), 1), ((0,), 2), ((2,), 1)]

    def test_triple_merge_collapses_to_one_slot(self):
        st = _tensor_structure((2, 2, 2))
        once = merge_slots(st, 0, 1)
        twice = merge_slots(once, 0, 1)
        assert twice.nslots == 1
        assert polarization_check(twice).polarized


class TestHodgeStructures:
    def test_conjugation_swaps_components(self):
        one, i = GaussianRational(1, 0), GaussianRational(0, 1)
        hpq = Subspace.span([(one, i)], 2)
        assert conjugate_subspace(hpq) == Subspace.span([(one, -i)], 2)

    def test_weight_constraint_enforced(self):
        line = Subspace.span([(Fraction(1),)], 1)
        with pytest.raises(ValueError):
            RationalHodgeStructure(3, {(1, 1): line})

    def test_lowering_shifts_vk_types_down_by_one(self):
        # v_l carries type (l, l) and the lowering operator sends it to
        # the (l-1, l-1) line, never anywhere else
        fx = fixture_Vk(3)
        comps = {
            (ell, ell): Subspace.span([fx.basis_vector(ell)], fx.dim) for ell in range(fx.dim)
        }
        for ell in range(1, fx.dim):
            src = comps[(ell, ell)]
            tgt = comps[(ell - 1, ell - 1)]
            assert tgt.contains(src.image_under(fx.lowering))

    def test_hodge_typing_check_detects_violation(self):
        one, i = GaussianRational(1, 0), GaussianRational(0, 1)
        hs = RationalHodgeStructure(
            1,
            {(1, 0): Subspace.span([(one, i)], 2), (0, 1): Subspace.span([(one, -i)], 2)},
        )
        # the identity does not lower type
        assert not hodge_typing_check(hs, Matrix.identity(2))
        assert hodge_typing_check(hs, Matrix.zero(2, 2))
