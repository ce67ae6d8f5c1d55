"""Graded bilinear structures, sl(2) completions, and polarization routes."""

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

def _tensor_structure(sizes):
    return fixture_tensor_jordan(sizes).structure()


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
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_first_failure_matches_reference(self, sizes, data):
        fx = fixture_tensor_jordan(sizes)
        space, pairing = fx.graded_space(), fx.pairing()
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
            GradedBilinearStructure(space, fx.operators(), perturbed)
        else:
            with pytest.raises(ValueError) as info:
                GradedBilinearStructure(space, fx.operators(), perturbed)
            assert str(info.value) == expected


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
