"""Logarithmic extensions of monodromic modules and the comparison map."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightfilt.exact import Matrix, Subspace, image_of
from weightfilt.fixtures import fixture_tensor_jordan
from weightfilt.monodromy import NilpotentOperator
from weightfilt.nearby import (
    DoubleComplexModel,
    MonodromicModule,
    NilssonExtension,
    NilssonFactor,
    nils_iso_check,
    nils_map,
    two_path_compare,
)

from strategies import block_diagonal, nilpotent_matrices, random_nilpotent, random_unimodular

HALF = Fraction(-1, 2)
THIRD = Fraction(-1, 3)

J2 = Matrix([[0, 0], [1, 0]])
J3 = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def _pair_module(sizes=(2, 3), seed=None):
    """Two commuting operators from a tensor fixture, optionally conjugated."""
    fx = fixture_tensor_jordan(sizes)
    ops = [fx.operator(i) for i in range(len(sizes))]
    if seed is not None:
        g = random_unimodular(random.Random(seed), fx.dim)
        gi = g.inverse()
        ops = [g * n * gi for n in ops]
    return MonodromicModule([HALF, THIRD], ops)


class TestMonodromicModule:
    def test_records_dimensions(self):
        m = MonodromicModule([HALF], [J3])
        assert (m.dim, m.nvars) == (3, 1)
        assert m.nil_orders() == (2,)

    def test_rejects_support_outside_the_window(self):
        with pytest.raises(ValueError):
            MonodromicModule([Fraction(0)], [J2])
        with pytest.raises(ValueError):
            MonodromicModule([Fraction(-3, 2)], [J2])

    def test_rejects_non_commuting_operators(self):
        a = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        b = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert not (a * b - b * a).is_zero()
        with pytest.raises(ValueError):
            MonodromicModule([HALF, THIRD], [a, b])

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            MonodromicModule([HALF], [Matrix.identity(2)])


class TestNilssonFactor:
    def test_euler_is_eigenvalue_plus_lowering(self):
        f = NilssonFactor(THIRD, 2)
        expected = f.eigenvalue * Matrix.identity(3) - f.lowering_matrix()
        assert f.euler_matrix() == expected

    @given(
        num=st.integers(min_value=-6, max_value=-1),
        den=st.integers(min_value=6, max_value=9),
        order=st.integers(min_value=0, max_value=4),
    )
    def test_eigenvalue_and_dim(self, num, den, order):
        shift = Fraction(num, den)
        f = NilssonFactor(shift, order)
        assert f.eigenvalue == -(1 + shift)
        assert f.dim == order + 1
        assert f.euler_matrix().rows == f.dim

    def test_lowering_is_nilpotent_of_full_order(self):
        f = NilssonFactor(HALF, 3)
        assert NilpotentOperator(f.lowering_matrix()).nil_order == 3

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError):
            NilssonFactor(Fraction(1, 2), 1)


class TestNilssonExtension:
    def test_dimension_is_the_product_formula(self):
        mod = _pair_module((2, 3))
        ext = NilssonExtension(mod, [2, 1])
        assert ext.dim == mod.dim * 3 * 2

    def test_exponents_cover_the_box(self):
        ext = NilssonExtension(_pair_module((2, 2)), [1, 2])
        assert sorted(ext.exponents()) == [
            (a, b) for a in range(2) for b in range(3)
        ]

    def test_offsets_are_distinct_blocks(self):
        ext = NilssonExtension(_pair_module((2, 2)), [1, 1])
        offs = sorted(ext.offset(e) for e in ext.exponents())
        assert offs == [i * 4 for i in range(4)]

    def test_connection_operators_commute(self):
        ext = NilssonExtension(_pair_module((2, 3), seed=5), [1, 2])
        a0 = ext.connection_operator(0)
        a1 = ext.connection_operator(1)
        assert a0.commutes_with(a1)

    def test_connection_operator_action_on_a_tensor(self):
        # A(m ⊗ e_1) = (N m) ⊗ e_1 - m ⊗ e_0, checked entry by entry
        mod = MonodromicModule([HALF], [J2])
        ext = NilssonExtension(mod, [1])
        a = ext.connection_operator(0)
        # basis vector m = first module vector at exponent (1,)
        vec = [Fraction(0)] * ext.dim
        vec[ext.offset((1,))] = Fraction(1)
        out = a.apply(tuple(vec))
        expected = [Fraction(0)] * ext.dim
        expected[ext.offset((1,)) + 1] = Fraction(1)  # N m = second basis vector
        expected[ext.offset((0,))] = Fraction(-1)  # minus the lowered factor
        assert list(out) == expected

    def test_rejects_mismatched_order_count(self):
        with pytest.raises(ValueError):
            NilssonExtension(_pair_module((2, 2)), [1])


class TestComparisonMap:
    def test_always_injective(self):
        # the exponent-zero block of the map is the identity
        mod = _pair_module((2, 3), seed=11)
        for orders in ([0, 0], [1, 1], [1, 2], [2, 2]):
            assert nils_map(NilssonExtension(mod, orders)).rank() == mod.dim

    def test_iso_exactly_at_the_nil_orders(self):
        mod = _pair_module((2, 3))
        assert mod.nil_orders() == (1, 2)
        rep = nils_iso_check(mod, [1, 2])
        assert rep.isomorphism and rep.contained and rep.injective and rep.surjective
        assert rep.image_dim == rep.kernel_dim == mod.dim

    @pytest.mark.parametrize("orders", [[0, 2], [1, 1], [0, 0]])
    def test_containment_fails_below_the_nil_orders(self, orders):
        rep = nils_iso_check(_pair_module((2, 3)), orders)
        assert not rep.contained
        assert not rep.isomorphism

    def test_overshooting_the_orders_keeps_containment(self):
        # larger boxes keep the image inside the kernel but not onto it
        mod = _pair_module((2, 2))
        rep = nils_iso_check(mod, [3, 2])
        assert rep.contained and rep.injective

    @given(n=nilpotent_matrices(max_dim=5), extra=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_one_variable_containment_iff_order_reaches(self, n, extra):
        mod = MonodromicModule([HALF], [n])
        (k,) = mod.nil_orders()
        assert nils_iso_check(mod, [k + extra]).contained
        if k > 0:
            assert not nils_iso_check(mod, [k - 1]).contained

    def test_one_variable_iso_on_a_block_sum(self):
        rng = random.Random(23)
        n = block_diagonal([random_nilpotent(rng, 3), random_nilpotent(rng, 2)])
        mod = MonodromicModule([THIRD], [n])
        (k,) = mod.nil_orders()
        assert nils_iso_check(mod, [k]).isomorphism

    def test_image_is_the_joint_kernel_at_nil_orders(self):
        mod = _pair_module((2, 2), seed=3)
        ext = NilssonExtension(mod, list(mod.nil_orders()))
        assert image_of(nils_map(ext)) == ext.joint_kernel()


class TestTwoPath:
    def test_orders_agree_and_land_in_the_kernel(self):
        mod = _pair_module((2, 3), seed=7)
        rep = two_path_compare(mod, list(mod.nil_orders()))
        assert rep.equal
        assert rep.inside_kernel
        assert rep.image_dim == mod.dim

    def test_requires_two_variables(self):
        with pytest.raises(ValueError):
            two_path_compare(MonodromicModule([HALF], [J2]), [1])

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_two_path_equal_on_commuting_powers(self, data):
        # N and N^2 always commute, giving a cheap two-variable family
        n = data.draw(nilpotent_matrices(max_dim=5))
        mod = MonodromicModule([HALF, THIRD], [n, n * n])
        rep = two_path_compare(mod, list(mod.nil_orders()))
        assert rep.equal and rep.inside_kernel


class TestDoubleComplex:
    def test_corner_and_total_square(self):
        mod = _pair_module((2, 2), seed=1)
        model = DoubleComplexModel(mod, [1, 1])
        assert model.corner_dim == 16
        d2, d1 = model.total_differentials()
        assert (d1 * d2).is_zero()
        assert d2.rows == 2 * model.corner_dim and d1.cols == 2 * model.corner_dim

    def test_top_cohomology_is_the_joint_kernel(self):
        mod = _pair_module((2, 3), seed=9)
        model = DoubleComplexModel(mod, list(mod.nil_orders()))
        assert model.h_minus2() == model.extension.joint_kernel()
        assert model.h_minus2().dim == mod.dim

    def test_doctest_module_with_a_zero_operator(self):
        z = Matrix.zero(2, 2)
        mod = MonodromicModule([HALF, Fraction(-2, 3)], [J2, z])
        model = DoubleComplexModel(mod, [1, 0])
        assert model.h_minus2().dim == 2

    def test_requires_two_variables(self):
        with pytest.raises(ValueError):
            DoubleComplexModel(MonodromicModule([HALF], [J2]), [1])
