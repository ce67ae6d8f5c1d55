"""Finite-dimensional models for nearby-cycle comparison maps.

A monodromic module here is a vector space carrying one commuting nilpotent
operator per variable, supported at a tuple of rational shifts in [-1, 0)
(one per variable); localizing along the divisor is then the identity on the
relevant graded pieces, which is why no localization appears explicitly.

Tensoring with a logarithmic factor adjoins, for each variable, a basis
``e_0, ..., e_k`` on which the Euler operator acts by the shift eigenvalue
plus a lowering step; the induced connection-style operators on the tensor
product are ``A_i(m ⊗ e) = (N_i m) ⊗ e - m ⊗ (e lowered in slot i)``.

The comparison map sends ``m`` to the sum over the exponent box of
``(N^l m) ⊗ e_l``.  Its image lies in the joint kernel of the A_i exactly
when each truncation order reaches the operator's largest nonvanishing
power, and in that case the map is an isomorphism onto the joint kernel —
the finite-dimensional shadow of the nearby-cycle comparison.  All of this
is checked matrix-by-matrix, never assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from operator import mul
from typing import Callable, List, Sequence, Tuple

from .exact import Immutable, Matrix, Subspace, intersection_of, kernel_of, image_of
from .monodromy import NilpotentOperator, require_commuting


class MonodromicModule(Immutable):
    """Commuting nilpotent operators supported at rational shifts in [-1, 0).

    ``nilpotents`` keeps the certified `NilpotentOperator` of each variable,
    so its powers are computed once.

    >>> n = Matrix.from_rows([[0, 0], [1, 0]])
    >>> m = MonodromicModule([Fraction(-1, 2)], [n])
    >>> m.dim, m.nvars
    (2, 1)
    """

    __slots__ = ("supports", "operators", "nilpotents", "dim", "nvars")

    def __init__(self, supports: Sequence[Fraction], operators: Sequence[Matrix]) -> None:
        sups = tuple(Fraction(a) for a in supports)
        ops = tuple(operators)
        if len(sups) != len(ops):
            raise ValueError("need one support value per operator")
        if not ops:
            raise ValueError("need at least one operator")
        for a in sups:
            if not (-1 <= a < 0):
                raise ValueError("supports must lie in [-1, 0)")
        d = ops[0].rows
        nilpotents = []
        for op in ops:
            if (op.rows, op.cols) != (d, d):
                raise ValueError("operators must be square and equal-sized")
            nilpotents.append(NilpotentOperator(op))  # raises if not nilpotent
        require_commuting(ops)
        object.__setattr__(self, "supports", sups)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "nilpotents", tuple(nilpotents))
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "nvars", len(ops))

    def nil_orders(self) -> Tuple[int, ...]:
        return tuple(n.nil_order for n in self.nilpotents)

    def __repr__(self) -> str:
        return f"MonodromicModule(dim={self.dim}, supports={[str(a) for a in self.supports]})"


class NilssonFactor(Immutable):
    """A logarithmic factor: basis ``e_0 .. e_k`` at a shift in [-1, 0).

    The Euler operator acts by ``e_l -> -(1 + shift) e_l - e_{l-1}``
    (with ``e_{-1} = 0``), i.e. eigenvalue ``-(1 + shift)`` plus a
    nilpotent lowering step.

    >>> f = NilssonFactor(Fraction(-1, 3), 1)
    >>> f.eigenvalue
    Fraction(-2, 3)
    >>> f.euler_matrix().apply((0, 1))  # action on e_1
    (Fraction(-1, 1), Fraction(-2, 3))
    """

    __slots__ = ("shift", "order")

    def __init__(self, shift: Fraction, order: int) -> None:
        s = Fraction(shift)
        if not (-1 <= s < 0):
            raise ValueError("shift must lie in [-1, 0)")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        object.__setattr__(self, "shift", s)
        object.__setattr__(self, "order", int(order))

    @property
    def dim(self) -> int:
        return self.order + 1

    @property
    def eigenvalue(self) -> Fraction:
        return -(1 + self.shift)

    def lowering_matrix(self) -> Matrix:
        n = self.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for ell in range(1, n):
            rows[ell - 1][ell] = Fraction(1)
        return Matrix(rows, n, n)

    def euler_matrix(self) -> Matrix:
        return self.eigenvalue * Matrix.identity(self.dim) - self.lowering_matrix()

    def __repr__(self) -> str:
        return f"NilssonFactor(shift={self.shift}, order={self.order})"


class NilssonExtension(Immutable):
    """The tensor of a monodromic module with one factor per variable.

    Basis order: exponent tuples enumerate lexicographically over the box,
    and each exponent block carries a copy of the module's basis.
    """

    __slots__ = ("module", "orders", "dim", "_exponents", "_offsets")

    def __init__(self, module: MonodromicModule, orders: Sequence[int]) -> None:
        ks = tuple(int(k) for k in orders)
        if len(ks) != module.nvars:
            raise ValueError("need one truncation order per variable")
        if any(k < 0 for k in ks):
            raise ValueError("truncation orders must be nonnegative")
        exponents = list(iproduct(*(range(k + 1) for k in ks)))
        offsets = {e: i * module.dim for i, e in enumerate(exponents)}
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "orders", ks)
        object.__setattr__(self, "dim", module.dim * len(exponents))
        object.__setattr__(self, "_exponents", exponents)
        object.__setattr__(self, "_offsets", offsets)

    def exponents(self) -> List[Tuple[int, ...]]:
        return list(self._exponents)

    def offset(self, exponent: Tuple[int, ...]) -> int:
        return self._offsets[exponent]

    def connection_operator(self, i: int) -> Matrix:
        """``A_i(m ⊗ e) = (N_i m) ⊗ e - m ⊗ (e lowered in slot i)``."""
        d = self.module.dim
        n = self.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        ni = self.module.operators[i]
        for e in self._exponents:
            off = self._offsets[e]
            for b in range(d):
                col = off + b
                for a in range(d):
                    v = ni.entries[a][b]
                    if v:
                        rows[off + a][col] = rows[off + a][col] + v
                if e[i] > 0:
                    low = e[:i] + (e[i] - 1,) + e[i + 1 :]
                    rows[self._offsets[low] + b][col] -= 1
        return Matrix(rows, n, n)

    def joint_kernel(self) -> Subspace:
        kernels = [kernel_of(self.connection_operator(i)) for i in range(self.module.nvars)]
        return intersection_of(kernels, self.dim)

    def __repr__(self) -> str:
        return f"NilssonExtension(dim={self.dim}, orders={self.orders})"


def _comparison_map(ext: NilssonExtension, power_at: Callable[[Tuple[int, ...]], Matrix]) -> Matrix:
    """The map ``m -> sum over the box of (power_at(l) m) ⊗ e_l``.

    Each exponent owns its own block of rows, so the map stacks the powers.
    """
    rows = [row for e in ext.exponents() for row in power_at(e).entries]
    return Matrix(rows, ext.dim, ext.module.dim)


def nils_map(ext: NilssonExtension) -> Matrix:
    """The comparison map ``m -> sum over the box of (N^l m) ⊗ e_l``.

    >>> n = Matrix.from_rows([[0, 0], [1, 0]])
    >>> mod = MonodromicModule([Fraction(-1, 2)], [n])
    >>> nils_map(NilssonExtension(mod, [1])).rank()
    2
    """
    nils = ext.module.nilpotents
    return _comparison_map(
        ext, lambda e: reduce(mul, (nil.power(k) for nil, k in zip(nils, e)))
    )


class NilsIsoReport(Immutable):
    """Outcome of the comparison-map isomorphism check."""

    __slots__ = ("contained", "injective", "surjective", "isomorphism", "kernel_dim", "image_dim")

    def __init__(self, contained: bool, injective: bool, surjective: bool, kernel_dim: int, image_dim: int) -> None:
        object.__setattr__(self, "contained", contained)
        object.__setattr__(self, "injective", injective)
        object.__setattr__(self, "surjective", surjective)
        object.__setattr__(self, "isomorphism", contained and injective and surjective)
        object.__setattr__(self, "kernel_dim", kernel_dim)
        object.__setattr__(self, "image_dim", image_dim)

    def __bool__(self) -> bool:
        return self.isomorphism

    def __repr__(self) -> str:
        return (
            f"NilsIsoReport(iso={self.isomorphism}, contained={self.contained}, "
            f"injective={self.injective}, surjective={self.surjective})"
        )


def nils_iso_check(module: MonodromicModule, orders: Sequence[int]) -> NilsIsoReport:
    """Is the comparison map an isomorphism onto the joint kernel?

    All three ingredients are computed independently: containment of the
    image in the joint kernel, injectivity, and surjectivity onto the
    kernel.  With truncation orders at each operator's largest nonzero
    power the verdict is positive; one notch lower, containment breaks.

    >>> n = Matrix.from_rows([[0, 0], [1, 0]])
    >>> mod = MonodromicModule([Fraction(-1, 2)], [n])
    >>> nils_iso_check(mod, [1]).isomorphism
    True
    >>> nils_iso_check(mod, [0]).contained
    False
    """
    ext = NilssonExtension(module, orders)
    comp = nils_map(ext)
    contained = all(
        (ext.connection_operator(i) * comp).is_zero() for i in range(module.nvars)
    )
    injective = comp.rank() == module.dim
    img = image_of(comp)
    ker = ext.joint_kernel()
    surjective = contained and img == ker
    return NilsIsoReport(contained, injective, surjective, ker.dim, img.dim)


class TwoPathReport(Immutable):
    """Comparison of the two iteration orders of the one-variable map."""

    __slots__ = ("equal", "image_dim", "inside_kernel")

    def __init__(self, equal: bool, image_dim: int, inside_kernel: bool) -> None:
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "image_dim", image_dim)
        object.__setattr__(self, "inside_kernel", inside_kernel)

    def __bool__(self) -> bool:
        return self.equal

    def __repr__(self) -> str:
        return f"TwoPathReport(equal={self.equal}, image_dim={self.image_dim})"


def two_path_compare(module: MonodromicModule, orders: Sequence[int]) -> TwoPathReport:
    """Iterate the one-variable comparison in both variable orders (p = 2).

    The two composites land in tensor products with differently ordered
    factors; after the canonical reindexing permutation they must agree as
    matrices, and their common image must lie in the joint kernel.
    """
    if module.nvars != 2:
        raise ValueError("the two-path comparison is defined for two variables")
    ks = tuple(int(k) for k in orders)
    ext = NilssonExtension(module, ks)
    n0, n1 = module.nilpotents
    p0 = [n0.power(t) for t in range(ks[0] + 1)]
    p1 = [n1.power(t) for t in range(ks[1] + 1)]
    first = _comparison_map(ext, lambda e: p1[e[1]] * p0[e[0]])
    second = _comparison_map(ext, lambda e: p0[e[0]] * p1[e[1]])
    equal = first == second
    img = image_of(first)
    ker = ext.joint_kernel()
    return TwoPathReport(equal, img.dim, ker.contains(img))


class DoubleComplexModel(Immutable):
    """The two-variable double complex built from a tensor extension.

    All four corners carry the extension space; horizontals are the first
    connection operator and verticals the second.  The totalization (with
    the usual sign) has square zero because the operators commute, and the
    top-corner cohomology is their joint kernel.

    >>> n = Matrix.from_rows([[0, 0], [1, 0]])
    >>> z = Matrix.zero(2, 2)
    >>> mod = MonodromicModule([Fraction(-1, 2), Fraction(-2, 3)], [n, z])
    >>> model = DoubleComplexModel(mod, [1, 0])
    >>> model.corner_dim
    4
    >>> model.h_minus2().dim
    2
    """

    __slots__ = ("extension", "a1", "a2")

    def __init__(self, module: MonodromicModule, orders: Sequence[int]) -> None:
        if module.nvars != 2:
            raise ValueError("the double complex model needs exactly two variables")
        ext = NilssonExtension(module, orders)
        a1 = ext.connection_operator(0)
        a2 = ext.connection_operator(1)
        if not a1.commutes_with(a2):
            raise AssertionError("connection operators must commute")
        object.__setattr__(self, "extension", ext)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def corner_dim(self) -> int:
        return self.extension.dim

    def total_differentials(self) -> Tuple[Matrix, Matrix]:
        """d(-2): v -> (A1 v, -A2 v) and d(-1): (x, y) -> A2 x + A1 y."""
        n = self.extension.dim
        top = [[Fraction(0)] * n for _ in range(2 * n)]
        for a in range(n):
            for bcol in range(n):
                if self.a1.entries[a][bcol]:
                    top[a][bcol] = self.a1.entries[a][bcol]
                if self.a2.entries[a][bcol]:
                    top[n + a][bcol] = -self.a2.entries[a][bcol]
        d2 = Matrix(top, 2 * n, n)
        bottom = [[Fraction(0)] * (2 * n) for _ in range(n)]
        for a in range(n):
            for bcol in range(n):
                if self.a2.entries[a][bcol]:
                    bottom[a][bcol] = self.a2.entries[a][bcol]
                if self.a1.entries[a][bcol]:
                    bottom[a][n + bcol] = self.a1.entries[a][bcol]
        d1 = Matrix(bottom, n, 2 * n)
        if not (d1 * d2).is_zero():
            raise AssertionError("total differential does not square to zero")
        return d2, d1

    def h_minus2(self) -> Subspace:
        d2, _ = self.total_differentials()
        return kernel_of(d2)

    def __repr__(self) -> str:
        return f"DoubleComplexModel(corner_dim={self.corner_dim})"
