"""Increasing filtrations, multifiltrations, and the compatibility test.

A filtration here is an increasing, exhaustive family of subspaces of a fixed
ambient space, indexed by rational numbers and constant between finitely many
jumps.  A family of filtrations (a multifiltration) is *compatible* when, for
every tuple of index values, the lattice generated by the selected subspaces
behaves additively; operationally we test exactness of every three-term row
of a hypercomplex of subquotients attached to each tuple of values, which is
the condition actually used downstream (induced gradings commute, Rees-type
modules are flat, and so on).

Each row ``A/A' -> B/B' -> B/(B'+A)`` is decided by dimension additivity
alone.  Its second map is onto with kernel ``(A+B')/B'``, the image of the
first, so the row is exact iff the first map is injective, iff
``dim B/B' == dim A/A' + dim B/(B'+A)``.  A failure comes with the lattice
point and direction at which exactness breaks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import floor
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exact import (
    Immutable,
    QuotientPresentation,
    Subspace,
    intersection_of,
    sum_of,
)


class IndexLattice(Immutable):
    """The index set ``S + Z`` for a finite set ``S`` of fractional offsets.

    ``S`` always contains 0, and the order-preserving enumeration ``phi``
    is normalized by ``phi(0) == 0``.

    >>> lat = IndexLattice([Fraction(0), Fraction(1, 2)])
    >>> [str(lat.phi(k)) for k in range(-2, 3)]
    ['-1', '-1/2', '0', '1/2', '1']
    >>> lat.phi_inv(Fraction(3, 2))
    3
    """

    __slots__ = ("fracs",)

    def __init__(self, fracs: Iterable[Fraction]) -> None:
        fs = sorted(set(Fraction(f) for f in fracs) | {Fraction(0)})
        for f in fs:
            if not 0 <= f < 1:
                raise ValueError("fractional offsets must lie in [0, 1)")
        object.__setattr__(self, "fracs", tuple(fs))

    def __len__(self) -> int:
        return len(self.fracs)

    def phi(self, k: int) -> Fraction:
        q, r = divmod(k, len(self.fracs))
        return q + self.fracs[r]

    def phi_inv(self, x: Fraction) -> int:
        x = Fraction(x)
        q = floor(x)
        frac = x - q
        try:
            r = self.fracs.index(frac)
        except ValueError:
            raise ValueError(f"{x} is not in the index lattice") from None
        return q * len(self.fracs) + r

    def succ(self, x: Fraction) -> Fraction:
        return self.phi(self.phi_inv(x) + 1)

    def pred(self, x: Fraction) -> Fraction:
        return self.phi(self.phi_inv(x) - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexLattice):
            return NotImplemented
        return self.fracs == other.fracs

    def __hash__(self) -> int:
        return hash(self.fracs)

    def __repr__(self) -> str:
        return f"IndexLattice({[str(f) for f in self.fracs]})"


Index = Union[int, Fraction]


def _index(x: object) -> Index:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def step_value(
    steps: Sequence[Tuple[Index, Subspace]], bottom: Subspace, x: Index, strict: bool = False
) -> Subspace:
    """The value at ``x`` (just below ``x`` when ``strict``) of the
    filtration whose sorted strict jumps are ``steps`` and whose value
    below its first jump is ``bottom``."""
    i = (bisect_left if strict else bisect_right)(steps, x, key=itemgetter(0))
    return steps[i - 1][1] if i else bottom


class Filtration(Immutable):
    """An increasing exhaustive filtration with finitely many jumps.

    Only the strict jumps are stored: ``steps`` is a sorted tuple of
    ``(index, subspace)`` pairs with strictly growing subspaces, the value
    below the first jump is the zero subspace, and the last value must be
    the full ambient space.  Indices are rational: `int` indices stay `int`
    (weight filtrations are integer-indexed) and all others are stored as
    `Fraction`.  ``center`` records the symmetry point of a weight
    filtration (the graded pieces at ``center + l`` and ``center - l``
    match up); it takes part in ``==`` but not in `same_subspaces`.

    >>> line = Subspace.span([(1, 0)], 2)
    >>> f = Filtration(2, [(Fraction(0), line), (Fraction(1), Subspace.full(2))])
    >>> f.value_at(Fraction(1, 2)) == line
    True
    >>> f.value_below(Fraction(0)).dim
    0
    >>> f.jumps()
    (Fraction(0, 1), Fraction(1, 1))
    """

    __slots__ = ("ambient_dim", "steps", "center", "_zero", "_hash")

    def __init__(
        self,
        ambient_dim: int,
        steps: Sequence[Tuple[Index, Subspace]],
        center: Index = 0,
    ) -> None:
        pairs = sorted(((_index(x), s) for x, s in steps), key=lambda p: p[0])
        canon: List[Tuple[Index, Subspace]] = []
        zero = prev = Subspace.zero(ambient_dim)
        for x, s in pairs:
            if s.ambient_dim != ambient_dim:
                raise ValueError("filtration value has wrong ambient dimension")
            if canon and canon[-1][0] == x:
                raise ValueError(f"duplicate filtration index {x}")
            if not s.contains(prev):
                raise ValueError(f"filtration is not increasing at index {x}")
            if s != prev:
                canon.append((x, s))
                prev = s
        if ambient_dim > 0:
            if not canon or not canon[-1][1].is_full():
                raise ValueError("filtration is not exhaustive (top value must be full)")
        center = _index(center)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "steps", tuple(canon))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_hash", hash((ambient_dim, tuple(canon), center)))

    @classmethod
    def trivial(cls, ambient_dim: int, at: Index = Fraction(0)) -> "Filtration":
        """The one-jump filtration 0 -> V at the given index."""
        if ambient_dim == 0:
            return cls(0, [])
        return cls(ambient_dim, [(at, Subspace.full(ambient_dim))])

    # -- values -----------------------------------------------------------

    def value_at(self, x: Index) -> Subspace:
        return step_value(self.steps, self._zero, x)

    def value_below(self, x: Index) -> Subspace:
        """The value just under ``x``: sup of the filtration at indices < x."""
        return step_value(self.steps, self._zero, x, strict=True)

    def jumps(self) -> Tuple[Index, ...]:
        return tuple(x for x, _ in self.steps)

    def fractional_offsets(self) -> Tuple[Fraction, ...]:
        return tuple(sorted({x - floor(x) for x in self.jumps()} | {Fraction(0)}))

    def graded_at(self, x: Index) -> QuotientPresentation:
        return QuotientPresentation(self.value_at(x), self.value_below(x))

    def graded_dims(self) -> Dict[Index, int]:
        below = [0] + [s.dim for _, s in self.steps]
        return {x: s.dim - d for (x, s), d in zip(self.steps, below)}

    def shift(self, offset: Index) -> "Filtration":
        """Every index, and the center, moved up by ``offset``."""
        offset = _index(offset)
        return Filtration(
            self.ambient_dim, [(x + offset, s) for x, s in self.steps], self.center + offset
        )

    # -- induced filtrations ------------------------------------------------

    def induced_on(self, piece: QuotientPresentation) -> "Filtration":
        """The filtration induced on a subquotient of the ambient space."""
        steps: List[Tuple[Index, Subspace]] = []
        for x, s in self.steps:
            inter = s.intersect(piece.sub)
            vecs = [piece.reduce(b) for b in inter.basis]
            steps.append((x, Subspace.span(vecs, piece.dim)))
        if piece.dim > 0 and (not steps or not steps[-1][1].is_full()):
            raise AssertionError("induced filtration lost exhaustiveness")
        return Filtration(piece.dim, steps, self.center)

    def same_subspaces(self, other: "Filtration") -> bool:
        """Equality of the stored filtrations, ignoring the center."""
        return self.ambient_dim == other.ambient_dim and self.steps == other.steps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filtration):
            return NotImplemented
        return self.same_subspaces(other) and self.center == other.center

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{x}:{s.dim}" for x, s in self.steps)
        center = f", center={self.center}" if self.center else ""
        return f"Filtration(ambient={self.ambient_dim}, jumps=[{parts}]{center})"


class MultiFiltration(Immutable):
    """A finite family of filtrations of one ambient space."""

    __slots__ = ("ambient_dim", "filtrations", "_hash")

    def __init__(self, filtrations: Sequence[Filtration]) -> None:
        fs = tuple(filtrations)
        if not fs:
            raise ValueError("a multifiltration needs at least one filtration")
        n = fs[0].ambient_dim
        for f in fs:
            if f.ambient_dim != n:
                raise ValueError("all filtrations must share the ambient space")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "filtrations", fs)
        object.__setattr__(self, "_hash", hash(fs))

    def __len__(self) -> int:
        return len(self.filtrations)

    def __getitem__(self, i: int) -> Filtration:
        return self.filtrations[i]

    def jump_lattice(self) -> List[Tuple[Fraction, ...]]:
        """All tuples of per-coordinate jump indices."""
        return list(product(*(f.jumps() for f in self.filtrations)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiFiltration):
            return NotImplemented
        return self.filtrations == other.filtrations

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MultiFiltration(n={len(self)}, ambient={self.ambient_dim})"


def graded_piece(mf: MultiFiltration, point: Sequence[Fraction]) -> QuotientPresentation:
    """Closed-form multigraded piece at an index tuple.

    Numerator: intersection of the selected values.  Denominator: sum over
    coordinates of the same intersection with the j-th value lowered one
    notch.

    >>> line = Subspace.span([(1, 0)], 2)
    >>> f = Filtration(2, [(Fraction(0), line), (Fraction(1), Subspace.full(2))])
    >>> mf = MultiFiltration([f, f])
    >>> graded_piece(mf, (Fraction(0), Fraction(0))).dim
    1
    >>> graded_piece(mf, (Fraction(0), Fraction(1))).dim
    0
    """
    if len(point) != len(mf):
        raise ValueError("index tuple length does not match the family")
    n = mf.ambient_dim
    values = [f.value_at(x) for f, x in zip(mf.filtrations, point)]
    num = intersection_of(values, n)
    terms = []
    for j in range(len(mf)):
        lowered = list(values)
        lowered[j] = mf.filtrations[j].value_below(point[j])
        terms.append(intersection_of(lowered, n))
    den = sum_of(terms, n)
    return QuotientPresentation(num, den)


class SubobjectCompatibility(Immutable):
    """Verdict of the hypercomplex row-exactness test for a subspace family.

    ``cell_dims`` maps each point of ``{-1, 0, +1}^n`` to the dimension of
    its cell: the intersection of the subspaces marked ``-1``, modulo the
    sum of its intersections with the subspaces marked ``+1``.  A row is
    exact iff its middle dimension is the sum of the outer two (see the
    module docstring for why).

    ``witness`` is None on success; otherwise it is the lexicographically
    smallest failing lattice point together with the direction whose row
    breaks (ties resolved by smaller direction index).
    """

    __slots__ = ("compatible", "witness", "cell_dims")

    def __init__(
        self,
        compatible: bool,
        witness: Optional[Tuple[Tuple[int, ...], int]],
        cell_dims: Dict[Tuple[int, ...], int],
    ) -> None:
        object.__setattr__(self, "compatible", compatible)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "cell_dims", cell_dims)

    def __bool__(self) -> bool:
        return self.compatible

    def __repr__(self) -> str:
        if self.compatible:
            return "SubobjectCompatibility(compatible)"
        return f"SubobjectCompatibility(witness={self.witness})"


@lru_cache(maxsize=16)
def _cell_points(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The points of ``{-1, 0, +1}^n``, built once per n so that the cached
    reports share their ``cell_dims`` keys instead of each holding 3^n
    tuples of its own."""
    return tuple(product((-1, 0, 1), repeat=n))


@lru_cache(maxsize=1 << 14)
def _subobject_compatibility_cached(
    subspaces: Tuple[Subspace, ...], ambient_dim: int
) -> SubobjectCompatibility:
    n = len(subspaces)
    full = Subspace.full(ambient_dim)

    inter: Dict[frozenset, Subspace] = {frozenset(): full}
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            base = frozenset(combo[:-1])
            inter[frozenset(combo)] = inter[base].intersect(subspaces[combo[-1]])

    dims: Dict[Tuple[int, ...], int] = {}
    for point in _cell_points(n):
        neg = frozenset(i for i, k in enumerate(point) if k == -1)
        den = sum_of([inter[neg | {j}] for j, k in enumerate(point) if k == 1], ambient_dim)
        dims[point] = inter[neg].dim - den.dim

    witness: Optional[Tuple[Tuple[int, ...], int]] = None
    for point in sorted(dims):
        for i in range(n):
            if point[i] != -1:
                continue
            mid = point[:i] + (0,) + point[i + 1 :]
            right = point[:i] + (1,) + point[i + 1 :]
            # The row is A/A' -> B/B' -> B/(B'+A) with A <= B and A' <= B'.
            # g is onto and im f = (A+B')/B' = ker g, so the row is exact
            # iff f is injective, iff dim mid == dim left + dim right.
            if dims[mid] != dims[point] + dims[right]:
                witness = (point, i)
                break
        if witness is not None:
            break

    return SubobjectCompatibility(witness is None, witness, dims)


def compatible_subobjects(
    subspaces: Sequence[Subspace], ambient_dim: Optional[int] = None
) -> SubobjectCompatibility:
    """Test compatibility of a family of subspaces of one ambient space.

    >>> a = Subspace.span([(1, 0)], 2)
    >>> b = Subspace.span([(0, 1)], 2)
    >>> c = Subspace.span([(1, 1)], 2)
    >>> bool(compatible_subobjects([a, b]))
    True
    >>> report = compatible_subobjects([a, b, c])
    >>> report.compatible
    False
    >>> report.witness is not None
    True
    """
    subs = tuple(subspaces)
    if not subs:
        raise ValueError("need at least one subspace")
    dim = subs[0].ambient_dim if ambient_dim is None else ambient_dim
    for s in subs:
        if s.ambient_dim != dim:
            raise ValueError("ambient dimension mismatch")
    return _subobject_compatibility_cached(subs, dim)


class FiltrationCompatibility(Immutable):
    """Verdict for a multifiltration: compatible at every jump lattice point.

    On failure, ``witness`` carries the failing index tuple plus the cell
    point and direction returned by the subspace-family test.
    """

    __slots__ = ("compatible", "witness")

    def __init__(
        self,
        compatible: bool,
        witness: Optional[Tuple[Tuple[Fraction, ...], Tuple[int, ...], int]],
    ) -> None:
        object.__setattr__(self, "compatible", compatible)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.compatible

    def __repr__(self) -> str:
        if self.compatible:
            return "FiltrationCompatibility(compatible)"
        return f"FiltrationCompatibility(witness={self.witness})"


def compatible_filtrations(mf: MultiFiltration) -> FiltrationCompatibility:
    """Compatibility of a family of filtrations.

    The family is compatible iff the selected values form a compatible
    subspace family at every tuple of jump indices; index tuples between
    jumps repeat these values, so the jump lattice is exhaustive.
    """
    for point in sorted(mf.jump_lattice()):
        values = tuple(f.value_at(x) for f, x in zip(mf.filtrations, point))
        report = compatible_subobjects(values, mf.ambient_dim)
        if not report.compatible:
            assert report.witness is not None
            cell_point, direction = report.witness
            return FiltrationCompatibility(False, (point, cell_point, direction))
    return FiltrationCompatibility(True, None)


class IteratedGradedMismatch(AssertionError):
    """Raised when nested graded pieces disagree with the closed form."""


def iterated_graded(
    mf: MultiFiltration,
    order: Optional[Sequence[int]] = None,
    check: bool = True,
) -> Dict[Tuple[Fraction, ...], int]:
    """Dimensions of iterated graded pieces, taken one filtration at a time.

    The filtration ``order[0]`` is graded first; the remaining filtrations
    are induced on each piece and the process recurses.  Keys of the result
    are index tuples in the *original* coordinate order.  With ``check``
    set, the dimensions are compared against the closed-form multigraded
    pieces and a mismatch raises :class:`IteratedGradedMismatch`.
    """
    n = len(mf)
    if order is None:
        order = tuple(range(n))
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the filtration indices")

    dims: Dict[Tuple[Fraction, ...], int] = {}

    def recurse(filts: Tuple[Filtration, ...], positions: Tuple[int, ...], prefix: Dict[int, Fraction]) -> None:
        f0 = filts[0]
        for x in f0.jumps():
            piece = f0.graded_at(x)
            if piece.dim == 0:
                continue
            new_prefix = dict(prefix)
            new_prefix[positions[0]] = x
            if len(filts) == 1:
                key = tuple(new_prefix[i] for i in range(n))
                dims[key] = dims.get(key, 0) + piece.dim
            else:
                induced = tuple(g.induced_on(piece) for g in filts[1:])
                recurse(induced, positions[1:], new_prefix)

    ordered = tuple(mf.filtrations[i] for i in order)
    recurse(ordered, order, {})

    if check:
        closed: Dict[Tuple[Fraction, ...], int] = {}
        for point in mf.jump_lattice():
            d = graded_piece(mf, point).dim
            if d:
                closed[tuple(point)] = d
        if closed != dims:
            raise IteratedGradedMismatch(
                f"iterated graded dims {dims} differ from closed form {closed} (order={order})"
            )
    return dims


def total_graded_dimension(f: Filtration) -> int:
    """Sum of graded dimensions; always the ambient dimension."""
    return sum(f.graded_dims().values())
