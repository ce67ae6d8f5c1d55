"""Multigraded Lefschetz structures, sl2 completions, and polarizations.

A graded space splits a rational vector space along a finite ``Z^p`` grading.
A graded bilinear structure adds one nilpotent operator per grading slot,
lowering that slot's degree by two, together with a pairing matching the
piece at ``l`` with the piece at ``-l``.  The two polarization criteria of
such a structure — positivity of the twisted forms on all multiprimitive
parts, and positivity of the single form twisted by the product of Weil
elements — are computed separately and must agree; a disagreement is an
internal error, never a verdict.

The Weil element of a slot comes from completing the slot's operator to an
sl2 triple: the raising operator is the unique solution of the bracket
equation among maps of degree +2 in that slot, and the completed triple is
certified against the full bracket table before use.

A graded space computes its basis adapted to the grading (the change of
basis ``b``, its inverse and the block of each piece) once, on first use.
Validation, the sl2 solve and its certification, and the Weil elements run
in that frame, where the grading operators are diagonal and the slot
operators are block-sparse of degree -2; ``weil_w`` conjugates the product
of the slot Weil elements back to ambient coordinates once.  Both
polarization routes then work in ambient coordinates: route one on the
multiprimitive parts with the ambient operator powers, route two on
``pairing * weil_w(structure)``.  See Cattani–Kaplan–Schmid, "Degeneration
of Hodge structures" (Ann. of Math. 123, 1986) for sl2 triples and Weil
elements in a weight-adapted basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (
    GaussianRational,
    Immutable,
    Matrix,
    Scalar,
    Subspace,
    exp_nilpotent,
    is_positive_definite,
    kernel_of,
    restrict_operator,
    solve_columns,
    sum_of,
)
from .filtration import Filtration
from .monodromy import (
    NilpotentOperator,
    WeightAxiomFailure,
    monodromy_filtration,
    require_commuting,
    verify_weight_axioms,
)

MultiDegree = Tuple[int, ...]
Layout = Dict[MultiDegree, Tuple[int, int]]


def _block(m: Matrix, layout: Layout, ka: MultiDegree, kb: MultiDegree) -> List[List[Scalar]]:
    """The block of ``m`` in adapted coordinates from piece ``kb`` to piece ``ka``."""
    (ro, rd), (co, cd) = layout[ka], layout[kb]
    return [list(m.entries[ro + a][co : co + cd]) for a in range(rd)]


class GradedSpace(Immutable):
    """A direct-sum decomposition of an ambient space along ``Z^p``.

    >>> h = GradedSpace(2, {(-1,): Subspace.span([(1, 0)], 2),
    ...                     (1,): Subspace.span([(0, 1)], 2)})
    >>> h.dims()
    {(-1,): 1, (1,): 1}
    >>> h.component((3,)).dim
    0
    """

    __slots__ = ("ambient_dim", "nslots", "components", "_hash", "_frame")

    def __init__(self, ambient_dim: int, components: Dict[MultiDegree, Subspace]) -> None:
        comps = {tuple(int(x) for x in k): v for k, v in components.items() if v.dim > 0}
        if not comps and ambient_dim > 0:
            raise ValueError("a graded space needs at least one nonzero component")
        slots = {len(k) for k in comps} or {1}
        if len(slots) != 1:
            raise ValueError("all multidegrees must have the same length")
        (p,) = slots
        total = 0
        for k, v in comps.items():
            if v.ambient_dim != ambient_dim:
                raise ValueError("component has wrong ambient dimension")
            total += v.dim
        if total != ambient_dim:
            raise ValueError("components do not sum to the ambient dimension")
        if sum_of(list(comps.values()), ambient_dim).dim != ambient_dim and ambient_dim > 0:
            raise ValueError("components are not independent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "nslots", p)
        object.__setattr__(self, "components", dict(comps))
        object.__setattr__(
            self, "_hash", hash((ambient_dim, tuple(sorted(comps.items(), key=lambda kv: kv[0]))))
        )
        object.__setattr__(self, "_frame", None)

    def multidegrees(self) -> List[MultiDegree]:
        return sorted(self.components)

    def component(self, k: Sequence[int]) -> Subspace:
        return self.components.get(tuple(k), Subspace.zero(self.ambient_dim))

    def dims(self) -> Dict[MultiDegree, int]:
        return {k: v.dim for k, v in sorted(self.components.items())}

    def adapted_basis(self) -> List[Tuple[MultiDegree, Tuple[Fraction, ...]]]:
        out: List[Tuple[MultiDegree, Tuple[Fraction, ...]]] = []
        for k in self.multidegrees():
            for b in self.components[k].basis:
                out.append((k, b))
        return out

    def _adapted_frame(self) -> Tuple[Matrix, Matrix, Layout]:
        """``(b, b⁻¹, layout)``, computed once, on first use: the change of
        basis, its inverse, and the ``(offset, dim)`` of each piece's block
        of adapted coordinates."""
        if self._frame is None:
            layout: Layout = {}
            off = 0
            for k in self.multidegrees():
                layout[k] = (off, self.components[k].dim)
                off += self.components[k].dim
            b = Matrix.from_columns([v for _, v in self.adapted_basis()], self.ambient_dim)
            object.__setattr__(self, "_frame", (b, b.inverse(), layout))
        return self._frame

    def change_of_basis(self) -> Matrix:
        """Columns are the adapted basis vectors, in multidegree order."""
        return self._adapted_frame()[0]

    def _slot_degrees(self, slot: int) -> Matrix:
        """The grading operator of a slot in the adapted basis: diagonal."""
        n = self.ambient_dim
        dense = [[0] * n for _ in range(n)]
        for k, (off, d) in self._adapted_frame()[2].items():
            for i in range(off, off + d):
                dense[i][i] = k[slot]
        return Matrix._from_ints(1, dense, n)

    def grading_operator(self, slot: int) -> Matrix:
        """The semisimple operator acting as the slot degree on each piece."""
        if not 0 <= slot < self.nslots:
            raise ValueError("slot out of range")
        b, binv, _ = self._adapted_frame()
        return b * self._slot_degrees(slot) * binv

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.components == other.components

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GradedSpace(ambient={self.ambient_dim}, dims={self.dims()})"


class GradedBilinearStructure(Immutable):
    """A graded space with slotwise lowering operators and a graded pairing.

    Validated at construction: each operator is nilpotent, lowers its slot
    degree by exactly two, the operators commute pairwise, and the pairing
    is nondegenerate and pairs opposite multidegrees only.  The degree and
    pairing checks run in the basis adapted to the grading (the space's
    change of basis ``b``): there an operator ``Y`` becomes ``b⁻¹Yb``,
    which must vanish outside the blocks from piece ``k`` to piece
    ``k - 2e_i``, and the pairing ``P`` becomes ``bᵀPb``, which must vanish
    on the blocks of non-opposite pieces.  ``nilpotents`` keeps the
    certified `NilpotentOperator` of each slot, so its powers are computed
    once; the operators in the adapted basis are kept for the sl2 solve.
    """

    __slots__ = ("space", "operators", "nilpotents", "pairing", "center", "_adapted_ops")

    def __init__(
        self,
        space: GradedSpace,
        operators: Sequence[Matrix],
        pairing: Matrix,
        center: Optional[MultiDegree] = None,
    ) -> None:
        if len(operators) != space.nslots:
            raise ValueError("need exactly one operator per grading slot")
        n = space.ambient_dim
        c = tuple(center) if center is not None else (0,) * space.nslots
        if len(c) != space.nslots:
            raise ValueError("center has wrong length")
        b, binv, layout = space._adapted_frame()
        nilpotents = []
        adapted = []
        for i, op in enumerate(operators):
            if (op.rows, op.cols) != (n, n):
                raise ValueError("operator has wrong shape")
            nilpotents.append(NilpotentOperator(op))  # raises if not nilpotent
            y = binv * op * b
            for k in space.components:
                tgt = k[:i] + (k[i] - 2,) + k[i + 1 :]
                lo, d = layout.get(tgt, (0, 0))
                co, cd = layout[k]
                if any(any(row[co : co + cd]) for r, row in enumerate(y.entries) if not lo <= r < lo + d):
                    raise ValueError(
                        f"operator {i} does not lower slot degree by two at {k}"
                    )
            adapted.append(y)
        require_commuting(operators)
        if (pairing.rows, pairing.cols) != (n, n):
            raise ValueError("pairing has wrong shape")
        if pairing.rank() != n:
            raise ValueError("pairing is degenerate")
        adapted_pairing = b.transpose() * pairing * b
        degs = space.multidegrees()
        for ka in degs:
            for kb in degs:
                if tuple(x + y for x, y in zip(ka, kb)) == tuple(2 * x for x in c):
                    continue
                if any(any(row) for row in _block(adapted_pairing, layout, ka, kb)):
                    raise ValueError(
                        f"pairing does not respect the grading: {ka} meets {kb}"
                    )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "operators", tuple(operators))
        object.__setattr__(self, "nilpotents", tuple(nilpotents))
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "_adapted_ops", tuple(adapted))

    @property
    def nslots(self) -> int:
        return self.space.nslots

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        kv = self.pairing.apply(v)
        return sum((a * b for a, b in zip(u, kv) if a and b), Fraction(0))

    def __repr__(self) -> str:
        return f"GradedBilinearStructure(slots={self.nslots}, dims={self.space.dims()})"


def grading_is_monodromy(space: GradedSpace, operators: Sequence[Matrix]) -> bool:
    """Is each slot's grading the weight grading of its operator?

    For every slot i and every fixed value of the other slots, the slotwise
    filtration ``W_k = sum of pieces with slot degree <= k`` must be the
    weight filtration (centered at 0) of the operator restricted to the sum
    of those pieces.
    """
    p = space.nslots
    for i in range(p):
        others: Dict[Tuple[int, ...], List[Tuple[int, Subspace]]] = {}
        for k, comp in space.components.items():
            key = k[:i] + k[i + 1 :]
            others.setdefault(key, []).append((k[i], comp))
        for key, pieces in others.items():
            ambient = sum_of([c for _, c in pieces], space.ambient_dim)
            try:
                op = restrict_operator(operators[i], ambient)
            except ValueError:
                return False
            # slotwise filtration in the restricted coordinates
            levels = sorted({d for d, _ in pieces})
            steps = []
            for lv in levels:
                vecs: List[Tuple[Fraction, ...]] = []
                for d, comp in pieces:
                    if d <= lv:
                        for b in comp.basis:
                            coords = ambient.rref_coordinates(b)
                            vecs.append(coords)
                steps.append((lv, Subspace.span(vecs, ambient.dim)))
            try:
                cf = Filtration(ambient.dim, steps)
                verify_weight_axioms(cf, op)
            except (ValueError, WeightAxiomFailure):
                return False
            if not cf.same_subspaces(monodromy_filtration(op, center=0)):
                return False
    return True


class Sl2Action(Immutable):
    """A certified sl2 triple acting on one grading slot.

    The full bracket table is validated at construction: ``[X, Y] == H``,
    ``[H, X] == 2 X`` and ``[H, Y] == -2 Y``.
    """

    __slots__ = ("raise_op", "lower_op", "grading_op", "slot")

    def __init__(self, raise_op: Matrix, lower_op: Matrix, grading_op: Matrix, slot: int) -> None:
        x, y, h = raise_op, lower_op, grading_op
        if x * y - y * x != h:
            raise ValueError("bracket [X, Y] != H")
        if h * x - x * h != 2 * x:
            raise ValueError("bracket [H, X] != 2X")
        if h * y - y * h != (-2) * y:
            raise ValueError("bracket [H, Y] != -2Y")
        object.__setattr__(self, "raise_op", x)
        object.__setattr__(self, "lower_op", y)
        object.__setattr__(self, "grading_op", h)
        object.__setattr__(self, "slot", slot)

    def weil_element(self) -> Matrix:
        """``exp(-X) exp(Y) exp(-X)``; exact because X and Y are nilpotent."""
        ex = exp_nilpotent(-self.raise_op)
        ey = exp_nilpotent(self.lower_op)
        return ex * ey * ex

    def __repr__(self) -> str:
        return f"Sl2Action(slot={self.slot})"


def _adapted_sl2(structure: GradedBilinearStructure, slot: int) -> Sl2Action:
    """The sl2 triple of a slot in the basis adapted to the grading.

    There the lowering operator ``Y'`` is the structure's adapted operator,
    the grading operator ``H'`` is diagonal, and the raising operator
    ``X'`` is the solution of ``[X', Y'] = H'`` among maps with nonzero
    blocks only from piece ``k`` to piece ``k + 2e_slot``.  The triple is
    certified in this basis.
    """
    space = structure.space
    if not 0 <= slot < space.nslots:
        raise ValueError("slot out of range")
    _, _, layout = space._adapted_frame()
    y_ad = structure._adapted_ops[slot]
    n = space.ambient_dim
    degs = space.multidegrees()

    # Unknown blocks X_k : piece(k) -> piece(k + 2 e_slot).
    unknowns: List[Tuple[MultiDegree, int, int]] = []  # (source degree, row, col)
    index: Dict[Tuple[MultiDegree, int, int], int] = {}
    for k in degs:
        up = k[:slot] + (k[slot] + 2,) + k[slot + 1 :]
        if up not in layout:
            continue
        rd = layout[up][1]
        cd = layout[k][1]
        for a in range(rd):
            for c in range(cd):
                index[(k, a, c)] = len(unknowns)
                unknowns.append((k, a, c))

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    for k in degs:
        down = k[:slot] + (k[slot] - 2,) + k[slot + 1 :]
        up = k[:slot] + (k[slot] + 2,) + k[slot + 1 :]
        kd = layout[k][1]
        y_from_k = _block(y_ad, layout, down, k) if down in layout else None
        y_from_up = _block(y_ad, layout, k, up) if up in layout else None
        for a in range(kd):
            for c in range(kd):
                row = [Fraction(0)] * len(unknowns)
                # (X Y)_{a c} over piece(k): X block from `down`
                if y_from_k is not None:
                    for t in range(layout[down][1]):
                        key = (down, a, t)
                        if key in index:
                            row[index[key]] += y_from_k[t][c]
                # (Y X)_{a c}: X block from k up
                if y_from_up is not None:
                    for t in range(layout[up][1]):
                        key = (k, t, c)
                        if key in index:
                            row[index[key]] -= y_from_up[a][t]
                rows.append(row)
                rhs.append(Fraction(k[slot]) if a == c else Fraction(0))

    cols = [tuple(r[j] for r in rows) for j in range(len(unknowns))]
    sol = solve_columns(cols, tuple(rhs))
    if sol is None:
        raise ValueError(
            "no sl2 completion: the grading is not the weight grading of the operator"
        )

    x_ad_entries = [[Fraction(0)] * n for _ in range(n)]
    for val, (k, a, c) in zip(sol, unknowns):
        if val:
            up = k[:slot] + (k[slot] + 2,) + k[slot + 1 :]
            (ro, _), (co, _) = layout[up], layout[k]
            x_ad_entries[ro + a][co + c] = val
    return Sl2Action(Matrix(x_ad_entries, n, n), y_ad, space._slot_degrees(slot), slot)


def sl2_complete(structure: GradedBilinearStructure, slot: int) -> Sl2Action:
    """Complete a slot's lowering operator to a certified sl2 triple.

    The raising operator is found as the solution of ``[X, Y] = H`` among
    operators of degree +2 in the chosen slot; the solution is unique when
    the grading is the operator's weight grading.  The triple is solved and
    certified in the basis adapted to the grading, where ``H`` is diagonal
    and ``X`` and ``Y`` are block-sparse; the returned triple is its
    conjugate in ambient coordinates, certified again.
    """
    adapted = _adapted_sl2(structure, slot)
    b, binv, _ = structure.space._adapted_frame()
    return Sl2Action(
        b * adapted.raise_op * binv, structure.operators[slot], b * adapted.grading_op * binv, slot
    )


def weil_w(structure: GradedBilinearStructure) -> Matrix:
    """Product of the Weil elements of all slots (slot order).

    The slot Weil elements are built and multiplied in the basis adapted to
    the grading, from the triples certified there; the product is conjugated
    back to ambient coordinates once.
    """
    b, binv, _ = structure.space._adapted_frame()
    out = Matrix.identity(structure.ambient_dim)
    for i in range(structure.nslots):
        out = out * _adapted_sl2(structure, i).weil_element()
    return b * out * binv


def primitive_parts(structure: GradedBilinearStructure) -> Dict[MultiDegree, Subspace]:
    """Multiprimitive subspaces: piece at ``l`` killed by each ``N_i^{l_i+1}``.

    Defined for multidegrees with all entries nonnegative.
    """
    space = structure.space
    out: Dict[MultiDegree, Subspace] = {}
    for k, comp in space.components.items():
        if any(x < 0 for x in k):
            continue
        prim = comp
        for i, nil in enumerate(structure.nilpotents):
            prim = prim.intersect(kernel_of(nil.power(k[i] + 1)))
        out[k] = prim
    return out


def lefschetz_decomposition_check(structure: GradedBilinearStructure) -> bool:
    """Dimension bookkeeping of the primitive decomposition.

    Every piece must be assembled from operator-orbit images of primitive
    parts: ``dim H_l == sum over a >= max(0, -l) of dim P_{l + 2a}``.
    """
    prim = primitive_parts(structure)
    space = structure.space
    degs = space.multidegrees()
    p = space.nslots
    if not degs:
        return True
    top = max(max(abs(x) for x in k) for k in degs)
    for k in degs:
        want = space.components[k].dim
        got = 0
        ranges = [range(max(0, -k[i]), top + 1) for i in range(p)]
        for a in iproduct(*ranges):
            src = tuple(k[i] + 2 * a[i] for i in range(p))
            if src in prim:
                got += prim[src].dim
        if got != want:
            return False
    return True


class PolarizationReport(Immutable):
    """Verdicts of both polarization criteria (they are required to agree)."""

    __slots__ = ("polarized", "primitive_route", "weil_route", "failure")

    def __init__(
        self,
        polarized: bool,
        primitive_route: bool,
        weil_route: bool,
        failure: Optional[Tuple[str, object]],
    ) -> None:
        object.__setattr__(self, "polarized", polarized)
        object.__setattr__(self, "primitive_route", primitive_route)
        object.__setattr__(self, "weil_route", weil_route)
        object.__setattr__(self, "failure", failure)

    def __bool__(self) -> bool:
        return self.polarized

    def __repr__(self) -> str:
        if self.polarized:
            return "PolarizationReport(polarized)"
        return f"PolarizationReport(failure={self.failure})"


class PolarizationRouteDisagreement(AssertionError):
    """The two polarization criteria returned different verdicts."""


def _gram(structure: GradedBilinearStructure, twist: Matrix, vectors: Sequence[Tuple[Fraction, ...]]) -> Matrix:
    rows = []
    twisted = [twist.apply(v) for v in vectors]
    for u in vectors:
        rows.append([structure.pair(u, tv) for tv in twisted])
    return Matrix(rows, len(vectors), len(vectors))


def polarization_check(structure: GradedBilinearStructure) -> PolarizationReport:
    """Decide polarization by two independent routes and compare them.

    Route one: each operator is an infinitesimal isometry of the pairing,
    and on every multiprimitive part the pairing twisted by the matching
    operator powers is symmetric positive definite.  Route two: the same
    isometry condition, and the pairing twisted by the product of Weil
    elements is symmetric positive definite on the whole space.
    """
    iso_fail: Optional[int] = None
    for i, op in enumerate(structure.operators):
        if not (op.transpose() * structure.pairing + structure.pairing * op).is_zero():
            iso_fail = i
            break
    if iso_fail is not None:
        return PolarizationReport(False, False, False, ("isotropy", iso_fail))

    primitive_ok = True
    primitive_failure: Optional[Tuple[str, object]] = None
    prim = primitive_parts(structure)
    for k in sorted(prim):
        sub = prim[k]
        if sub.dim == 0:
            continue
        twist = Matrix.identity(structure.ambient_dim)
        for i, nil in enumerate(structure.nilpotents):
            twist = twist * nil.power(k[i])
        g = _gram(structure, twist, list(sub.basis))
        if g != g.transpose():
            primitive_ok = False
            primitive_failure = ("primitive-asymmetric", k)
            break
        cert = is_positive_definite(g)
        if not cert.positive:
            primitive_ok = False
            primitive_failure = ("primitive-positivity", (k, cert.witness))
            break

    w = weil_w(structure)
    g_all = structure.pairing * w
    weil_ok = True
    weil_failure: Optional[Tuple[str, object]] = None
    if g_all != g_all.transpose():
        weil_ok = False
        weil_failure = ("weil-asymmetric", None)
    else:
        cert = is_positive_definite(g_all)
        if not cert.positive:
            weil_ok = False
            weil_failure = ("weil-positivity", cert.witness)

    if primitive_ok != weil_ok:
        raise PolarizationRouteDisagreement(
            f"primitive route says {primitive_ok}, Weil route says {weil_ok}"
        )
    failure = primitive_failure or weil_failure
    return PolarizationReport(primitive_ok, primitive_ok, weil_ok, failure)


def merge_slots(structure: GradedBilinearStructure, i: int, j: int) -> GradedBilinearStructure:
    """Fuse two grading slots: degrees add, operators add, pairing unchanged.

    The merged structure is re-validated from scratch by the constructor,
    so a successful return certifies it is again a graded bilinear
    structure.
    """
    if i == j:
        raise ValueError("cannot merge a slot with itself")
    if not (0 <= i < structure.nslots and 0 <= j < structure.nslots):
        raise ValueError("slot out of range")
    a, bslot = sorted((i, j))
    space = structure.space
    merged: Dict[MultiDegree, List[Subspace]] = {}
    for k, comp in space.components.items():
        nk = tuple(
            (k[t] + k[bslot]) if t == a else k[t]
            for t in range(space.nslots)
            if t != bslot
        )
        merged.setdefault(nk, []).append(comp)
    comps = {
        k: sum_of(v, space.ambient_dim) for k, v in merged.items()
    }
    new_space = GradedSpace(space.ambient_dim, comps)
    ops = [
        (structure.operators[a] + structure.operators[bslot]) if t == a else structure.operators[t]
        for t in range(structure.nslots)
        if t != bslot
    ]
    new_center = tuple(
        (structure.center[a] + structure.center[bslot]) if t == a else structure.center[t]
        for t in range(structure.nslots)
        if t != bslot
    )
    return GradedBilinearStructure(new_space, ops, structure.pairing, center=new_center)


# -- rational Hodge structures ------------------------------------------------


class RationalHodgeStructure(Immutable):
    """A weight-w bigrading of a Gaussian-rational vector space.

    Components are indexed by pairs (p, q) with ``p + q == weight``;
    entrywise conjugation must swap the (p, q) and (q, p) components.

    >>> one = GaussianRational(1, 0)
    >>> i = GaussianRational(0, 1)
    >>> hpq = Subspace.span([(one, i)], 2)
    >>> hqp = Subspace.span([(one, -i)], 2)
    >>> hs = RationalHodgeStructure(1, {(1, 0): hpq, (0, 1): hqp})
    >>> hs.hodge_numbers()
    {(0, 1): 1, (1, 0): 1}
    """

    __slots__ = ("weight", "components", "ambient_dim")

    def __init__(self, weight: int, components: Dict[Tuple[int, int], Subspace]) -> None:
        comps = {k: v for k, v in components.items() if v.dim > 0}
        if not comps:
            raise ValueError("a Hodge structure needs a nonzero component")
        n = next(iter(comps.values())).ambient_dim
        total = 0
        for (p, q), comp in comps.items():
            if p + q != weight:
                raise ValueError(f"component ({p}, {q}) violates the weight {weight}")
            if comp.ambient_dim != n:
                raise ValueError("components live in different ambient spaces")
            total += comp.dim
        if total != n:
            raise ValueError("components do not sum to the ambient dimension")
        if sum_of(list(comps.values()), n).dim != n:
            raise ValueError("components are not independent")
        for (p, q), comp in comps.items():
            if conjugate_subspace(comp) != comps.get((q, p), Subspace.zero(n)):
                raise ValueError(f"conjugation does not swap ({p}, {q}) with ({q}, {p})")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "components", dict(comps))
        object.__setattr__(self, "ambient_dim", n)

    def component(self, p: int, q: int) -> Subspace:
        return self.components.get((p, q), Subspace.zero(self.ambient_dim))

    def hodge_numbers(self) -> Dict[Tuple[int, int], int]:
        return {k: v.dim for k, v in sorted(self.components.items())}

    def __repr__(self) -> str:
        return f"RationalHodgeStructure(weight={self.weight}, numbers={self.hodge_numbers()})"


def conjugate_subspace(s: Subspace) -> Subspace:
    """Entrywise conjugate of a Gaussian-rational subspace."""
    def conj(x):
        return x.conjugate() if isinstance(x, GaussianRational) else x

    return Subspace.span([tuple(conj(x) for x in b) for b in s.basis], s.ambient_dim)


def hodge_typing_check(hs: RationalHodgeStructure, op: Matrix) -> bool:
    """Does the operator shift Hodge type by (-1, -1)?"""
    for (p, q), comp in hs.components.items():
        tgt = hs.component(p - 1, q - 1)
        if not tgt.contains(comp.image_under(op)):
            return False
    return True
