"""Weight filtrations of nilpotent operators, absolute and relative.

The absolute weight filtration of a nilpotent operator N, centered at an
integer c, is the unique increasing filtration W with ``N W_k <= W_{k-2}``
such that the ℓ-th power of N induces an isomorphism from the graded piece
at ``c + ℓ`` onto the piece at ``c - ℓ``.  One routine, `_weight_steps`,
builds every weight filtration here by Deligne's recursion (*Weil II*,
1.6.1) on an N-stable interval of the subspace lattice, and *re-certifies
both axioms on every call*, so a returned filtration is always a checked
certificate rather than a trusted byproduct.

The relative weight filtration of N with respect to an auxiliary filtration
L (when it exists) is the filtration inducing, on each L-graded piece, the
absolute weight filtration of the induced operator centered at the piece
index, while still satisfying the N-shift axiom.  It is unique when it
exists, and `relative_monodromy` builds the only candidate from images,
preimages, sums and intersections (Steenbrink–Zucker, *Invent. Math.* 80,
1985, §2; Deligne, *Weil II*, 1.6.13), then certifies it.  A candidate
that fails proves that no solution exists; the refutation then names a
violated necessary condition where squeezing the solution between lower
and upper bounds finds one, and the failed axiom otherwise.

`mf_property` tests whether iterating relative filtrations right-to-left
over a commuting family reproduces the weight filtration of the sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exact import Immutable, Matrix, Subspace, kernel_of
from .filtration import Filtration, Index, step_value


class NilpotentOperator(Immutable):
    """A square matrix certified nilpotent at construction.

    ``exponent`` is the smallest e with ``N^e == 0``; the zero map on a
    nonzero space has exponent 1.  ``nil_order`` is the largest power with
    nonzero value, i.e. ``exponent - 1``.  `image` keeps each image
    ``N^k · space`` it computes in a private memo that lives and dies with
    the operator; it holds images only, never a verdict.

    >>> j2 = NilpotentOperator(Matrix.from_rows([[0, 0], [1, 0]]))
    >>> j2.exponent
    2
    >>> j2.nil_order
    1
    >>> NilpotentOperator(Matrix.from_rows([[1, 0], [0, 1]]))
    Traceback (most recent call last):
        ...
    ValueError: operator is not nilpotent
    """

    __slots__ = ("matrix", "dim", "exponent", "_powers", "_images")

    def __init__(self, matrix: Matrix) -> None:
        if not matrix.is_square():
            raise ValueError("a nilpotent operator must be square")
        powers = [Matrix.identity(matrix.rows)]
        e = None
        for k in range(1, matrix.rows + 1):
            powers.append(powers[-1] * matrix)
            if powers[-1].is_zero():
                e = k
                break
        if matrix.rows == 0:
            e = 0
        if e is None:
            raise ValueError("operator is not nilpotent")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dim", matrix.rows)
        object.__setattr__(self, "exponent", e)
        object.__setattr__(self, "_powers", tuple(powers))
        object.__setattr__(self, "_images", {})

    @property
    def nil_order(self) -> int:
        return max(self.exponent - 1, 0)

    def power(self, k: int) -> Matrix:
        if k < len(self._powers):
            return self._powers[k]
        return Matrix.zero(self.dim, self.dim)

    def image(self, space: Subspace, k: int = 1) -> Subspace:
        """``N^k · space``, computed once per ``(space, k)`` pair."""
        key = (space, k)
        got = self._images.get(key)
        if got is None:
            got = self._images[key] = space.image_under(self.power(k))
        return got

    def kernel_of_power(self, k: int) -> Subspace:
        return kernel_of(self.power(k))

    def __repr__(self) -> str:
        return f"NilpotentOperator(dim={self.dim}, exponent={self.exponent})"


OperatorLike = Union[Matrix, NilpotentOperator]


def _as_operator(n: OperatorLike) -> NilpotentOperator:
    return n if isinstance(n, NilpotentOperator) else NilpotentOperator(n)


def require_commuting(operators: Sequence[Matrix]) -> None:
    """Raise ValueError naming the first pair of operators that do not commute."""
    for i in range(len(operators)):
        for j in range(i + 1, len(operators)):
            if not operators[i].commutes_with(operators[j]):
                raise ValueError(f"operators {i} and {j} do not commute")


def jordan_chain_basis(n: OperatorLike) -> List[List[Tuple[Fraction, ...]]]:
    """A Jordan chain basis: each chain is ``[v, Nv, ..., N^{m-1} v]``.

    Chains are extracted from the top down: new chain tops at height j
    extend the span of the (j-1)-st kernel plus everything pushed down from
    taller chains.
    """
    op = _as_operator(n)
    d = op.dim
    kernels = [op.kernel_of_power(j) for j in range(op.exponent + 1)]
    chains: List[List[Tuple[Fraction, ...]]] = []
    carried: List[Tuple[Fraction, ...]] = []
    for j in range(op.exponent, 0, -1):
        blocked = kernels[j - 1].sum(Subspace.span(carried, d)) if carried else kernels[j - 1]
        tops = blocked.extend_to(kernels[j])
        for v in tops:
            chain = [v]
            for _ in range(j - 1):
                chain.append(op.matrix.apply(chain[-1]))
            chains.append(chain)
        carried = [op.matrix.apply(w) for w in carried] + [
            op.matrix.apply(t) for t in tops
        ]
        carried = [w for w in carried if any(w)]
    total = sum(len(c) for c in chains)
    if total != d:
        raise AssertionError("Jordan chain extraction lost dimensions")
    return chains


class WeightAxiomFailure(AssertionError):
    """Raised when a candidate weight filtration fails certification."""


def verify_weight_axioms(w: Filtration, n: OperatorLike) -> None:
    """Certify both weight-filtration axioms; raise on any failure.

    Axiom one: N lowers the filtration by two.  Axiom two: the ℓ-th power
    of N induces an isomorphism between the graded pieces at ``c + ℓ`` and
    ``c - ℓ`` for every ℓ >= 1, where c is the center.  Given axiom one,
    that holds iff both graded dimensions equal the rank
    ``dim(N^ℓ W_{c+ℓ} + W_{<c-ℓ}) - dim W_{<c-ℓ}`` of the induced map.
    """
    _check_weight_axioms(_as_operator(n), w.steps, Subspace.zero(w.ambient_dim), w.center)


def _check_weight_axioms(
    op: NilpotentOperator, steps: Sequence[Tuple[Index, Subspace]], bottom: Subspace, c: Index
) -> None:
    """`verify_weight_axioms` for the filtration of an N-stable interval
    with strict jumps ``steps`` over the value ``bottom`` below them."""
    for k, value in steps:
        if not step_value(steps, bottom, k - 2).contains(op.image(value)):
            raise WeightAxiomFailure(f"operator does not lower the filtration by two at {k}")
    if not steps:
        return
    span = max(abs(steps[-1][0] - c), abs(steps[0][0] - c))
    below = [bottom.dim] + [value.dim for _, value in steps]
    dims = {k: value.dim - d for (k, value), d in zip(steps, below)}
    for ell in range(1, span + 1):
        hi, lo = dims.get(c + ell, 0), dims.get(c - ell, 0)
        if hi != lo:
            raise WeightAxiomFailure(
                f"graded dimensions at {c + ell} and {c - ell} differ ({hi} vs {lo})"
            )
        if hi == 0:
            continue
        under = step_value(steps, bottom, c - ell, strict=True)
        if op.image(step_value(steps, bottom, c + ell), ell).sum(under).dim - under.dim != hi:
            raise WeightAxiomFailure(
                f"power {ell} does not induce an isomorphism between pieces {c + ell} and {c - ell}"
            )


def _weight_steps(op: NilpotentOperator, a: Subspace, b: Subspace, c: Index) -> List[Tuple[Index, Subspace]]:
    """The certified strict jumps, centered at ``c``, of the weight filtration
    of N on ``b / a``, read in ``V``; ``a <= b`` must both be N-stable.

    With m the largest power such that ``N^m b`` is not inside ``a``, it is
    ``b`` from ``c + m`` up, ``a.preimage_under(N^m) ∩ b`` at ``c + m - 1``
    and ``N^m b + a`` at ``c - m``; between these it is the filtration of
    the interval they bound, where ``N^m`` induces zero.
    """
    bottom, low, high = a, [], []
    # N^q induces zero on a space of dimension q
    for m in range(min(op.nil_order, b.dim - a.dim - 1), 0, -1):
        if a == b:
            break
        moved = op.image(b, m)
        if a.contains(moved):
            continue
        high.append((c + m, b))
        a, b = a.sum(moved), a.preimage_under(op.power(m)).intersect(b)
        low.append((c - m, a))
    if a != b:
        low.append((c, b))
    steps = low + high[::-1]
    _check_weight_axioms(op, steps, bottom, c)
    return steps


def monodromy_filtration(n: OperatorLike, center: int = 0) -> Filtration:
    """The weight filtration of a nilpotent operator, centered as requested.

    Built by `_weight_steps` on the whole space, which certifies it against
    both axioms before it is returned.

    >>> j2 = Matrix.from_rows([[0, 0], [1, 0]])
    >>> w = monodromy_filtration(j2)
    >>> w.graded_dims()
    {-1: 1, 1: 1}
    """
    op = _as_operator(n)
    d = op.dim
    return Filtration(d, _weight_steps(op, Subspace.zero(d), Subspace.full(d), center), center=center)


# -- relative weight filtrations --------------------------------------------


class NonexistenceCertificate(Immutable):
    """Why no relative weight filtration can exist.

    Every recorded reason but ``"axiom"`` is a *necessary* condition on any
    solution, so the certificate is sound by construction.  An ``"axiom"``
    certificate names the axiom that the only possible candidate fails: the
    unique one the bounds pin, or else the one `relative_monodromy`
    constructs, which is every solution there is (Steenbrink–Zucker §2).
    """

    __slots__ = ("level", "kind", "at_jump", "message")

    def __init__(self, level: int, kind: str, at_jump: Optional[int], message: str) -> None:
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "at_jump", at_jump)
        object.__setattr__(self, "message", message)

    def __repr__(self) -> str:
        return f"NonexistenceCertificate(level={self.level}, kind={self.kind!r})"


class RelativeMonodromyResult(Immutable):
    """Outcome of a relative weight filtration computation."""

    __slots__ = ("exists", "filtration", "certificate")

    def __init__(
        self,
        exists: bool,
        filtration: Optional[Filtration],
        certificate: Optional[NonexistenceCertificate],
    ) -> None:
        object.__setattr__(self, "exists", exists)
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "certificate", certificate)

    def __bool__(self) -> bool:
        return self.exists

    def __repr__(self) -> str:
        if self.exists:
            return f"RelativeMonodromyResult(exists, {self.filtration!r})"
        return f"RelativeMonodromyResult(not exists, {self.certificate!r})"


def relative_monodromy(n: OperatorLike, lfilt: Filtration) -> RelativeMonodromyResult:
    """The weight filtration of N relative to L, or a refutation.

    Any solution M must satisfy, for every level ℓ and every L-jump k:

    * ``M`` induces on the L-graded piece at k the absolute weight
      filtration of the induced operator centered at k, which is
      `_weight_steps` on ``[L_{<k}, L_k]``;
    * ``N M_l <= M_{l-2}`` and ``M_{l-1} <= M_l``.

    `_complete` builds the only candidate and both requirements are
    certified before it is returned.  If it fails, no solution exists: the
    certificate comes from `_squeeze`, which refines lower and upper bounds
    on ``M_l`` to a fixpoint, or else names the candidate's failed axiom.
    """
    op = _as_operator(n)
    d = lfilt.ambient_dim
    if op.dim != d:
        raise ValueError("operator and filtration live on different spaces")
    jumps = lfilt.jumps()
    for k in jumps:
        if not isinstance(k, int):
            raise ValueError(f"relative weight filtrations need integer indices, got {k!r}")
        if not lfilt.value_at(k).contains(op.image(lfilt.value_at(k))):
            raise ValueError("operator does not preserve the auxiliary filtration")
    if not jumps:
        return RelativeMonodromyResult(True, Filtration(d, []), None)

    bottoms = {k: lfilt.value_below(k) for k in jumps}
    weights = {k: _weight_steps(op, bottoms[k], lfilt.value_at(k), k) for k in jumps}
    max_exp = 1 + max(weights[k][-1][0] - k for k in jumps)
    lo = min(jumps) - max_exp
    hi = max(jumps) + max_exp

    # the forced filtration of each graded piece, read in V
    pre = {(k, ell): step_value(weights[k], bottoms[k], ell) for k in jumps for ell in range(lo, hi + 1)}
    full = Subspace.full(d)
    values = _complete(op, weights, pre, lo, hi)
    candidate = Filtration(d, [(ell, values[ell]) for ell in range(lo, hi)] + [(hi, full)])
    failure = _relative_axiom_failure(candidate, op, lfilt, pre, lo, hi)
    if failure is None:
        return RelativeMonodromyResult(True, candidate, None)

    # No solution exists, since the construction is complete.  The squeeze
    # names a violated necessary condition where it finds one; its forced
    # cumulative dimensions of ``M_l ∩ L_k`` are needed only here.
    forced = {
        (k, ell): sum(pre[(kk, ell)].dim - bottoms[kk].dim for kk in jumps if kk <= k)
        for k in jumps
        for ell in range(lo, hi)
    }
    # two zero levels below and two full levels above the range, so that
    # both sweeps read ``ub[ell - 2]`` and ``lb[ell + 2]`` without boundary cases
    edges = {lo - 2: Subspace.zero(d), lo - 1: Subspace.zero(d), hi: full, hi + 1: full}
    lb = {**edges, **{ell: pre[(jumps[0], ell)] for ell in range(lo, hi)}}
    ub = {**edges, **{ell: pre[(jumps[-1], ell)] for ell in range(lo, hi)}}
    certificate = _squeeze(op, lfilt, pre, forced, lb, ub, lo, hi)
    if certificate is None:
        which = "constructed"
        if all(lb[ell] == ub[ell] for ell in range(lo, hi)):
            which = "unique"
            pinned = Filtration(d, [(ell, lb[ell]) for ell in range(lo, hi)] + [(hi, full)])
            failure = _relative_axiom_failure(pinned, op, lfilt, pre, lo, hi)
        level, msg = failure
        certificate = NonexistenceCertificate(level, "axiom", None, f"{which} candidate fails certification: {msg}")
    return RelativeMonodromyResult(False, None, certificate)


def _complete(
    op: NilpotentOperator, weights: Dict[int, List[Tuple[Index, Subspace]]],
    pre: Dict[Tuple[int, int], Subspace], lo: int, hi: int,
) -> Dict[int, Subspace]:
    """The only candidate for the relative weight filtration, at the levels
    ``lo .. hi - 1``, built jump by jump of L.

    Let ``M^A`` be the candidate on ``A = L_{<k}``.  The vectors of
    ``S_j = pre[(k, k + j)] ∩ (N^{j+1})^{-1} M^A_{k-j-2}`` lie in
    ``M_{k+j}`` for any solution M, since ``M ∩ A = M^A`` (Steenbrink–Zucker
    §2); so ``N^i S_j`` lies in ``M_{k+j-2i}``.  Every primitive vector of
    ``Gr^L_k`` of degree j lifts into ``S_j``, so these sums reach the
    dimension of M: the candidate is M whenever M exists.
    """
    zero = Subspace.zero(op.dim)
    values = {ell: zero for ell in range(lo, hi)}
    for k, steps in weights.items():
        fresh: Dict[int, List[Subspace]] = {}
        for j in range(steps[-1][0] - k + 1):
            below = values.get(k - j - 2, zero)
            moved = pre[(k, k + j)].intersect(below.preimage_under(op.power(j + 1)))
            level = k + j
            while not moved.is_zero():
                fresh.setdefault(max(level, lo), []).append(moved)
                moved, level = op.image(moved), level - 2
        added = zero
        for ell in range(lo, hi):
            for moved in fresh.get(ell, ()):
                added = added.sum(moved)
            values[ell] = values[ell].sum(added)
    return values


def _squeeze(
    op: NilpotentOperator,
    lfilt: Filtration,
    pre: Dict[Tuple[int, int], Subspace],
    forced: Dict[Tuple[int, int], int],
    lb: Dict[int, Subspace],
    ub: Dict[int, Subspace],
    lo: int,
    hi: int,
) -> Optional[NonexistenceCertificate]:
    """Refine the bounds ``lb[l] <= M_l <= ub[l]`` of `relative_monodromy`
    in place to a fixpoint; a certificate if a necessary condition fails.

    ``pre[(k, l)]`` is the preimage in ``L_k`` of the forced graded value
    at jump ``k``, ``forced[(k, l)]`` the forced dimension of ``M_l ∩ L_k``.
    ``lb`` and ``ub`` hold the levels ``lo - 2 .. hi + 1``; only
    ``lo .. hi - 1`` are refined.  ``ub[l]`` is large enough once the room
    at the top jump, where L is the whole space, is.
    """
    jumps = lfilt.jumps()
    top = jumps[-1]

    def state_signature() -> Tuple[int, ...]:
        return tuple(ub[e].dim for e in sorted(ub)) + tuple(lb[e].dim for e in sorted(lb))

    while True:
        before = state_signature()
        for ell in range(hi - 1, lo - 1, -1):
            ub[ell] = ub[ell].intersect(ub[ell + 1]).intersect(ub[ell - 2].preimage_under(op.matrix))
        for ell in range(lo, hi):
            lb[ell] = lb[ell].sum(lb[ell - 1]).sum(op.image(lb[ell + 2]))
        for ell in range(lo, hi):
            for k in jumps:
                cap = ub[ell].intersect(pre[(k, ell)])
                need = forced[(k, ell)]
                if cap.dim < need:
                    return NonexistenceCertificate(
                        ell,
                        "dimension-shortfall",
                        k,
                        f"room inside L at jump {k}, level {ell} is {cap.dim} < forced {need}",
                    )
                if cap.dim == need:
                    lb[ell] = lb[ell].sum(cap)
        for ell in range(lo, hi):
            total = forced[(top, ell)]
            if not ub[ell].contains(lb[ell]):
                return NonexistenceCertificate(
                    ell, "containment", None, f"forced vectors escape the upper bound at level {ell}"
                )
            if lb[ell].dim > total:
                return NonexistenceCertificate(
                    ell,
                    "dimension-overflow",
                    None,
                    f"forced lower bound has dimension {lb[ell].dim} > forced total {total}",
                )
            for k in jumps:
                got = lb[ell].intersect(lfilt.value_at(k)).dim
                if got > forced[(k, ell)]:
                    return NonexistenceCertificate(
                        ell,
                        "dimension-overflow",
                        k,
                        f"forced vectors inside L at jump {k}, level {ell}: {got} > {forced[(k, ell)]}",
                    )
        if state_signature() == before:
            return None


def _relative_axiom_failure(
    m: Filtration, op: NilpotentOperator, lfilt: Filtration, pre: Dict[Tuple[int, int], Subspace], lo: int, hi: int
) -> Optional[Tuple[int, str]]:
    """None if ``m`` satisfies both relative axioms, else (level, reason).

    ``m`` induces the forced filtration on ``Gr^L_k`` iff, at each level,
    ``(M_l ∩ L_k) + L_{<k} == pre[(k, l)]``: both are preimages in ``L_k``.
    Below ``lo`` and from ``hi`` on, both sides are ``L_{<k}`` and ``L_k``.
    """
    for ell in m.jumps():
        moved = op.image(m.value_at(ell))
        if not m.value_at(ell - 2).contains(moved):
            return ell, f"operator does not lower the candidate by two at level {ell}"
    for k in lfilt.jumps():
        top, below = lfilt.value_at(k), lfilt.value_below(k)
        for ell in range(lo, hi):
            if m.value_at(ell).intersect(top).sum(below) != pre[(k, ell)]:
                return ell, (
                    f"induced filtration on the graded piece at {k} deviates at level {ell}"
                )
    return None


# -- iterated relative filtrations ------------------------------------------


class IteratedWeightReport(Immutable):
    """Result of comparing the iterated relative filtration with W(sum N_i)."""

    __slots__ = ("holds", "iterated", "total", "certificate")

    def __init__(
        self,
        holds: bool,
        iterated: Optional[Filtration],
        total: Filtration,
        certificate: Optional[NonexistenceCertificate],
    ) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "iterated", iterated)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "certificate", certificate)

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        return f"IteratedWeightReport(holds={self.holds})"


def _weight_of_sum(ops: Sequence[NilpotentOperator]) -> Filtration:
    """The weight filtration, centered at 0, of the sum of commuting operators."""
    total = ops[0].matrix
    for o in ops[1:]:
        total = total + o.matrix
    return monodromy_filtration(NilpotentOperator(total), center=0)


def mf_property(operators: Sequence[OperatorLike]) -> IteratedWeightReport:
    """Does iterating relative weight filtrations reproduce W of the sum?

    The fold runs right to left: start from the absolute filtration of the
    last operator, then take the relative filtration of each earlier
    operator with respect to the accumulated result.  Non-commuting inputs
    are a usage error (ValueError), whereas a missing relative filtration
    is a legitimate *negative outcome* reported with its certificate.
    """
    ops = [_as_operator(o) for o in operators]
    if not ops:
        raise ValueError("need at least one operator")
    d = ops[0].dim
    for o in ops:
        if o.dim != d:
            raise ValueError("operators act on different spaces")
    require_commuting([o.matrix for o in ops])
    total = _weight_of_sum(ops)

    acc = monodromy_filtration(ops[-1], center=0)
    for o in reversed(ops[:-1]):
        res = relative_monodromy(o, acc)
        if not res.exists:
            return IteratedWeightReport(False, None, total, res.certificate)
        acc = res.filtration

    holds = acc.same_subspaces(total)
    return IteratedWeightReport(holds, acc, total, None)


class GradedSumReport(Immutable):
    """Nested graded dimensions of a commuting family versus W(sum)."""

    __slots__ = ("matches", "nested_dims", "total_dims")

    def __init__(
        self,
        matches: bool,
        nested_dims: Dict[Tuple[int, ...], int],
        total_dims: Dict[int, int],
    ) -> None:
        object.__setattr__(self, "matches", matches)
        object.__setattr__(self, "nested_dims", nested_dims)
        object.__setattr__(self, "total_dims", total_dims)

    def __bool__(self) -> bool:
        return self.matches

    def __repr__(self) -> str:
        return f"GradedSumReport(matches={self.matches})"


def graded_sum_decomposition(operators: Sequence[OperatorLike]) -> GradedSumReport:
    """Iterate absolute weight gradings and compare with the sum's grading.

    Grade by the weight filtration of the first operator (centered at 0),
    grade each interval ``[W_{<k}, W_k]`` by the next one, and recurse; the nested
    piece at ``(k_1, ..., k_p)`` should assemble the graded piece of
    ``W(N_1 + ... + N_p)`` at ``k_1 + ... + k_p``.

    >>> z = Matrix.zero(1, 1)
    >>> graded_sum_decomposition([z, z]).nested_dims
    {(0, 0): 1}
    """
    ops = [_as_operator(o) for o in operators]
    if not ops:
        raise ValueError("need at least one operator")
    require_commuting([o.matrix for o in ops])

    nested: Dict[Tuple[int, ...], int] = {}

    # each interval is stable under the later operators, which commute
    def recurse(a: Subspace, b: Subspace, depth: int, prefix: Tuple[int, ...]) -> None:
        below = a
        for k, value in _weight_steps(ops[depth], a, b, 0):
            if depth == len(ops) - 1:
                nested[prefix + (k,)] = value.dim - below.dim
            else:
                recurse(below, value, depth + 1, prefix + (k,))
            below = value

    recurse(Subspace.zero(ops[0].dim), Subspace.full(ops[0].dim), 0, ())

    total_dims = _weight_of_sum(ops).graded_dims()

    assembled: Dict[int, int] = {}
    for key, dim in nested.items():
        s = sum(key)
        assembled[s] = assembled.get(s, 0) + dim
    matches = assembled == {k: v for k, v in total_dims.items() if v}
    return GradedSumReport(matches, nested, total_dims)
