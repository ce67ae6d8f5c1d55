"""Multigraded Rees modules, Koszul complexes, and flatness.

A family of filtrations of V gives rise to a multigraded module over a
polynomial ring in one variable per filtration: the piece at a lattice point
is the intersection of the selected filtration values, a subspace of V, and
each variable acts by the inclusion into the piece one notch higher.
Compatibility of the family is equivalent to flatness of this module, and
flatness in turn is decided through regular sequences, giving a second,
independent oracle against the subquotient-exactness test in
:mod:`weightfilt.filtration`.

A module is stored as its pieces on a finite box of multidegrees.  Below
the box every piece is zero; above it the pieces repeat the top slice, so
accessors clamp: this saturation is what concentrates all homology in the
box (a Koszul complex on which some variable acts invertibly is
null-homotopic).  Every structure map is an inclusion of subspaces of V, so
both regularity routes read the pieces themselves and no map is stored.

Regularity of a sequence of variables is computed two ways that must agree:
stepwise injectivity on successive quotients, and vanishing of higher Koszul
homology of every prefix.  Flatness is likewise computed two ways that must
agree: every permutation regular, and every nonempty subset regular.

The injectivity route works with Zassenhaus sums.  The quotient by the
variables in a set is ``M_p / W_p``, with ``W_p`` the sum of the pieces
``M_{p - e_j}`` over the set, and the next variable maps
``M_{p-e} / W_{p-e}`` into it with rank ``dim(M_{p-e} + W_p) - dim W_p``.
The Koszul route works with ranks.  At ``p`` its component in degree ``-t``
is the direct sum of the pieces ``M_{p - 1_S}`` over the size-t subsets
``S``, a subspace of ``V^C(r, t)``, and its differential is the constant
Koszul differential on those sums of copies of V, restricted (Eisenbud,
*Commutative Algebra*, ch. 17).

Both routes visit only the points where they can learn something.  The
injectivity route walks the nonzero pieces, and ``W_p`` sums only the
nonzero lower pieces.  The Koszul route ranks a complex only at the points
``p`` with some nonempty ``S`` in the variable set and ``M_{p - 1_S} != 0``:
at any other point every negative-degree component ``C_t`` is 0, and
``H_{-t} <= dim C_t``.  Flatness walks the permutations depth first and
remembers which prefix sets pass, so it checks at most ``n 2^(n-1)`` steps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .exact import Immutable, Matrix, Subspace, rank_of_rows
from .filtration import IndexLattice, MultiFiltration

Point = Tuple[int, ...]


class ReesModule:
    """The multigraded Rees module of a family of filtrations.

    ``pieces`` maps each point of the box to its piece, a `Subspace` of the
    ambient space, and the i-th variable acts from ``p - e_i`` into ``p``
    by the inclusion of pieces; read pieces through `piece`.  All zero
    pieces are one shared zero subspace.  ``piece_dims`` maps each box
    point to the dimension of its piece.  The box ends one step above the
    last jump, where every filtration value is already the full space, so
    each top slice repeats the slice below it.
    """

    def __init__(
        self,
        box: Sequence[Tuple[int, int]],
        pieces: Dict[Point, Subspace],
        lattice: Optional[IndexLattice] = None,
    ) -> None:
        self.lattice = lattice
        self.box = tuple(box)
        self.nvars = len(self.box)
        self.ambient_dim = next(iter(pieces.values())).ambient_dim
        self._zero = Subspace.zero(self.ambient_dim)
        self.pieces = {p: s if s.dim else self._zero for p, s in pieces.items()}
        self.piece_dims = {p: s.dim for p, s in self.pieces.items()}
        self._cache: Dict[object, object] = {}

    # -- geometry ---------------------------------------------------------

    def points(self) -> List[Point]:
        return list(product(*(range(lo, hi + 1) for lo, hi in self.box)))

    def interesting_points(self) -> List[Point]:
        """Box points below the top slices, which repeat the ones under them."""
        return list(product(*(range(lo, hi) for lo, hi in self.box)))

    @staticmethod
    def _shift(p: Point, i: int, d: int) -> Point:
        return p[:i] + (p[i] + d,) + p[i + 1 :]

    # -- accessors (zero below the box, clamped above it) ------------------

    def piece(self, p: Point) -> Subspace:
        s = self.pieces.get(p)
        if s is not None:
            return s
        if any(x < lo for x, (lo, _) in zip(p, self.box)):
            return self._zero
        return self.pieces[tuple(min(x, hi) for x, (_, hi) in zip(p, self.box))]

    def piece_dim(self, p: Point) -> int:
        return self.piece(p).dim

    def __repr__(self) -> str:
        return f"ReesModule(nvars={self.nvars}, box={self.box})"


def rees_of(mf: MultiFiltration) -> ReesModule:
    """The multigraded module of a family of filtrations.

    All filtrations are reindexed through one shared integer enumeration of
    the union of their fractional offsets.  The box extends one step below
    the first jump (a zero slice) and one step above the last (a saturated
    slice), so the accessors' boundary conventions are visible inside the
    box itself.  The piece at ``(p_1, ..., p_k)`` is the piece at
    ``(p_1, ..., p_{k-1})`` cut by one more value: one intersection each.
    """
    fracs = set()
    for f in mf.filtrations:
        fracs.update(f.fractional_offsets())
    lat = IndexLattice(fracs)

    box: List[Tuple[int, int]] = []
    for f in mf.filtrations:
        ks = [lat.phi_inv(x) for x in f.jumps()]
        if not ks:
            ks = [0]
        box.append((min(ks) - 1, max(ks) + 1))

    spaces: Dict[Point, Subspace] = {(): Subspace.full(mf.ambient_dim)}
    for f, (lo, hi) in zip(mf.filtrations, box):
        values = [(k, f.value_at(lat.phi(k))) for k in range(lo, hi + 1)]
        spaces = {q + (k,): s.intersect(v) for q, s in spaces.items() for k, v in values}
    return ReesModule(box, spaces, lat)


@lru_cache(maxsize=None)
def _faces(r: int, t: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The signs of the Koszul differential from degree ``-t`` to ``1 - t``.

    For each size-t subset ``S`` of ``range(r)``, in `combinations` order,
    the pairs ``(sign, k)`` over ``j`` in ``S``: ``k`` is the position of
    ``S - {j}`` among the size-(t-1) subsets, and the sign is -1 to the
    power of the position of ``j`` in ``S``.
    """
    index = {T: k for k, T in enumerate(combinations(range(r), t - 1))}
    return tuple(
        tuple((-1 if pos % 2 else 1, index[S[:pos] + S[pos + 1 :]]) for pos in range(t))
        for S in combinations(range(r), t)
    )


class KoszulComplexData:
    """The Koszul complex of a sequence of variables at one multidegree.

    Components sit in degrees ``-len(seq) .. 0``; the component in degree
    ``-t`` is the direct sum, over the size-t subsets ``S`` of the sorted
    sequence, of the pieces at the multidegree lowered by the indicator of
    ``S``.  It is a subspace of ``V^C(r, t)``, and the complex is a
    subcomplex of the constant Koszul complex on those sums of copies of V:
    ``d_t`` sends ``v`` in block ``S`` to ``(-1)^pos v`` in block
    ``S - {j}`` for the j at each position ``pos`` of ``S``, and
    ``M_{p - 1_S} <= M_{p - 1_{S - {j}}}`` keeps each component inside the
    next.  ``d * d == 0`` on the constant complex, because each
    ``S - {j, k}`` is reached once through j and once through k, with
    opposite signs, so it holds on the subcomplex.  ``differentials`` are
    the constant differentials, built when read; `homology` ranks their
    restrictions to the components.
    """

    def __init__(self, rees: ReesModule, seq: Sequence[int], multidegree: Point) -> None:
        self.seq = tuple(seq)
        self.multidegree = tuple(multidegree)
        if any(not 0 <= v < rees.nvars for v in self.seq):
            raise ValueError("variable index out of range")
        if len(set(self.seq)) != len(self.seq):
            raise ValueError("variable sequence must not repeat")
        self.ambient_dim = rees.ambient_dim
        m, svars = self.multidegree, sorted(self.seq)
        self.components = tuple(
            tuple(rees.piece(tuple(x - (i in S) for i, x in enumerate(m))) for S in combinations(svars, t))
            for t in range(len(svars) + 1)
        )
        self.component_dims = tuple(sum(s.dim for s in row) for row in self.components)

    @property
    def differentials(self) -> Tuple[Matrix, ...]:
        """``d_t`` from ``V^C(r, t)`` to ``V^C(r, t-1)``, for t = 1 .. r."""
        n, r = self.ambient_dim, len(self.seq)
        out = []
        for t in range(1, r + 1):
            faces = _faces(r, t)
            nrows = n * len(self.components[t - 1])
            grid = [[0] * (n * len(faces)) for _ in range(nrows)]
            for s, signs in enumerate(faces):
                for sign, k in signs:
                    for a in range(n):
                        grid[k * n + a][s * n + a] = sign
            out.append(Matrix(grid, nrows, n * len(faces)))
        return tuple(out)

    def _rank(self, t: int) -> int:
        """Rank of ``d_t`` on the component in degree ``-t``: the rank of the
        rows that put plus or minus each basis row of ``M_{p - 1_S}`` into
        each block ``S - {j}``."""
        n = self.ambient_dim
        width = n * len(self.components[t - 1])
        rows = []
        for s, signs in zip(self.components[t], _faces(len(self.seq), t)):
            # a piece with a non-real Gaussian entry keeps no integer rows
            for b in s._rows if s._rows is not None else s.basis:
                row = [0] * width
                for sign, k in signs:
                    row[k * n : k * n + n] = b if sign > 0 else [-x for x in b]
                rows.append(row)
        return rank_of_rows(rows)

    def homology(self) -> Dict[int, int]:
        """Dimensions of homology, keyed by (non-positive) degree.

        A differential out of a zero component has rank 0 and is not ranked.
        """
        dims = self.component_dims
        ranks = [0] + [self._rank(t) if dims[t] else 0 for t in range(1, len(dims))] + [0]
        return {-t: dims[t] - ranks[t] - ranks[t + 1] for t in range(len(dims))}

    def __repr__(self) -> str:
        return f"KoszulComplexData(seq={self.seq}, multidegree={self.multidegree})"


def koszul_homology(rees: ReesModule, seq: Sequence[int], multidegree: Point) -> Dict[int, int]:
    """Koszul homology dimensions at one multidegree.

    Degree 0 carries the quotient by the images of the selected variables;
    the sequence is regular exactly when all strictly negative degrees
    vanish at every multidegree.
    """
    return KoszulComplexData(rees, seq, multidegree).homology()


# -- regularity ------------------------------------------------------------


def _support(rees: ReesModule) -> List[Point]:
    """The interesting points whose piece is nonzero."""
    key = ("support",)
    if key not in rees._cache:
        rees._cache[key] = [p for p in rees.interesting_points() if rees.piece_dims[p]]
    return rees._cache[key]  # type: ignore[return-value]


def _image_sums(rees: ReesModule, varset: FrozenSet[int]) -> Dict[Point, Subspace]:
    """Per point of the support, the sum ``W_p`` of the pieces ``M_{p - e_j}``
    over the variables j in ``varset``.

    Only the nonzero lower pieces are summed.  At every other interesting
    point ``W_p`` is 0, since ``W_p <= M_p``, and it is not stored.
    """
    key = ("images", varset)
    if key not in rees._cache:
        sums: Dict[Point, Subspace] = {}
        for p in _support(rees):
            lower = [s for s in (rees.piece(rees._shift(p, j, -1)) for j in varset) if s.dim]
            w = lower[0] if lower else rees._zero
            for s in lower[1:]:
                w = w.sum(s)
            sums[p] = w
        rees._cache[key] = sums
    return rees._cache[key]  # type: ignore[return-value]


def _step_injective(rees: ReesModule, varset: FrozenSet[int], nxt: int) -> bool:
    """Is the next variable injective on the quotient by ``varset``?

    With x the next variable, e its unit vector and ``W`` the image sums,
    ``W_{p-e} <= W_p`` because the pieces nest.  So x is injective at
    ``p - e`` iff
    ``dim(M_{p-e} + W_p) - dim W_p == dim M_{p-e} - dim W_{p-e}``.
    Only a nonzero source piece can fail, so the walk runs over the support,
    and the target of a nonzero piece is nonzero.
    """
    key = ("inj", varset, nxt)
    cached = rees._cache.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    sums = _image_sums(rees, varset)
    top = rees.box[nxt][1] - 1
    verdict = True
    for src_p in _support(rees):
        src_dim = rees.piece_dims[src_p] - sums[src_p].dim
        if src_p[nxt] == top or src_dim == 0:
            # the top slice repeats the one below it
            continue
        w = sums[rees._shift(src_p, nxt, 1)]
        if rees.pieces[src_p].sum(w).dim - w.dim != src_dim:
            verdict = False
            break
    rees._cache[key] = verdict
    return verdict


def _koszul_points(rees: ReesModule, varset: FrozenSet[int]) -> Set[Point]:
    """Interesting points with a nonzero Koszul component in negative degree.

    These are the points ``q + 1_S`` with ``M_q != 0`` and ``S`` a nonempty
    subset of ``varset``.  ``reach`` dilates the support by one variable at
    a time (``S`` may be empty), and ``hit`` keeps the points reached by at
    least one step.  Points past the interesting ones are dropped as they
    appear: dilating only raises coordinates, so it never comes back.
    """
    reach = set(_support(rees))
    hit: Set[Point] = set()
    for v in varset:
        top = rees.box[v][1] - 1
        step = {rees._shift(p, v, 1) for p in reach if p[v] < top}
        hit |= step
        reach |= step
    return hit


def _koszul_prefix_exact(rees: ReesModule, varset: FrozenSet[int]) -> bool:
    """Does the Koszul complex on ``varset`` resolve its degree-0 quotient?

    Only the points of `_koszul_points` are ranked: at every other point
    each negative-degree component ``C_t`` is 0, and ``H_{-t} <= dim C_t``.
    """
    key = ("koszul", varset)
    cached = rees._cache.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    seq = sorted(varset)
    verdict = True
    for p in sorted(_koszul_points(rees, varset)):
        hom = koszul_homology(rees, seq, p)
        if any(hom[d] for d in hom if d < 0):
            verdict = False
            break
    rees._cache[key] = verdict
    return verdict


class RegularityCertificate(Immutable):
    """Verdict of the two-route regular-sequence test."""

    __slots__ = ("regular", "sequence", "failed_prefix")

    def __init__(self, regular: bool, sequence: Tuple[int, ...], failed_prefix: Optional[Tuple[int, ...]]) -> None:
        object.__setattr__(self, "regular", regular)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "failed_prefix", failed_prefix)

    def __bool__(self) -> bool:
        return self.regular

    def __repr__(self) -> str:
        if self.regular:
            return f"RegularityCertificate(regular, seq={self.sequence})"
        return f"RegularityCertificate(fails at prefix {self.failed_prefix})"


def is_regular_sequence(rees: ReesModule, seq: Sequence[int]) -> RegularityCertificate:
    """Two-route regularity test; the routes are required to agree.

    Route one checks, prefix by prefix, that the next variable acts
    injectively on the quotient by the previous ones.  Route two checks
    that the Koszul complex of every prefix has vanishing higher homology.
    A disagreement would mean an implementation bug, not a property of the
    input, hence the hard error.
    """
    s = tuple(seq)
    if any(not 0 <= v < rees.nvars for v in s):
        raise ValueError("variable index out of range")
    if len(set(s)) != len(s):
        raise ValueError("variable sequence must not repeat")

    inj_ok = True
    inj_fail: Optional[Tuple[int, ...]] = None
    for p in range(len(s)):
        if not _step_injective(rees, frozenset(s[:p]), s[p]):
            inj_ok = False
            inj_fail = s[: p + 1]
            break

    kos_ok = True
    kos_fail: Optional[Tuple[int, ...]] = None
    for p in range(len(s)):
        if not _koszul_prefix_exact(rees, frozenset(s[: p + 1])):
            kos_ok = False
            kos_fail = s[: p + 1]
            break

    if inj_ok != kos_ok:
        raise AssertionError(
            f"regularity routes disagree on {s}: injectivity={inj_ok}, Koszul={kos_ok}"
        )
    return RegularityCertificate(inj_ok, s, inj_fail or kos_fail)


class FlatnessCertificate(Immutable):
    """Verdict of the two-route flatness test for a multigraded module."""

    __slots__ = ("flat", "witness_kind", "witness")

    def __init__(self, flat: bool, witness_kind: Optional[str], witness: Optional[Tuple[int, ...]]) -> None:
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "witness_kind", witness_kind)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.flat

    def __repr__(self) -> str:
        if self.flat:
            return "FlatnessCertificate(flat)"
        return f"FlatnessCertificate(fails: {self.witness_kind} {self.witness})"


def _first_irregular_permutation(rees: ReesModule) -> Optional[Tuple[int, ...]]:
    """The first order of the variables, lexicographically, that fails a
    step of either regularity route, or None.

    A step's checks on both routes depend only on the set of variables
    before it and the next variable, so the orders through a prefix all
    pass exactly when those through any other order of the same set do.
    The depth-first walk in lexicographic order therefore remembers the
    prefix sets below which every order passes, and takes at most
    ``n 2^(n-1)`` steps instead of ``n n!``.  Once a step fails on either
    route, so does every order through it, the first being the rest of
    the variables in increasing order.
    """
    n = rees.nvars
    passed: Set[FrozenSet[int]] = set()

    def walk(prefix: Tuple[int, ...], done: FrozenSet[int]) -> Optional[Tuple[int, ...]]:
        for v in range(n):
            if v in done:
                continue
            head, upto = prefix + (v,), done | {v}
            if not (_step_injective(rees, done, v) and _koszul_prefix_exact(rees, upto)):
                return head + tuple(u for u in range(n) if u not in upto)
            if upto not in passed:
                found = walk(head, upto)
                if found is not None:
                    return found
        passed.add(done)
        return None

    return walk((), frozenset())


def is_flat(rees: ReesModule) -> FlatnessCertificate:
    """Flatness via regular sequences, computed two ways that must agree:
    every permutation of the variables is regular, and every nonempty
    subset (in increasing order) is regular.
    """
    n = rees.nvars
    perm_fail = _first_irregular_permutation(rees)
    if perm_fail is not None:
        # raises if the two regularity routes disagree on it
        is_regular_sequence(rees, perm_fail)

    subset_fail: Optional[Tuple[int, ...]] = None
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            if not is_regular_sequence(rees, S).regular:
                subset_fail = S
                break
        if subset_fail is not None:
            break

    perm_ok = perm_fail is None
    subset_ok = subset_fail is None
    if perm_ok != subset_ok:
        raise AssertionError(
            f"flatness routes disagree: permutations={perm_ok}, subsets={subset_ok}"
        )
    if perm_ok:
        return FlatnessCertificate(True, None, None)
    if subset_fail is not None:
        return FlatnessCertificate(False, "subset", subset_fail)
    return FlatnessCertificate(False, "permutation", perm_fail)


def compatibility_via_flatness(mf: MultiFiltration) -> FlatnessCertificate:
    """Second compatibility oracle: the family is compatible iff its
    multigraded module is flat.  Callers compare this against the
    subquotient-exactness verdict; the two must never be merged here.
    """
    return is_flat(rees_of(mf))
