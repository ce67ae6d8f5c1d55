"""Multigraded Rees-type modules, Koszul complexes, and flatness.

A family of filtrations gives rise to a multigraded module over a polynomial
ring in one variable per filtration: the graded piece at a lattice point is
the intersection of the selected filtration values, and each variable acts
by the inclusion into the piece one notch higher.  Compatibility of the
family is equivalent to flatness of this module, and flatness in turn is
decided through regular sequences, giving a second, independent oracle
against the subquotient-exactness test in :mod:`weightfilt.filtration`.

Modules are stored on a finite box of multidegrees.  Below the box every
piece is zero; above it the structure maps are isomorphisms, so accessors
clamp: this saturation is what concentrates all homology in the box (a
Koszul complex on which some variable acts invertibly is null-homotopic).

Regularity of a sequence of variables is computed two ways that must agree:
stepwise injectivity on successive quotients, and vanishing of higher Koszul
homology of every prefix.  Flatness is likewise computed two ways that must
agree: every permutation regular, and every nonempty subset regular.
The injectivity route compares dimensions only: when ``m(A') <= B'``, the
map ``A/A' -> B/B'`` induced by ``m`` has rank ``dim(m(A) + B') - dim B'``.

Both regularity routes visit only the points where they can learn
something, each from the piece dimensions alone, so hand-built modules are
treated alike.  The injectivity route takes the image sum ``W_p`` as 0 at
a zero piece and sums only the images of variables whose source piece is
nonzero.  The Koszul route ranks a complex only at the points ``p`` with
some nonempty ``S`` in the variable set and ``M_{p - 1_S} != 0``: at any
other point every negative-degree component ``C_t`` is 0, and
``H_{-t} <= dim C_t``.  Flatness walks the permutations depth first and
remembers which prefix sets pass, so it checks at most ``n 2^(n-1)`` steps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .exact import Immutable, Matrix, Subspace, image_of, sum_of
from .filtration import IndexLattice, MultiFiltration

Point = Tuple[int, ...]


class ReesModule:
    """A finitely supported multigraded module with saturated top boundary.

    piece_dims maps each box point to the dimension of its graded piece and
    maps[(point, i)] is the matrix of the i-th variable acting from
    ``point - e_i`` into ``point``; read maps through `map_matrix`.  The
    structure maps must commute: a hand-built module has every square
    checked at construction, while `rees_of` skips the check because its
    squares commute by construction.  ``saturated_top[i]`` records whether
    the i-th variable acts by the identity on the top slice of the box.  A
    hand-built module has this tested, and every missing map filled in as
    a zero map and every map's shape checked.  With ``validate=False``,
    used only by `rees_of`, none of this runs: ``maps`` holds only the
    nonzero maps (`map_matrix` gives the zero map out of or into a zero
    piece), every shape is right by construction, and every
    ``saturated_top`` entry is True, because that box ends one step above
    the last jump, where every filtration value is already the full space.
    """

    def __init__(
        self,
        nvars: int,
        box: Sequence[Tuple[int, int]],
        piece_dims: Dict[Point, int],
        maps: Dict[Tuple[Point, int], Matrix],
        validate: bool = True,
        lattice: Optional[IndexLattice] = None,
    ) -> None:
        self.lattice = lattice
        self.nvars = nvars
        self.box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(self.box) != nvars:
            raise ValueError("box must have one interval per variable")
        for lo, hi in self.box:
            if lo > hi:
                raise ValueError("empty box interval")
        self.maps = dict(maps)
        self._cache: Dict[object, object] = {}
        if not validate:
            # rees_of gives a piece at every box point and only the nonzero
            # maps, each of its shape; map_matrix supplies the zero maps
            self.piece_dims = dict(piece_dims)
            self.saturated_top = (True,) * nvars
            return
        self.piece_dims = {p: piece_dims[p] for p in self.points() if p in piece_dims}
        for p in self.points():
            if p not in self.piece_dims:
                raise ValueError(f"missing piece dimension at {p}")
            for i in range(nvars):
                key = (p, i)
                src = self.piece_dim(self._shift(p, i, -1))
                tgt = self.piece_dims[p]
                if key not in self.maps:
                    self.maps[key] = Matrix.zero(tgt, src)
                m = self.maps[key]
                if (m.rows, m.cols) != (tgt, src):
                    raise ValueError(f"map at {key} has shape {(m.rows, m.cols)}, expected {(tgt, src)}")
        self.saturated_top = tuple(self._top_is_identity(i) for i in range(nvars))
        self._check_squares()

    # -- geometry ---------------------------------------------------------

    def points(self) -> List[Point]:
        return list(product(*(range(lo, hi + 1) for lo, hi in self.box)))

    def interesting_points(self) -> List[Point]:
        """Box points not duplicated by a saturated top slice."""
        ranges = []
        for (lo, hi), sat in zip(self.box, self.saturated_top):
            ranges.append(range(lo, hi + (0 if sat else 1)))
        return list(product(*ranges))

    @staticmethod
    def _shift(p: Point, i: int, d: int) -> Point:
        return p[:i] + (p[i] + d,) + p[i + 1 :]

    def _clamp(self, p: Point) -> Point:
        return tuple(min(x, hi) for x, (_, hi) in zip(p, self.box))

    # -- accessors (zero below the box, clamped above it) ------------------

    def piece_dim(self, p: Point) -> int:
        d = self.piece_dims.get(p)
        if d is not None:
            return d
        if any(x < lo for x, (lo, _) in zip(p, self.box)):
            return 0
        return self.piece_dims[self._clamp(p)]

    def map_matrix(self, p: Point, i: int) -> Matrix:
        """Matrix of the i-th variable acting from ``p - e_i`` into ``p``."""
        tgt = self.piece_dim(p)
        src = self.piece_dim(self._shift(p, i, -1))
        if src == 0 or tgt == 0:
            return Matrix.zero(tgt, src)
        if p[i] > self.box[i][1]:
            return Matrix.identity(tgt)
        return self.maps[(self._clamp(p), i)]

    # -- validation ---------------------------------------------------------

    def _top_is_identity(self, i: int) -> bool:
        lo_i, hi_i = self.box[i]
        for p in self.points():
            if p[i] != hi_i:
                continue
            m = self.map_matrix(p, i)
            if m.rows != m.cols or m != Matrix.identity(m.rows):
                return False
        return True

    def _check_squares(self) -> None:
        for p in self.points():
            for i in range(self.nvars):
                for j in range(i + 1, self.nvars):
                    a = self.map_matrix(p, i) * self.map_matrix(self._shift(p, i, -1), j)
                    b = self.map_matrix(p, j) * self.map_matrix(self._shift(p, j, -1), i)
                    if a != b:
                        raise ValueError(f"structure maps do not commute at {p} in directions {(i, j)}")

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

    # only the nonzero maps: map_matrix gives the zero ones
    maps: Dict[Tuple[Point, int], Matrix] = {}
    for p, tgt in spaces.items():
        for i in range(len(mf)):
            src = spaces.get(ReesModule._shift(p, i, -1))
            if src is not None and src.dim:
                cols = [tgt.rref_coordinates(b) for b in src.basis]
                maps[(p, i)] = Matrix.from_columns(cols, tgt.dim)

    # No square check: each stored map is tgt.rref_coordinates(b) for b in
    # src.basis, with src <= tgt because values of validated increasing
    # filtrations nest, so both paths around a square are the coordinate
    # matrix of one inclusion.
    return ReesModule(len(mf), box, {p: s.dim for p, s in spaces.items()}, maps, validate=False, lattice=lat)


class KoszulComplexData:
    """The Koszul complex of a sequence of variables at one multidegree.

    Components sit in degrees ``-len(seq) .. 0``; the component in degree
    ``-t`` is the direct sum over size-t subsets ``S`` of the pieces at the
    multidegree lowered by the indicator of ``S``.  ``d * d == 0`` holds
    by construction: the module's squares commute (checked for a hand-built
    module, true by construction for `rees_of`) and the signs alternate.
    """

    def __init__(self, rees: ReesModule, seq: Sequence[int], multidegree: Point) -> None:
        self.seq = tuple(seq)
        self.multidegree = tuple(multidegree)
        if len(set(self.seq)) != len(self.seq):
            raise ValueError("variable sequence must not repeat")
        svars = sorted(self.seq)
        r = len(svars)

        layout: List[List[Tuple[Tuple[int, ...], int, int]]] = []
        for t in range(r + 1):
            row: List[Tuple[Tuple[int, ...], int, int]] = []
            off = 0
            for S in combinations(svars, t):
                p = self._lowered(multidegree, S)
                d = rees.piece_dim(p)
                row.append((S, d, off))
                off += d
            layout.append(row)
        self.component_dims = tuple(sum(d for _, d, _ in row) for row in layout)

        diffs: List[Matrix] = []
        for t in range(1, r + 1):
            src_row = layout[t]
            tgt_row = layout[t - 1]
            tgt_off = {S: (d, off) for S, d, off in tgt_row}
            total_src = self.component_dims[t]
            total_tgt = self.component_dims[t - 1]
            if not total_src or not total_tgt:
                # no columns or no rows: the zero map, of rank 0 by shape
                diffs.append(Matrix.zero(total_tgt, total_src))
                continue
            grid: List[List[Fraction]] = [
                [Fraction(0)] * total_src for _ in range(total_tgt)
            ]
            for S, sdim, soff in src_row:
                if sdim == 0:
                    continue
                for pos, j in enumerate(S):
                    T = tuple(v for v in S if v != j)
                    tdim, toff = tgt_off[T]
                    if tdim == 0:
                        continue
                    block = rees.map_matrix(self._lowered(multidegree, T), j)
                    sign = -1 if pos % 2 else 1
                    for a in range(tdim):
                        row = block.entries[a]
                        for b in range(sdim):
                            if row[b]:
                                grid[toff + a][soff + b] = sign * row[b]
            diffs.append(Matrix(grid, total_tgt, total_src))
        self.differentials = tuple(diffs)

    @staticmethod
    def _lowered(m: Point, S: Sequence[int]) -> Point:
        return tuple(x - (1 if i in S else 0) for i, x in enumerate(m))

    def homology(self) -> Dict[int, int]:
        """Dimensions of homology, keyed by (non-positive) degree."""
        r = len(self.seq)
        ranks = [m.rank() for m in self.differentials]
        out: Dict[int, int] = {}
        for t in range(r + 1):
            d_out = ranks[t - 1] if t >= 1 else 0
            d_in = ranks[t] if t < r else 0
            out[-t] = self.component_dims[t] - d_out - d_in
        return out

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


def _image_sums(rees: ReesModule, varset: FrozenSet[int]) -> Dict[Point, Subspace]:
    """Per point, the sum ``W_p`` of the images of the variables in ``varset``.

    ``W_p`` is 0 at a zero piece, and a variable whose source piece is 0
    adds nothing, so only the images of the others are summed.
    """
    key = ("images", varset)
    if key not in rees._cache:
        sums: Dict[Point, Subspace] = {}
        for p in rees.interesting_points():
            d = rees.piece_dim(p)
            sources = [j for j in varset if rees.piece_dim(rees._shift(p, j, -1))] if d else []
            sums[p] = sum_of([image_of(rees.map_matrix(p, j)) for j in sources], d)
        rees._cache[key] = sums
    return rees._cache[key]  # type: ignore[return-value]


def _step_injective(rees: ReesModule, varset: FrozenSet[int], nxt: int) -> bool:
    """Is the next variable injective on the quotient by ``varset``?

    With x the next variable, e its unit vector and ``W`` the image sums,
    ``x(W_{p-e}) <= W_p`` because x commutes with each ``x_j`` in ``varset``.
    So x is injective at ``p - e`` iff
    ``dim(x(M_{p-e}) + W_p) - dim W_p == dim M_{p-e} - dim W_{p-e}``.
    """
    key = ("inj", varset, nxt)
    cached = rees._cache.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    sums = _image_sums(rees, varset)
    verdict = True
    for p, w in sums.items():
        src_p = rees._shift(p, nxt, -1)
        src_w = sums.get(src_p)
        if src_w is None:
            # only happens below the box, where the source piece is zero
            assert rees.piece_dim(src_p) == 0
            continue
        src_dim = rees.piece_dim(src_p) - src_w.dim
        if src_dim == 0:
            continue
        rank = image_of(rees.map_matrix(p, nxt)).sum(w).dim - w.dim
        if rank != src_dim:
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
    tops = [hi - 1 if sat else hi for (_, hi), sat in zip(rees.box, rees.saturated_top)]
    reach = {p for p in rees.interesting_points() if rees.piece_dims[p]}
    hit: Set[Point] = set()
    for v in varset:
        step = {rees._shift(p, v, 1) for p in reach if p[v] < tops[v]}
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
