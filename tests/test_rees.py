"""Blowup modules, Koszul homology, and the flatness compatibility oracle.

This file holds the *other* route to filtration compatibility (flatness of
the blowup module over the variable action) plus the explicit agreement
checks between the two routes.  The subquotient route itself is tested in
test_filtration.py; the two implementations share nothing but `Subspace`.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightfilt import rees as rees_module
from weightfilt.document import MAX_FAMILY_SIZE
from weightfilt.exact import Matrix, QuotientPresentation, Subspace, image_of, sum_of
from weightfilt.filtration import (
    Filtration,
    MultiFiltration,
    compatible_filtrations,
    graded_piece,
)
from weightfilt.rees import (
    KoszulComplexData,
    ReesModule,
    _first_irregular_permutation,
    _image_sums,
    _koszul_prefix_exact,
    _step_injective,
    compatibility_via_flatness,
    is_flat,
    is_regular_sequence,
    koszul_homology,
    rees_of,
)

from references import reference_image_sums, reference_is_flat, reference_koszul_prefix_exact
from strategies import multifiltrations, random_filtration, random_unimodular, two_step_filtration


def _line(a, b):
    return Subspace.span([(Fraction(a), Fraction(b))], 2)


def pair_mf():
    return MultiFiltration([two_step_filtration(_line(1, 0)), two_step_filtration(_line(1, 1))])


def three_lines_mf():
    return MultiFiltration(
        [two_step_filtration(_line(1, 0)), two_step_filtration(_line(0, 1)), two_step_filtration(_line(1, 1))]
    )


class TestReesModule:
    def test_box_has_margins(self):
        rees = rees_of(pair_mf())
        for lo, hi in rees.box:
            assert hi - lo >= 2  # one step below the first jump, one above the last

    def test_zero_below_box_and_clamp_above(self):
        rees = rees_of(pair_mf())
        lo0 = rees.box[0][0]
        hi0 = rees.box[0][1]
        below = (lo0 - 3,) + tuple(hi for _, hi in rees.box[1:])
        assert rees.piece_dim(below) == 0
        above = (hi0 + 5,) + tuple(hi for _, hi in rees.box[1:])
        assert rees.piece_dim(above) == rees.piece_dim((hi0,) + tuple(hi for _, hi in rees.box[1:]))

    def test_top_piece_is_the_whole_space(self):
        mf = pair_mf()
        rees = rees_of(mf)
        top = tuple(hi for _, hi in rees.box)
        assert rees.piece_dim(top) == mf.ambient_dim

    def test_map_above_box_is_identity(self):
        rees = rees_of(pair_mf())
        hi = tuple(h for _, h in rees.box)
        past = (hi[0] + 3,) + hi[1:]
        m = rees.map_matrix(past, 0)
        assert m == Matrix.identity(rees.piece_dim(hi))

    def test_squares_commute(self):
        mf = pair_mf()
        rees = rees_of(mf)
        for p in rees.points():
            for i in range(rees.nvars):
                for j in range(i + 1, rees.nvars):
                    pi = p[:i] + (p[i] - 1,) + p[i + 1 :]
                    pj = p[:j] + (p[j] - 1,) + p[j + 1 :]
                    left = rees.map_matrix(p, i) * rees.map_matrix(pi, j)
                    right = rees.map_matrix(p, j) * rees.map_matrix(pj, i)
                    assert left == right

    def test_rejects_noncommuting_squares(self):
        # 1-dim pieces with maps that cannot commute: x then y gives 1, y then x gives 2
        dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        one = Matrix([[Fraction(1)]])
        two = Matrix([[Fraction(2)]])
        maps = {
            ((1, 0), 0): one,
            ((0, 1), 1): one,
            ((1, 1), 0): one,   # from (0,1)
            ((1, 1), 1): two,   # from (1,0)
        }
        with pytest.raises(ValueError):
            ReesModule(2, [(0, 1), (0, 1)], dims, maps, validate=True)


class TestKoszul:
    def test_differential_squares_to_zero_recheck(self):
        mf = pair_mf()
        rees = rees_of(mf)
        for pt in rees.points():
            data = KoszulComplexData(rees, [0, 1], pt)
            for t in range(1, len(data.differentials)):
                assert (data.differentials[t - 1] * data.differentials[t]).is_zero()

    def test_homology_keys_and_bounds(self):
        rees = rees_of(pair_mf())
        hom = koszul_homology(rees, [0, 1], (1, 1))
        assert set(hom) == {0, -1, -2}
        assert all(v >= 0 for v in hom.values())

    def test_regular_on_compatible_pair(self):
        rees = rees_of(pair_mf())
        for seq in permutations(range(2)):
            cert = is_regular_sequence(rees, list(seq))
            assert cert.regular and cert.failed_prefix is None

    def test_not_regular_on_three_lines(self):
        rees = rees_of(three_lines_mf())
        results = [is_regular_sequence(rees, list(seq)).regular for seq in permutations(range(3))]
        assert not all(results)

    def test_repeated_variable_rejected(self):
        rees = rees_of(pair_mf())
        with pytest.raises(ValueError):
            KoszulComplexData(rees, [0, 0], (0, 0))


class TestFlatness:
    def test_flat_on_pair(self):
        cert = is_flat(rees_of(pair_mf()))
        assert cert.flat and cert.witness_kind is None

    def test_not_flat_on_three_lines_with_witness(self):
        cert = is_flat(rees_of(three_lines_mf()))
        assert not cert.flat
        assert cert.witness_kind in ("permutation", "subset")
        assert cert.witness is not None

    @given(multifiltrations(max_count=3, max_dim=3))
    @settings(max_examples=25, deadline=None)
    def test_flatness_agrees_with_subquotient_route(self, mf):
        flat = compatibility_via_flatness(mf).flat
        compat = compatible_filtrations(mf).compatible
        assert flat == compat

    @given(multifiltrations(max_count=2, max_dim=4))
    @settings(max_examples=25, deadline=None)
    def test_pairs_are_flat(self, mf):
        if len(mf) <= 2:
            assert compatibility_via_flatness(mf).flat

    def test_graded_dims_match_koszul_degree_zero_when_flat(self):
        # H^0 of the full-variable Koszul complex at a lattice point is the
        # multigraded piece of the associated graded; on flat modules its
        # dimension must equal the closed-form subquotient dimension.
        mf = pair_mf()
        rees = rees_of(mf)
        lat_points = list(mf.jump_lattice())
        for point in lat_points:
            k = tuple(rees.lattice.phi_inv(x) for x in point)
            hom = koszul_homology(rees, list(range(rees.nvars)), k)
            assert hom[0] == graded_piece(mf, point).dim


def _reference_step_injective(rees, varset, nxt):
    """The induced-matrix step test that `_step_injective` replaced.

    At every point, present the quotient of the piece by the images of
    ``varset`` with coset representatives, and rank the matrix that the
    next variable induces between consecutive quotients.
    """
    quots = {}
    for p in rees.interesting_points():
        d = rees.piece_dim(p)
        images = [image_of(rees.map_matrix(p, j)) for j in varset]
        quots[p] = QuotientPresentation(Subspace.full(d), sum_of(images, d))
    for p, tgt in quots.items():
        src = quots.get(rees._shift(p, nxt, -1))
        if src is None or src.dim == 0:
            continue
        if src.induced_matrix(rees.map_matrix(p, nxt), tgt).rank() != src.dim:
            return False
    return True


def _recoordinatized(rees, rng, keep_top):
    """A hand-built copy of ``rees`` with piece p in new coordinates g_p.

    Each map m into p from q = p - e_i becomes ``g_p m g_q^{-1}``.  With
    ``keep_top`` the top slice of every axis shares its g with the slice
    below, so the top maps stay identities; otherwise they become other
    isomorphisms and the module is no longer saturated at the top.
    """
    def slot(p):
        if not keep_top:
            return p
        return tuple(x - 1 if x == hi else x for x, (_, hi) in zip(p, rees.box))

    gs = {}

    def g(p):
        k = slot(p)
        if k not in gs:
            scale = Fraction(rng.choice((1, -1, 2, -3)))
            gs[k] = scale * random_unimodular(rng, rees.piece_dim(k), rounds=3)
        return gs[k]

    maps = {}
    for (p, i), m in rees.maps.items():
        if m.rows and m.cols:
            m = g(p) * m * g(rees._shift(p, i, -1)).inverse()
        maps[(p, i)] = m
    return ReesModule(rees.nvars, rees.box, rees.piece_dims, maps, validate=True)


def _subsets_and_next(n):
    for size in range(n):
        for varset in combinations(range(n), size):
            for nxt in range(n):
                if nxt not in varset:
                    yield frozenset(varset), nxt


def _seeded_family(seed):
    # hypothesis' own draws give few incompatible families (about 1 in 15);
    # three seeded random filtrations of a 2- or 3-space give about 1 in 3
    rng = random.Random(seed)
    dim = rng.randint(2, 3)
    return MultiFiltration([random_filtration(rng, dim) for _ in range(3)])


class TestStepByDimension:
    """`_step_injective` decides by dimension what the reference ranks."""

    @given(
        mf=st.one_of(multifiltrations(), st.integers(min_value=0, max_value=10**6).map(_seeded_family)),
        seed=st.integers(min_value=0, max_value=2**32),
        keep_top=st.booleans(),
    )
    @example(mf=three_lines_mf(), seed=0, keep_top=True)
    @example(mf=three_lines_mf(), seed=1, keep_top=False)
    @example(mf=pair_mf(), seed=2, keep_top=False)
    @settings(max_examples=60, deadline=None)
    def test_step_matches_induced_matrix_reference(self, mf, seed, keep_top):
        rees = rees_of(mf)
        hand = _recoordinatized(rees, random.Random(seed), keep_top)
        if keep_top:
            assert all(hand.saturated_top)
        for module in (rees, hand):
            for varset, nxt in _subsets_and_next(module.nvars):
                assert _step_injective(module, varset, nxt) == _reference_step_injective(module, varset, nxt)
        for seq in permutations(range(rees.nvars)):
            want = is_regular_sequence(rees, seq)
            got = is_regular_sequence(hand, seq)
            assert (got.regular, got.failed_prefix) == (want.regular, want.failed_prefix)
        want, got = is_flat(rees), is_flat(hand)
        assert (got.flat, got.witness_kind, got.witness) == (want.flat, want.witness_kind, want.witness)


def _non_monotone_module():
    """A hand-built module whose piece dimensions rise and fall: 1, 2, 0
    along the bottom row, and a zero map out of a nonzero piece."""
    one = Matrix([[Fraction(1)]])
    dims = {(0, 0): 1, (1, 0): 2, (2, 0): 0, (0, 1): 1, (1, 1): 1, (2, 1): 1}
    maps = {
        ((1, 0), 0): Matrix([[Fraction(1)], [Fraction(0)]]),
        ((1, 1), 0): one,
        ((2, 1), 0): Matrix([[Fraction(0)]]),
        ((0, 1), 1): one,
        ((1, 1), 1): Matrix([[Fraction(1), Fraction(0)]]),
    }
    return ReesModule(2, [(0, 2), (0, 1)], dims, maps, validate=True)


def _nonempty_subsets(n):
    for size in range(1, n + 1):
        for varset in combinations(range(n), size):
            yield frozenset(varset)


class TestZeroPiecesSkipped:
    """Both regularity routes skip zero pieces and agree with the loops
    that visited every interesting point."""

    @staticmethod
    def _assert_routes_match_references(module):
        for varset in _nonempty_subsets(module.nvars):
            assert _koszul_prefix_exact(module, varset) == reference_koszul_prefix_exact(module, varset)
        for varset in [frozenset()] + list(_nonempty_subsets(module.nvars)):
            assert _image_sums(module, varset) == reference_image_sums(module, varset)

    @given(
        mf=st.one_of(multifiltrations(), st.integers(min_value=0, max_value=10**6).map(_seeded_family)),
        seed=st.integers(min_value=0, max_value=2**32),
        keep_top=st.booleans(),
    )
    @example(mf=three_lines_mf(), seed=0, keep_top=True)
    @example(mf=three_lines_mf(), seed=1, keep_top=False)
    @settings(max_examples=40, deadline=None)
    def test_routes_match_all_point_references(self, mf, seed, keep_top):
        rees = rees_of(mf)
        for module in (rees, _recoordinatized(rees, random.Random(seed), keep_top)):
            self._assert_routes_match_references(module)

    def test_non_monotone_module_matches_references(self):
        module = _non_monotone_module()
        assert module.saturated_top == (False, False)
        self._assert_routes_match_references(module)
        # the map out of the 2-dim piece at (1, 0) kills a vector
        assert not is_regular_sequence(module, (0,)).regular
        assert not reference_koszul_prefix_exact(module, frozenset({0}))


def _outcome(flat_test, rees):
    try:
        cert = flat_test(rees)
    except AssertionError as exc:
        return ("error", str(exc))
    return (cert.flat, cert.witness_kind, cert.witness)


class TestFlatnessWalk:
    """`is_flat` walks the permutations by prefix set; the reference loops
    over all of them."""

    @given(mf=st.one_of(multifiltrations(), st.integers(min_value=0, max_value=10**6).map(_seeded_family)))
    @example(mf=three_lines_mf())
    @example(mf=pair_mf())
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_permutation_loop(self, mf):
        assert _outcome(is_flat, rees_of(mf)) == _outcome(reference_is_flat, rees_of(mf))

    @given(
        mf=st.one_of(multifiltrations(), st.integers(min_value=0, max_value=10**6).map(_seeded_family)),
        data=st.data(),
    )
    @example(mf=pair_mf(), data=None)
    @settings(max_examples=40, deadline=None)
    def test_route_disagreement_raises_the_same_error(self, mf, data):
        # flip one step's verdict on one route: the walk must find the same
        # first failing order as the loop, and raise the same error on it
        rees = rees_of(mf)
        n = rees.nvars
        if data is None:
            route, varset, nxt = "koszul", frozenset({1}), None
        elif data.draw(st.booleans()):
            route, nxt = "koszul", None
            varset = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        else:
            route, nxt = "inj", data.draw(st.integers(0, n - 1))
            varset = frozenset(data.draw(st.sets(st.integers(0, n - 1).filter(lambda v: v != nxt))))
        step, koszul = rees_module._step_injective, rees_module._koszul_prefix_exact
        with pytest.MonkeyPatch.context() as mp:
            if route == "koszul":
                mp.setattr(rees_module, "_koszul_prefix_exact", lambda r, vs: koszul(r, vs) != (vs == varset))
            else:
                mp.setattr(rees_module, "_step_injective", lambda r, vs, x: step(r, vs, x) != ((vs, x) == (varset, nxt)))
            got = _outcome(is_flat, rees)
            want = _outcome(reference_is_flat, rees)
        assert got == want
        if data is None:
            assert got == ("error", "regularity routes disagree on (1, 0): injectivity=True, Koszul=False")

    def test_family_at_the_size_limit_takes_at_most_n_2_to_the_n_minus_1_steps(self, monkeypatch):
        n = MAX_FAMILY_SIZE
        rees = rees_of(MultiFiltration([Filtration.trivial(1)] * n))
        counts = {"inj": 0, "koszul": 0, "regular": 0}
        step, koszul, regular = rees_module._step_injective, rees_module._koszul_prefix_exact, rees_module.is_regular_sequence

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rees_module, "_step_injective", counted("inj", step))
        monkeypatch.setattr(rees_module, "_koszul_prefix_exact", counted("koszul", koszul))
        monkeypatch.setattr(rees_module, "is_regular_sequence", counted("regular", regular))
        assert _first_irregular_permutation(rees) is None
        assert counts["inj"] <= n * 2 ** (n - 1) and counts["koszul"] <= n * 2 ** (n - 1)
        assert counts["regular"] == 0
        # the subset route still tests each of the 2^n - 1 subsets once
        assert is_flat(rees).flat
        assert counts["regular"] == 2**n - 1
