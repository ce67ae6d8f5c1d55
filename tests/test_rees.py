"""Blowup modules, Koszul homology, and the flatness compatibility oracle.

This file holds the *other* route to filtration compatibility (flatness of
the blowup module over the variable action) plus the explicit agreement
checks between the two routes.  The subquotient route itself is tested in
test_filtration.py; the two implementations share nothing but `Subspace`.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightfilt import rees as rees_module
from weightfilt.document import MAX_FAMILY_SIZE
from weightfilt.exact import GaussianRational, Matrix, Subspace, sum_of
from weightfilt.filtration import (
    Filtration,
    MultiFiltration,
    compatible_filtrations,
    graded_piece,
)
from weightfilt.rees import (
    KoszulComplexData,
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

from references import (
    ReferenceReesModule,
    reference_image_sums,
    reference_is_flat,
    reference_component,
    reference_is_regular_sequence,
    reference_koszul_homology,
    reference_koszul_prefix_exact,
    reference_rees_of,
    reference_step_injective,
)
from strategies import multifiltrations, random_filtration, random_unimodular, two_step_filtration


def _line(a, b):
    return Subspace.span([(Fraction(a), Fraction(b))], 2)


def pair_mf():
    return MultiFiltration([two_step_filtration(_line(1, 0)), two_step_filtration(_line(1, 1))])


def three_lines_mf():
    return MultiFiltration(
        [two_step_filtration(_line(1, 0)), two_step_filtration(_line(0, 1)), two_step_filtration(_line(1, 1))]
    )


def gaussian_lines_mf():
    # the lines of (1, i), (1, 0) and (1, -i): the first and last pieces
    # are not real, so they keep no integer rows
    return MultiFiltration([
        two_step_filtration(Subspace.span([(1, GaussianRational(0, b))], 2)) for b in (1, 0, -1)
    ])


def _seeded_family(seed):
    # hypothesis' own draws give few incompatible families (about 1 in 15);
    # three seeded random filtrations of a 2- or 3-space give about 1 in 3
    rng = random.Random(seed)
    dim = rng.randint(2, 3)
    return MultiFiltration([random_filtration(rng, dim) for _ in range(3)])


def _families():
    return st.one_of(multifiltrations(), st.integers(min_value=0, max_value=10**6).map(_seeded_family))


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
        # above the box the pieces repeat the top slice, so the variable
        # acts there by the inclusion of a subspace into itself
        mf = pair_mf()
        rees = rees_of(mf)
        hi = tuple(h for _, h in rees.box)
        past = (hi[0] + 3,) + hi[1:]
        assert rees.piece(past) is rees.piece(hi) is rees.piece(rees._shift(past, 0, -1))
        m = reference_rees_of(mf).map_matrix(past, 0)
        assert m == Matrix.identity(rees.piece_dim(hi))

    def test_squares_commute(self):
        # the coordinate matrices of the inclusions of rees_of's pieces
        rees = reference_rees_of(pair_mf(), validate=False)
        for p in rees.points():
            for i in range(rees.nvars):
                for j in range(i + 1, rees.nvars):
                    pi = p[:i] + (p[i] - 1,) + p[i + 1 :]
                    pj = p[:j] + (p[j] - 1,) + p[j + 1 :]
                    left = rees.map_matrix(p, i) * rees.map_matrix(pi, j)
                    right = rees.map_matrix(p, j) * rees.map_matrix(pj, i)
                    assert left == right

    def test_rejects_noncommuting_squares(self):
        # a hand-built matrix module, which only the reference still takes:
        # 1-dim pieces whose maps cannot commute, x then y gives 1, y then x gives 2
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
            ReferenceReesModule(2, [(0, 1), (0, 1)], dims, maps, validate=True)

    @given(mf=multifiltrations())
    @example(mf=MultiFiltration([Filtration(0, [])]))
    @settings(max_examples=25, deadline=None)
    def test_piece_dims_cover_the_box(self, mf):
        # the benchmark counts box points as the length of piece_dims
        rees = rees_of(mf)
        assert len(rees.piece_dims) == prod(hi - lo + 1 for lo, hi in rees.box) == len(rees.points())
        assert rees.piece_dims == {p: rees.piece(p).dim for p in rees.points()}

    def test_zero_pieces_share_one_subspace(self):
        rees = rees_of(three_lines_mf())
        zeros = {id(rees.piece(p)) for p in rees.points() if not rees.piece_dim(p)}
        below = tuple(lo - 1 for lo, _ in rees.box)
        assert zeros == {id(rees.piece(below))}


class TestKoszul:
    def test_differential_squares_to_zero_recheck(self):
        mf = pair_mf()
        rees = rees_of(mf)
        for pt in rees.points():
            data = KoszulComplexData(rees, [0, 1], pt)
            for t in range(1, len(data.differentials)):
                assert (data.differentials[t - 1] * data.differentials[t]).is_zero()

    @given(mf=_families())
    @example(mf=three_lines_mf())
    @example(mf=MultiFiltration([Filtration(0, [])]))
    @settings(max_examples=25, deadline=None)
    def test_components_form_a_subcomplex(self, mf):
        # d_t(C_t) <= C_{t-1}, with C_t the sum of the lowered pieces in V^C(r, t)
        rees = rees_of(mf)
        seq = tuple(range(rees.nvars))
        for p in rees.interesting_points():
            data = KoszulComplexData(rees, seq, p)
            comps = [
                Subspace.span(reference_component(rees, seq, p, t), rees.ambient_dim * comb(len(seq), t))
                for t in range(len(seq) + 1)
            ]
            assert tuple(c.dim for c in comps) == data.component_dims
            for t, d in enumerate(data.differentials, start=1):
                assert comps[t].image_under(d) <= comps[t - 1]

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

    def test_variable_out_of_range_rejected(self):
        # a variable the module does not have would lower no coordinate
        rees = rees_of(pair_mf())
        with pytest.raises(ValueError, match="out of range"):
            koszul_homology(rees, [0, 2], (1, 1))


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


def _recoordinatized(rees, rng, keep_top):
    """A hand-built copy of the matrix module ``rees`` with piece p in new
    coordinates g_p.

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
    return ReferenceReesModule(rees.nvars, rees.box, rees.piece_dims, maps, validate=True)


def _subsets_and_next(n):
    for size in range(n):
        for varset in combinations(range(n), size):
            for nxt in range(n):
                if nxt not in varset:
                    yield frozenset(varset), nxt


def _certificate(cert):
    return (cert.regular, cert.failed_prefix) if hasattr(cert, "regular") else (cert.flat, cert.witness_kind, cert.witness)


class TestStepByDimension:
    """The pieces decide what the matrix reference decides with induced
    matrices and `Fraction` grids, on its module and on hand-built copies
    of it in other coordinates."""

    @given(mf=_families(), seed=st.integers(min_value=0, max_value=2**32), keep_top=st.booleans())
    @example(mf=three_lines_mf(), seed=0, keep_top=True)
    @example(mf=three_lines_mf(), seed=1, keep_top=False)
    @example(mf=pair_mf(), seed=2, keep_top=False)
    @example(mf=MultiFiltration([Filtration(0, [])] * 2), seed=3, keep_top=False)
    @example(mf=MultiFiltration([two_step_filtration(_line(1, 1))]), seed=4, keep_top=False)
    @example(mf=gaussian_lines_mf(), seed=5, keep_top=True)
    @settings(max_examples=60, deadline=None)
    def test_step_matches_induced_matrix_reference(self, mf, seed, keep_top):
        rees = rees_of(mf)
        ref = reference_rees_of(mf)
        assert ref.piece_dims == rees.piece_dims and all(ref.saturated_top)
        hand = _recoordinatized(ref, random.Random(seed), keep_top)
        if keep_top:
            assert all(hand.saturated_top)
        n = rees.nvars
        for varset, nxt in _subsets_and_next(n):
            want = _step_injective(rees, varset, nxt)
            assert reference_step_injective(ref, varset, nxt) == want
            assert reference_step_injective(hand, varset, nxt) == want
        # the Koszul and regularity routes on the hand-built copy only: it
        # is ref in other coordinates, the stronger check of the two
        homology, regular = {}, {}
        for varset in _nonempty_subsets(n):
            seq = tuple(sorted(varset))
            for p in hand.interesting_points():
                homology[seq, p] = reference_koszul_homology(hand, seq, p)
                assert homology[seq, p] == koszul_homology(rees, seq, p)

        def reference_regular(module, seq):
            # each grid complex above is built once
            if seq not in regular:
                regular[seq] = reference_is_regular_sequence(module, seq, lambda m, q, p: homology[tuple(q), p])
            return regular[seq]

        for seq in permutations(range(n)):
            assert _certificate(reference_regular(hand, seq)) == _certificate(is_regular_sequence(rees, seq))
        assert _certificate(reference_is_flat(hand, reference_regular)) == _certificate(is_flat(rees))


def _non_monotone_module():
    """A hand-built matrix module whose piece dimensions rise and fall: 1,
    2, 0 along the bottom row, and a zero map out of a nonzero piece."""
    one = Matrix([[Fraction(1)]])
    dims = {(0, 0): 1, (1, 0): 2, (2, 0): 0, (0, 1): 1, (1, 1): 1, (2, 1): 1}
    maps = {
        ((1, 0), 0): Matrix([[Fraction(1)], [Fraction(0)]]),
        ((1, 1), 0): one,
        ((2, 1), 0): Matrix([[Fraction(0)]]),
        ((0, 1), 1): one,
        ((1, 1), 1): Matrix([[Fraction(1), Fraction(0)]]),
    }
    return ReferenceReesModule(2, [(0, 2), (0, 1)], dims, maps, validate=True)


def _nonempty_subsets(n):
    for size in range(1, n + 1):
        for varset in combinations(range(n), size):
            yield frozenset(varset)


class TestZeroPiecesSkipped:
    """Both regularity routes skip zero pieces and agree with the loops
    that visited every interesting point of the matrix module."""

    @given(mf=_families(), seed=st.integers(min_value=0, max_value=2**32), keep_top=st.booleans())
    @example(mf=three_lines_mf(), seed=0, keep_top=True)
    @example(mf=three_lines_mf(), seed=1, keep_top=False)
    @settings(max_examples=40, deadline=None)
    def test_routes_match_all_point_references(self, mf, seed, keep_top):
        rees = rees_of(mf)
        ref = reference_rees_of(mf)
        modules = (ref, _recoordinatized(ref, random.Random(seed), keep_top))
        for varset in _nonempty_subsets(rees.nvars):
            want = _koszul_prefix_exact(rees, varset)
            assert reference_koszul_prefix_exact(rees, varset) == want
            for module in modules:
                assert reference_koszul_prefix_exact(module, varset, reference_koszul_homology) == want
        for varset in [frozenset()] + list(_nonempty_subsets(rees.nvars)):
            sums = _image_sums(rees, varset)
            for module in modules:
                want = reference_image_sums(module, varset)
                assert all(want[p].dim == (sums[p].dim if p in sums else 0) for p in rees.interesting_points())
            for p, w in sums.items():
                lower = [rees.piece(rees._shift(p, j, -1)) for j in varset]
                assert w == sum_of(lower, rees.ambient_dim)

    def test_non_monotone_module_matches_references(self):
        # reference-only: the matrix module's two routes agree on it
        module = _non_monotone_module()
        assert module.saturated_top == (False, False)
        for seq in permutations(range(2)):
            reference_is_regular_sequence(module, seq)
        # the map out of the 2-dim piece at (1, 0) kills a vector
        assert not reference_is_regular_sequence(module, (0,)).regular
        assert not reference_step_injective(module, frozenset(), 0)
        assert not reference_koszul_prefix_exact(module, frozenset({0}), reference_koszul_homology)


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
