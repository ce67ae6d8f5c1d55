"""Reference checks for invariants that hold by construction.

`Subspace.zero`, `Subspace.full` and the Zassenhaus sum and intersection
store their rows as the canonical basis without reducing them again,
`rees_of` skips the commuting-square check, takes its top slices as
saturated and builds each piece from the one before it on its axis, the
subquotient row test, the Rees injectivity step and weight axiom two
compare dimensions only (the induced-matrix references are in
test_filtration.py, test_rees.py and test_monodromy.py),
`KoszulComplexData` does not multiply its differentials and gives a
differential with no rows or no columns rank 0 without ranking it, graded
bilinear structures and monodromic modules keep the nilpotent operators
they certify instead of rebuilding them, and `Matrix` arithmetic builds
its results from entries that are already exact scalars without coercing
them again, and `QuotientPresentation.reduce`, `induced_matrix` and
`Subspace.coordinates_of` read coordinates at pivots without solving a
linear system; rational `Subspace` lattice operations work on integer
rows without building a `Fraction`; the Koszul regularity route ranks no
complex whose negative-degree components are all zero, and the injectivity
route visits no point whose source piece is zero; a graded space
inverts its change of basis once, so that validating a graded bilinear
structure and deciding its polarization by both routes inverts no other
matrix; the exponential of a rational nilpotent matrix is summed on
ints and builds one `Matrix`; and every weight filtration, absolute or
relative, and the nested graded dimensions of a commuting family are built
on intervals of the subspace lattice, with no `QuotientPresentation` and no
Jordan chain (the chain and coset-coordinate references are in
references.py).  Each test here recomputes what is no longer checked at
run time.
"""

import fractions
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightfilt import exact, monodromy
from weightfilt.exact import Matrix, QuotientPresentation, Subspace, _sum_and_intersection, exp_nilpotent, kernel_of
from weightfilt.filtration import Filtration, MultiFiltration, _subobject_compatibility_cached
from weightfilt.fixtures import fixture_Vk, fixture_tensor_jordan
from weightfilt.lefschetz import GradedBilinearStructure, merge_slots, polarization_check, sl2_complete, weil_w
from weightfilt.monodromy import (
    NilpotentOperator,
    WeightAxiomFailure,
    graded_sum_decomposition,
    mf_property,
    monodromy_filtration,
    relative_monodromy,
    verify_weight_axioms,
)
from weightfilt.nearby import MonodromicModule
from weightfilt import rees as rees_module
from weightfilt.rees import KoszulComplexData, ReesModule, _image_sums, _koszul_prefix_exact, _step_injective, is_flat, rees_of

from references import reference_exp_nilpotent
from strategies import (
    conjugate_structure,
    multifiltrations,
    nilpotent_matrices,
    random_filtration,
    random_unimodular,
    small_fractions,
    subspaces,
)


def _assert_canonical(s):
    again = Subspace(s.ambient_dim, s.basis)
    assert s.basis == again.basis
    assert s._pivots == again._pivots
    assert hash(s) == hash(again)


@given(n=st.integers(min_value=0, max_value=5))
def test_zero_and_full_are_canonical(n):
    _assert_canonical(Subspace.zero(n))
    _assert_canonical(Subspace.full(n))


@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_zassenhaus_halves_are_canonical(data, n):
    u, w = data.draw(subspaces(n)), data.draw(subspaces(n))
    for s in _sum_and_intersection(u, w):
        _assert_canonical(s)


@given(mf=multifiltrations())
@settings(max_examples=40, deadline=None)
def test_rees_of_passes_the_full_square_check(mf):
    rees_of(mf)._check_squares()


@given(mf=multifiltrations())
@example(mf=MultiFiltration([Filtration(0, [])]))
@settings(max_examples=40, deadline=None)
def test_rees_of_top_slices_are_identities(mf):
    rees = rees_of(mf)
    assert rees.saturated_top == tuple(rees._top_is_identity(i) for i in range(rees.nvars))
    assert all(rees.saturated_top)


@given(mf=multifiltrations())
@settings(max_examples=25, deadline=None)
def test_koszul_differentials_square_to_zero(mf):
    rees = rees_of(mf)
    for size in range(1, rees.nvars + 1):
        for seq in combinations(range(rees.nvars), size):
            for p in rees.interesting_points():
                d = KoszulComplexData(rees, seq, p).differentials
                for t in range(1, len(d)):
                    assert (d[t - 1] * d[t]).is_zero()


@given(mf=multifiltrations())
@settings(max_examples=25, deadline=None)
def test_koszul_differentials_empty_by_shape_are_not_ranked(mf):
    # a differential with no rows or no columns is the zero map of rank 0;
    # homology ranks only the others
    rees = rees_of(mf)
    rank_of_rows = exact.rank_of_rows
    ranked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "rank_of_rows", lambda rows: ranked.append(rows) or rank_of_rows(rows))
        for seq in combinations(range(rees.nvars), min(2, rees.nvars)):
            for p in rees.interesting_points():
                data = KoszulComplexData(rees, seq, p)
                dims, diffs = data.component_dims, data.differentials
                ranks = [rank_of_rows(d.entries) for d in diffs]
                for t, d in enumerate(diffs, start=1):
                    assert (d.rows, d.cols) == (dims[t - 1], dims[t])
                    if not (d.rows and d.cols):
                        assert d == Matrix([[0] * d.cols] * d.rows, d.rows, d.cols)
                ranked.clear()
                bounds = [0] + ranks + [0]
                assert data.homology() == {-t: dims[t] - bounds[t] - bounds[t + 1] for t in range(len(dims))}
                assert len(ranked) == sum(1 for d in diffs if d.rows and d.cols)


def _seeded_mf():
    rng = random.Random(3)
    return MultiFiltration([random_filtration(rng, 3) for _ in range(3)])


def test_rees_of_does_not_check_squares(monkeypatch):
    def refuse(self):
        raise AssertionError("rees_of reached _check_squares")

    monkeypatch.setattr(ReesModule, "_check_squares", refuse)
    rees_of(_seeded_mf())


def test_rees_of_does_not_test_its_top_slices(monkeypatch):
    def refuse(self, i):
        raise AssertionError("rees_of reached _top_is_identity")

    monkeypatch.setattr(ReesModule, "_top_is_identity", refuse)
    rees_of(_seeded_mf())


def test_subobject_rows_build_no_presentations_or_matrices(monkeypatch):
    lines = tuple(Subspace.span([v], 2) for v in ((1, 0), (0, 1), (1, 1)))

    def refuse(self, *args):
        raise AssertionError("the row test built a presentation or a matrix")

    monkeypatch.setattr(QuotientPresentation, "__init__", refuse)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    assert not _subobject_compatibility_cached.__wrapped__(lines, 2).compatible


def _refuse_presentations(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("built a QuotientPresentation")

    monkeypatch.setattr(QuotientPresentation, "__init__", refuse)


def test_regularity_routes_build_no_presentations(monkeypatch):
    rees = rees_of(_seeded_mf())
    _refuse_presentations(monkeypatch)
    is_flat(rees)


def test_weight_axioms_build_no_presentations(monkeypatch):
    j3 = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    w = monodromy_filtration(j3)
    _refuse_presentations(monkeypatch)
    verify_weight_axioms(w, j3)
    # the zero map passes axiom one and fails axiom two by rank at l = 2
    with pytest.raises(WeightAxiomFailure, match="does not induce an isomorphism"):
        verify_weight_axioms(w, Matrix.zero(3, 3))


def test_weight_filtrations_build_no_presentations_or_chains(monkeypatch):
    g = random_unimodular(random.Random(5), 6, rounds=4)
    ops = [g * n * g.inverse() for n in fixture_tensor_jordan((2, 3)).operators()]
    j2 = Matrix.from_rows([[0, 0], [1, 0]])
    adjacent = Filtration(2, [(0, Subspace.span([(0, 1)], 2)), (1, Subspace.full(2))])
    lfilt = monodromy_filtration(ops[1])

    def refuse(*args):
        raise AssertionError("built a Jordan chain basis")

    _refuse_presentations(monkeypatch)
    monkeypatch.setattr(monodromy, "jordan_chain_basis", refuse)
    assert monodromy_filtration(ops[0], center=1).graded_dims() == {0: 3, 2: 3}
    assert relative_monodromy(ops[0], lfilt).exists
    assert not relative_monodromy(j2, adjacent).exists
    assert mf_property(ops).holds
    assert graded_sum_decomposition(ops).matches


def test_rees_of_intersects_once_per_prefix_point(monkeypatch):
    mf = _seeded_mf()
    calls = []
    intersect = Subspace.intersect

    def counting(self, other):
        calls.append(1)
        return intersect(self, other)

    monkeypatch.setattr(Subspace, "intersect", counting)
    rees = rees_of(mf)
    sizes = [hi - lo + 1 for lo, hi in rees.box]
    assert len(calls) == sum(prod(sizes[: k + 1]) for k in range(len(sizes)))


def test_koszul_route_visits_only_points_with_negative_components(monkeypatch):
    # elsewhere every negative-degree component is zero, and so is its homology
    rees = rees_of(_seeded_mf())
    calls = []
    homology = rees_module.koszul_homology

    def recording(module, seq, p):
        calls.append((tuple(seq), p))
        return homology(module, seq, p)

    monkeypatch.setattr(rees_module, "koszul_homology", recording)
    visited = 0
    for size in range(1, rees.nvars + 1):
        for seq in combinations(range(rees.nvars), size):
            want = [
                p
                for p in rees.interesting_points()
                if any(
                    rees.piece_dim(tuple(x - (i in S) for i, x in enumerate(p)))
                    for t in range(1, size + 1)
                    for S in combinations(seq, t)
                )
            ]
            calls.clear()
            assert _koszul_prefix_exact(rees, frozenset(seq))
            assert calls == [(seq, p) for p in want]
            visited += len(want)
    assert visited


@pytest.mark.parametrize("mf", ["seeded", "eight-lines"])
def test_injectivity_step_visits_only_nonzero_sources(monkeypatch, mf):
    # a zero source piece cannot fail the step, so each step shifts at most
    # one point per nonzero piece, and reads at most one map there
    if mf == "seeded":
        rees = rees_of(_seeded_mf())
    else:
        rees = rees_of(MultiFiltration([Filtration.trivial(1)] * 8))
    support = [p for p in rees.interesting_points() if rees.piece_dim(p)]
    steps = [(frozenset(range(k)), k) for k in range(rees.nvars)]
    for varset, _ in steps:
        _image_sums(rees, varset)
    shifts = []
    shift = ReesModule._shift

    def counting(p, i, d):
        shifts.append(p)
        return shift(p, i, d)

    monkeypatch.setattr(ReesModule, "_shift", staticmethod(counting))
    for varset, nxt in steps:
        _step_injective(rees, varset, nxt)
    assert len(shifts) <= 2 * len(support) * len(steps)
    assert len(rees.interesting_points()) > 2 * len(support)


def test_koszul_complex_multiplies_no_differentials(monkeypatch):
    rees = rees_of(_seeded_mf())
    top = tuple(hi for _, hi in rees.box)

    def refuse(self, other):
        raise AssertionError("KoszulComplexData multiplied matrices")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    KoszulComplexData(rees, tuple(range(rees.nvars)), top)


def test_rational_arithmetic_coerces_no_entries(monkeypatch):
    a = Matrix.from_rows([[1, Fraction(1, 2), 0], [0, 0, 3], [Fraction(-2, 3), 0, 1]])
    b = Matrix.from_rows([[2, 0, 1], [0, Fraction(-1, 3), 0], [1, 1, 0]])
    coerced = []
    as_scalar = exact.as_scalar

    def counting(x):
        coerced.append(x)
        return as_scalar(x)

    def refuse(self, *args):
        raise AssertionError("built a Matrix through __init__")

    init = Matrix.__init__
    monkeypatch.setattr(exact, "as_scalar", counting)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    for result in (a * b, a + b, a - b, -a, a**3, a.transpose(), Matrix.identity(3), Matrix.zero(2, 3)):
        assert all(type(x) is Fraction for row in result.entries for x in row)
    assert not coerced
    # a scalar multiple coerces the scalar, once
    a * 2
    assert coerced == [2]
    # from_columns leaves the coercion of its n entries to __init__: n calls
    monkeypatch.setattr(Matrix, "__init__", init)
    coerced.clear()
    Matrix.from_columns([(Fraction(1, 2), 0, 3), (1, Fraction(-1, 3), 0)], 3)
    assert len(coerced) == 6


def test_subquotient_coordinates_are_read_at_pivots(monkeypatch):
    # the RREF complement makes every coordinate a pivot read: no solve
    def refuse(*args):
        raise AssertionError("solved a linear system")

    sub = Subspace.span([(1, 2, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0)], 4)
    den = Subspace.span([(1, 2, 0, 1)], 4)
    monkeypatch.setattr(exact, "solve_columns", refuse)
    q = QuotientPresentation(sub, den)
    assert q.reduce((2, 5, 1, 2)) == q.reduce((0, 1, 1, 0))
    assert q.induced_matrix(Matrix.identity(4), q) == Matrix.identity(2)
    assert sub.coordinates_of((1, 3, 1, 1)) is not None
    assert sub.coordinates_of((0, 0, 0, 1)) is None


def _fraction_work(fn):
    """Names of the `fractions` functions (other than the numerator and
    denominator reads) and of ``exact._integer_rows`` called while ``fn``
    runs."""
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (
            code is exact._integer_rows.__code__
            or (code.co_filename == fractions.__file__ and code.co_name not in ("numerator", "denominator"))
        ):
            seen.append(code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


@given(data=st.data(), n=st.integers(min_value=1, max_value=4), cols=st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_rational_lattice_operations_build_no_fraction(data, n, cols):
    # rational subspaces keep integer rows, so the lattice operations never
    # rescale Fractions or build one; drawing the inputs may do either
    u, w = data.draw(subspaces(n)), data.draw(subspaces(n))
    m = Matrix(data.draw(st.lists(st.lists(small_fractions, min_size=cols, max_size=cols), min_size=n, max_size=n)), n, cols)
    back = m.transpose()
    _sum_and_intersection.cache_clear()
    assert _fraction_work(lambda: (u.sum(w), u.intersect(w), u.contains(w), w.contains(u))) == []
    assert _fraction_work(lambda: (u.preimage_under(m), kernel_of(m), kernel_of(back))) == []
    source = u.preimage_under(m)
    assert _fraction_work(lambda: source.image_under(m)) == []
    assert _fraction_work(lambda: (source.image_under(m).intersect(u), hash(source))) == []
    total = u.sum(w)
    assert _fraction_work(lambda: QuotientPresentation(total, w)) == []


def test_polarization_check_inverts_the_change_of_basis_once(monkeypatch):
    fx = fixture_tensor_jordan((2, 3))
    g = random_unimodular(random.Random(5), fx.dim, rounds=6)
    moved = conjugate_structure(fx.graded_space(), fx.operators(), fx.pairing(), g)
    inverted = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda self: inverted.append(self) or inverse(self))
    structure = GradedBilinearStructure(*moved)
    assert polarization_check(structure).polarized
    assert inverted == [structure.space.change_of_basis()]
    # the public ambient triples and Weil element reuse the same frame
    sl2_complete(structure, 1)
    weil_w(structure)
    assert len(inverted) == 1


def test_rational_exponential_builds_one_matrix(monkeypatch):
    m = Matrix.from_rows([[0, Fraction(1, 2), 3, 0], [0, 0, Fraction(-2, 3), 1], [0, 0, 0, Fraction(5, 7)], [0, 0, 0, 0]])
    want = reference_exp_nilpotent(m)
    built = []
    from_ints = Matrix._from_ints.__func__

    def counting(cls, scale, dense, cols):
        built.append(cols)
        return from_ints(cls, scale, dense, cols)

    monkeypatch.setattr(Matrix, "_from_ints", classmethod(counting))
    assert exp_nilpotent(m) == want
    assert built == [4]


def _assert_nilpotents_match(structure):
    assert len(structure.nilpotents) == len(structure.operators)
    for nil, op in zip(structure.nilpotents, structure.operators):
        fresh = NilpotentOperator(op)
        assert nil.matrix == op
        for k in range(op.rows + 2):
            assert nil.power(k) == fresh.power(k)


@st.composite
def graded_structures(draw):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
    structure = fixture_tensor_jordan(sizes).structure()
    if len(sizes) == 2 and draw(st.booleans()):
        structure = merge_slots(structure, 0, 1)
    return structure


@given(structure=graded_structures())
@settings(max_examples=15, deadline=None)
def test_graded_structure_keeps_its_certified_operators(structure):
    _assert_nilpotents_match(structure)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_vk_structure_keeps_its_certified_operator(k):
    _assert_nilpotents_match(fixture_Vk(k).structure())


@given(n=nilpotent_matrices(max_dim=5), nvars=st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_monodromic_module_keeps_its_certified_operators(n, nvars):
    ops = [n]
    while len(ops) < nvars:
        ops.append(ops[-1] * n)
    mod = MonodromicModule([Fraction(-1, 2)] * nvars, ops)
    _assert_nilpotents_match(mod)
    assert mod.nil_orders() == tuple(NilpotentOperator(op).nil_order for op in ops)
