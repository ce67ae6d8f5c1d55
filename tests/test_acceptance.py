"""End-to-end acceptance suite: one test per advertised guarantee.

Each test's docstring first line is the label echoed in the terminal
summary (see conftest), and each test enforces its own wall-clock budget
on top of the mathematical assertions.
"""

import json
import pathlib
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from click.testing import CliRunner

from weightfilt.cli import main as cli_main
from weightfilt.document import (
    Document,
    centered_filtration_from_json,
    centered_filtration_to_json,
    filtration_from_json,
    filtration_to_json,
    matrix_from_json,
    matrix_to_json,
    parse,
)
from weightfilt.exact import Matrix, Subspace, image_of
from weightfilt.filtration import (
    Filtration,
    MultiFiltration,
    compatible_filtrations,
    graded_piece,
    iterated_graded,
)
from weightfilt.fixtures import fixture_Vk, fixture_tensor_jordan
from weightfilt.lefschetz import (
    GradedBilinearStructure,
    grading_is_monodromy,
    merge_slots,
    polarization_check,
    primitive_parts,
    sl2_complete,
)
from weightfilt.monodromy import (
    NilpotentOperator,
    graded_sum_decomposition,
    mf_property,
    monodromy_filtration,
    relative_monodromy,
    verify_weight_axioms,
)
from weightfilt.nearby import (
    MonodromicModule,
    nils_iso_check,
    two_path_compare,
)
from weightfilt.rees import KoszulComplexData, is_regular_sequence, rees_of
from weightfilt.rees import compatibility_via_flatness

from strategies import (
    block_diagonal,
    random_filtration,
    random_nilpotent,
    random_unimodular,
    subspace_sample_dim2,
    subspace_sample_dim3,
    two_step_filtration,
)
from test_monodromy import closed_form_weights

GOLDEN = pathlib.Path(__file__).parent / "golden"

def _products_up_to(limit):
    out = []
    for length in (1, 2, 3, 4):
        for sizes in combinations_with_replacement(range(2, limit + 1), length):
            p = 1
            for s in sizes:
                p *= s
            if p <= limit:
                out.append(sizes)
    return out


# sorted size tuples of Jordan tensor fixtures with total dimension <= 16
TENSOR_SIZES = _products_up_to(16)


@pytest.fixture(scope="module")
def compat_corpus():
    """The shared multifiltration corpus for criteria 7, 8 and 10.

    Exhaustive multisets of three two-step filtrations over fixed subspace
    samples in dimensions two and three, plus 200 seeded random families.
    """
    corpus = []
    for sample in (subspace_sample_dim2(), subspace_sample_dim3()):
        filts = [two_step_filtration(s) for s in sample]
        for combo in combinations_with_replacement(range(len(filts)), 3):
            corpus.append(MultiFiltration([filts[i] for i in combo]))
    rng = random.Random(2024)
    for _ in range(200):
        dim = rng.randint(1, 5)
        count = rng.randint(1, 3)
        corpus.append(MultiFiltration([random_filtration(rng, dim) for _ in range(count)]))
    return corpus


def test_criterion_01_string_fixtures():
    """criterion 1: string fixtures satisfy their defining formulas"""
    t0 = time.perf_counter()
    for k in range(6):
        fx = fixture_Vk(k)
        d = k + 1

        # N: one step down the string
        n = [[Fraction(0)] * d for _ in range(d)]
        for ell in range(1, d):
            n[ell - 1][ell] = Fraction(1)
        assert fx.lowering == Matrix(n, d, d)

        # Q: anti-diagonal unit pairing
        q = [[Fraction(0)] * d for _ in range(d)]
        for ell in range(d):
            q[ell][k - ell] = Fraction(1)
        assert fx.pairing == Matrix(q, d, d)

        # F: one line dropped per step, decreasing
        for p in range(d + 1):
            want = Subspace.span([fx.basis_vector(e) for e in range(p, d)], d)
            assert fx.hodge_filtration(p) == want

        # W: doubled jumps, one new line each
        w = fx.weight_filtration()
        assert w.center == k
        for j in range(d):
            want = Subspace.span([fx.basis_vector(e) for e in range(j + 1)], d)
            assert w.value_at(2 * j) == want

        # the constructed weight filtration is the monodromy filtration
        assert monodromy_filtration(fx.lowering, center=k) == w

        # exactly one primitive line, sitting at the top weight
        prim = primitive_parts(fx.structure())
        nonzero = {deg: s.dim for deg, s in prim.items() if s.dim}
        assert nonzero == {(k,): 1}
        assert w.graded_at(2 * k).dim == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_02_monodromy_axioms():
    """criterion 2: centered weight filtrations on 500 random nilpotents"""
    t0 = time.perf_counter()
    rng = random.Random(501)
    for trial in range(500):
        dim = rng.randint(1, 12)
        n = random_nilpotent(rng, dim)
        center = rng.randint(-3, 3)
        w = monodromy_filtration(n, center=center)
        # axioms, checked by the library's own verifier (raises on failure)
        verify_weight_axioms(w, n)
        # and independently against the closed-form oracle
        oracle = closed_form_weights(n, center)
        for ell, sub in oracle.items():
            assert w.value_at(ell) == sub, f"trial {trial}: mismatch at level {ell}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def _recheck_relative_axioms(n, bottom, w):
    """First-principles verification of both relative weight axioms."""
    for k in w.jumps():
        assert w.value_at(k - 2).contains(w.value_at(k).image_under(n))
    for k in bottom.jumps():
        piece = bottom.graded_at(k)
        if piece.dim == 0:
            continue
        induced_n = piece.induced_matrix(n, piece)
        expected = monodromy_filtration(induced_n, center=k)
        for ell in expected.jumps():
            got = Subspace.span(
                [piece.reduce(b) for b in w.value_at(ell).intersect(bottom.value_at(k)).basis],
                piece.dim,
            )
            assert got == expected.value_at(ell)


def test_criterion_03_relative_monodromy():
    """criterion 3: relative filtrations reduce, refute, and verify"""
    t0 = time.perf_counter()
    rng = random.Random(77)

    # (a) trivial bottom filtration: the relative answer is the absolute one
    for _ in range(100):
        dim = rng.randint(1, 6)
        n = random_nilpotent(rng, dim)
        trivial = Filtration(dim, [(0, Subspace.full(dim))], center=0)
        res = relative_monodromy(n, trivial)
        assert res.exists
        assert res.filtration.same_subspaces(monodromy_filtration(n))
        _recheck_relative_axioms(n, trivial, res.filtration)

    # (b) the two-dimensional counterexample: adjacent bottom jumps with a
    # nonzero operator across them leave no room for any filtration
    n2 = Matrix([[0, 1], [0, 0]])
    e1 = Subspace.span([(1, 0)], 2)
    bottom = Filtration(2, [(0, e1), (1, Subspace.full(2))], center=0)
    res = relative_monodromy(n2, bottom)
    assert not res.exists
    assert res.certificate is not None
    assert res.certificate.kind == "dimension-overflow"

    # (c) every filtration returned on random inputs passes both axioms
    returned = 0
    for _ in range(100):
        dim = rng.randint(1, 5)
        n = random_nilpotent(rng, dim)
        base = monodromy_filtration(n, center=rng.randint(-1, 1))
        res = relative_monodromy(n, base)
        if res.exists:
            returned += 1
            _recheck_relative_axioms(n, base, res.filtration)
    assert returned > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_04_iterated_weight_property():
    """criterion 4: iterated relative weights rebuild the total filtration"""
    t0 = time.perf_counter()

    # single operators: the fold is the absolute filtration, always holds
    rng = random.Random(4)
    for _ in range(40):
        n = random_nilpotent(rng, rng.randint(1, 8))
        rep = mf_property([n])
        assert rep.holds
        assert rep.iterated.same_subspaces(rep.total)

    # Jordan tensor fixtures up to total dimension sixteen
    for sizes in TENSOR_SIZES:
        fx = fixture_tensor_jordan(sizes)
        ops = fx.operators()
        rep = mf_property(ops)
        assert rep.holds, f"sizes {sizes}: iterated filtration disagrees"
        gsum = graded_sum_decomposition(ops)
        assert gsum.matches, f"sizes {sizes}: graded sum decomposition fails"
        # nested dimensions assemble the total graded dimensions by level
        by_level = {}
        for key, d in gsum.nested_dims.items():
            by_level[sum(key)] = by_level.get(sum(key), 0) + d
        assert by_level == {k: d for k, d in gsum.total_dims.items() if d}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"


def _random_graded_structures(count, seed):
    """Seeded corpus of structures with scaled, negated, or rescaled pairings."""
    rng = random.Random(seed)
    sizes_pool = [(2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2)]
    out = []
    for _ in range(count):
        sizes = rng.choice(sizes_pool)
        fx = fixture_tensor_jordan(sizes)
        st = fx.structure()
        mode = rng.randrange(3)
        if mode == 0:
            scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            pairing = st.pairing * scale
        elif mode == 1:
            pairing = st.pairing * Fraction(-1)
        else:
            # rescale the basis by a positive diagonal (degree-preserving)
            d = fx.dim
            diag = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d)]
            g = Matrix([[diag[i] if i == j else Fraction(0) for j in range(d)] for i in range(d)])
            gi = g.inverse()
            return_ops = [g * n * gi for n in st.operators]
            out.append(GradedBilinearStructure(st.space, return_ops, gi.transpose() * st.pairing * gi))
            continue
        out.append(GradedBilinearStructure(st.space, list(st.operators), pairing))
    return out


def test_criterion_05_polarization_route_equivalence():
    """criterion 5: primitive positivity agrees with the involution route"""
    t0 = time.perf_counter()
    corpus = [fixture_tensor_jordan(s).structure() for s in TENSOR_SIZES]
    corpus += [fixture_Vk(k).structure() for k in range(6)]
    corpus += _random_graded_structures(200, seed=55)
    positive = negative = 0
    for st in corpus:
        rep = polarization_check(st)
        assert rep.primitive_route == rep.weil_route, f"routes disagree on {st}"
        positive += rep.polarized
        negative += not rep.polarized
        if st.nslots == 2:
            w1 = sl2_complete(st, 0).weil_element()
            w2 = sl2_complete(st, 1).weil_element()
            assert w1 * w2 == w2 * w1
    # the corpus must exercise both verdicts for the equivalence to mean much
    assert positive > 20 and negative > 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_06_merged_gradings():
    """criterion 6: merged grading slots stay polarized weight gradings"""
    t0 = time.perf_counter()
    merged_count = 0
    for sizes in TENSOR_SIZES:
        if len(sizes) < 2:
            continue
        st = fixture_tensor_jordan(sizes).structure()
        assert polarization_check(st).polarized
        # merge every adjacent pair once
        for i in range(st.nslots - 1):
            m = merge_slots(st, i, i + 1)
            assert grading_is_monodromy(m.space, m.operators)
            assert polarization_check(m).polarized
            merged_count += 1
        # and collapse everything down to a single slot
        full = st
        while full.nslots > 1:
            full = merge_slots(full, 0, 1)
        assert grading_is_monodromy(full.space, full.operators)
        assert polarization_check(full).polarized
    assert merged_count >= 15
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_07_compatibility_oracles(compat_corpus):
    """criterion 7: subquotient and flatness compatibility oracles agree"""
    t0 = time.perf_counter()
    verdicts = {True: 0, False: 0}
    for mf in compat_corpus:
        sub = compatible_filtrations(mf)
        flat = compatibility_via_flatness(mf)
        assert sub.compatible == flat.flat, f"oracle mismatch on {mf}"
        verdicts[sub.compatible] += 1
        # pairs drawn from any family are always compatible
        if len(mf) >= 2:
            for i, j in combinations(range(len(mf)), 2):
                pair = MultiFiltration([mf.filtrations[i], mf.filtrations[j]])
                assert compatible_filtrations(pair).compatible
    assert verdicts[True] > 100 and verdicts[False] > 50

    # three distinct lines in the plane are the canonical incompatibility
    lines = [
        two_step_filtration(Subspace.span([v], 2))
        for v in [(1, 0), (0, 1), (1, 1)]
    ]
    three = MultiFiltration(lines)
    assert not compatible_filtrations(three).compatible
    assert not compatibility_via_flatness(three).flat
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_08_koszul_soundness(compat_corpus):
    """criterion 8: subset regularity matches permutation regularity"""
    t0 = time.perf_counter()
    checked = 0
    for mf in compat_corpus:
        rees = rees_of(mf)
        nv = rees.nvars
        perm_ok = all(
            is_regular_sequence(rees, perm).regular for perm in permutations(range(nv))
        )
        subset_ok = all(
            is_regular_sequence(rees, s).regular
            for size in range(1, nv + 1)
            for s in combinations(range(nv), size)
        )
        assert perm_ok == subset_ok, f"regularity routes disagree on {mf}"
        checked += 1

        # structural square-zero at the box corners and centre
        lo = tuple(iv[0] for iv in rees.box)
        hi = tuple(iv[1] for iv in rees.box)
        mid = tuple((a + b) // 2 for a, b in zip(lo, hi))
        for deg in {lo, hi, mid}:
            data = KoszulComplexData(rees, tuple(range(nv)), deg)
            for t in range(1, len(data.differentials)):
                assert (data.differentials[t - 1] * data.differentials[t]).is_zero()
    assert checked == len(compat_corpus)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"


def _random_monodromic_module(rng):
    """Block sums of commuting Jordan tensor operators, conjugated."""
    nvars = rng.randint(1, 2)
    blocks = []
    total = 0
    while total < 2:
        if nvars == 1:
            sizes = (rng.randint(1, 6),)
        else:
            sizes = (rng.randint(1, 3), rng.randint(1, 2))
        fx = fixture_tensor_jordan(sizes)
        if total + fx.dim > 6:
            break
        blocks.append([fx.operator(i) for i in range(nvars)])
        total += fx.dim
    if not blocks:
        fx = fixture_tensor_jordan((2,) if nvars == 1 else (2, 1))
        blocks = [[fx.operator(i) for i in range(nvars)]]
        total = fx.dim
    ops = [block_diagonal([b[i] for b in blocks]) for i in range(nvars)]
    g = random_unimodular(rng, total)
    gi = g.inverse()
    ops = [g * n * gi for n in ops]
    supports = [Fraction(-rng.randint(1, 4), rng.randint(4, 5)) for _ in range(nvars)]
    return MonodromicModule(supports, ops)


def test_criterion_09_log_extension_isomorphism():
    """criterion 9: the comparison map hits the joint kernel exactly"""
    t0 = time.perf_counter()
    rng = random.Random(99)
    refuted = 0
    two_path_checked = 0
    for _ in range(100):
        mod = _random_monodromic_module(rng)
        orders = mod.nil_orders()
        rep = nils_iso_check(mod, orders)
        assert rep.isomorphism, f"not an isomorphism on {mod}"
        # lowering any genuinely nilpotent slot must break containment
        for i, k in enumerate(orders):
            if k >= 1:
                lowered = list(orders)
                lowered[i] = k - 1
                bad = nils_iso_check(mod, lowered)
                assert not bad.contained
                refuted += 1
                break
        if mod.nvars == 2:
            tp = two_path_compare(mod, list(orders))
            assert tp.equal and tp.inside_kernel
            two_path_checked += 1
    assert refuted >= 50
    assert two_path_checked >= 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_10_iterated_graded_invariance(compat_corpus):
    """criterion 10: iterated graded pieces ignore the filtration order"""
    t0 = time.perf_counter()
    compatible_seen = 0
    for mf in compat_corpus:
        if not compatible_filtrations(mf).compatible:
            continue
        compatible_seen += 1
        closed = {}
        for point in mf.jump_lattice():
            d = graded_piece(mf, point).dim
            if d:
                closed[tuple(point)] = d
        for order in permutations(range(len(mf))):
            dims = iterated_graded(mf, order=order, check=False)
            assert dims == closed, f"order {order} deviates on {mf}"
    assert compatible_seen > 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_11_cli_contract():
    """criterion 11: serialization round trips, exit codes, golden stability"""
    t0 = time.perf_counter()

    # round-trip identity across the fixture corpus
    for k in range(6):
        fx = fixture_Vk(k)
        for m in (fx.lowering, fx.raising, fx.grading, fx.pairing):
            assert matrix_from_json(matrix_to_json(m), "$") == m
        w = fx.weight_filtration()
        assert centered_filtration_from_json(centered_filtration_to_json(w), "$") == w
    for sizes in [(2, 2), (2, 3), (3, 2)]:
        fx = fixture_tensor_jordan(sizes)
        for m in fx.operators() + [fx.pairing()]:
            assert matrix_from_json(matrix_to_json(m), "$") == m
    doc = Document("fixture-info", {"name": "V3"})
    assert parse(doc.to_json()) == doc

    runner = CliRunner()

    # documented exit-status behavior
    ok = runner.invoke(
        cli_main, ["check", "monodromy", "--input", str(GOLDEN / "doc_monodromy_pass.json")]
    )
    assert ok.exit_code == 0
    fail = runner.invoke(
        cli_main, ["check", "compat", "--input", str(GOLDEN / "doc_compat_fail.json")]
    )
    assert fail.exit_code == 1
    err = runner.invoke(cli_main, ["check", "monodromy", "--input", "/does/not/exist.json"])
    assert err.exit_code == 2

    # golden-file stability of both report renderings
    cases = [
        ("monodromy_structured.txt", ["check", "monodromy", "--input", str(GOLDEN / "doc_monodromy_pass.json"), "--format", "structured"]),
        ("compat_fail_structured.txt", ["check", "compat", "--input", str(GOLDEN / "doc_compat_fail.json"), "--format", "structured"]),
        ("compat_fail_text.txt", ["check", "compat", "--input", str(GOLDEN / "doc_compat_fail.json")]),
        ("koszul_structured.txt", ["koszul", "--input", str(GOLDEN / "doc_koszul.json"), "--format", "structured"]),
        ("fixture_v2_text.txt", ["fixture", "V2"]),
        ("nilsson_demo_structured.txt", ["nilsson", "demo", "-q", "3", "--order", "1", "--format", "structured"]),
    ]
    for name, args in cases:
        res = runner.invoke(cli_main, args)
        assert res.output == (GOLDEN / name).read_text(), f"golden drift: {name}"
        if name.endswith("structured.txt"):
            assert json.loads(res.output)["format"] == "weightfilt.v1"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
