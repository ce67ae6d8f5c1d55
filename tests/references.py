"""Reference loops for the exact kernel, the Rees regularity routes and the
Lefschetz machinery.

Each exact-kernel function here is the `Fraction` (or Gaussian) field loop
that the library ran before its integer kernels, kept so that differential
tests can compare the fast paths with it.  A span is represented as the
pair ``(rref rows, pivots)``, both tuples, which is what
``Subspace.basis`` and ``Subspace._pivots`` give.  The Rees functions are
the loops that visited every interesting point and every permutation.  The
Lefschetz functions validate operators, solve sl2 triples and build Weil
elements in ambient coordinates, inverting the change of basis wherever
they need it, as the library did before it kept one adapted frame per
graded space.  The monodromy functions build weight filtrations from Jordan
chain bases, and relative ones and nested graded dimensions in the coset
coordinates of `QuotientPresentation`s of the graded pieces, as the library
did before one lattice recursion built every weight filtration; the relative
one still completes open bounds greedily, so it may be undetermined or
refute falsely where the library's construction decides.
"""

from fractions import Fraction
from math import factorial
from itertools import combinations, permutations

from weightfilt.exact import GaussianRational, Matrix, Subspace, image_of, solve_columns, sum_of
from weightfilt.filtration import Filtration
from weightfilt.lefschetz import Sl2Action
from weightfilt.monodromy import (
    NilpotentOperator,
    NonexistenceCertificate,
    RelativeMonodromyResult,
    jordan_chain_basis,
    verify_weight_axioms,
)
from weightfilt.rees import FlatnessCertificate, is_regular_sequence, koszul_homology


class UndeterminedRelativeFiltration(RuntimeError):
    """Raised by `reference_relative_monodromy` when its bounds leave
    freedom and its greedy completion fails certification: that outcome
    neither proves nor refutes existence."""


def as_exact(x):
    return x if isinstance(x, GaussianRational) else Fraction(x)


def reference_rref(rows):
    """Gauss–Jordan on `Fraction`s (ints coerced), the field loop `rref`
    ran on every input before its integer kernel."""
    work = [[as_exact(x) for x in r] for r in rows]
    if not work:
        return [], []
    pivots = []
    r = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        if inv != 1:
            work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def reference_span(rows):
    """The RREF basis and pivots of the span of ``rows``."""
    reduced, pivots = reference_rref(rows)
    return tuple(tuple(row) for row in reduced), tuple(pivots)


def reference_reduce(span, v):
    """The Fraction loop `Subspace.reduce_vector` ran before integer rows."""
    vec = [as_exact(x) for x in v]
    for row, p in zip(*span):
        f = vec[p]
        if f:
            vec = [a - f * b if b else a for a, b in zip(vec, row)]
    return tuple(vec)


def reference_zassenhaus(u, w, n):
    """Sum and intersection of two spans from one elimination of the
    block rows ``(b | b)`` for b in u and ``(b | 0)`` for b in w."""
    block = [list(b) * 2 for b in u[0]] + [list(b) + [Fraction(0)] * n for b in w[0]]
    reduced, pivots = reference_rref(block)
    k = sum(1 for p in pivots if p < n)
    return (
        (tuple(tuple(row[:n]) for row in reduced[:k]), tuple(pivots[:k])),
        (tuple(tuple(row[n:]) for row in reduced[k:]), tuple(p - n for p in pivots[k:])),
    )


def reference_apply(m, v):
    vec = tuple(as_exact(x) for x in v)
    return tuple(sum((a * b for a, b in zip(row, vec) if a and b), Fraction(0)) for row in m.entries)


def reference_image(span, m):
    return reference_span([reference_apply(m, b) for b in span[0]])


def reference_kernel(rows, ncols):
    """The null space of ``rows``: one vector per free column."""
    reduced, pivots = reference_rref(rows)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(v)
    return reference_span(basis)


def reference_preimage(span, m):
    """Reduce each column of ``m`` against the span, then take the kernel."""
    cols = [reference_reduce(span, m.column(j)) for j in range(m.cols)]
    return reference_kernel([[col[i] for col in cols] for i in range(m.rows)], m.cols)


def reference_image_sums(rees, varset):
    """``W_p`` at every interesting point, summing the image of every
    variable in ``varset``, zero pieces included."""
    return {
        p: sum_of([image_of(rees.map_matrix(p, j)) for j in varset], rees.piece_dim(p))
        for p in rees.interesting_points()
    }


def reference_koszul_prefix_exact(rees, varset):
    """The Koszul route at every interesting point."""
    seq = sorted(varset)
    for p in rees.interesting_points():
        hom = koszul_homology(rees, seq, p)
        if any(hom[d] for d in hom if d < 0):
            return False
    return True


def reference_is_flat(rees):
    """Flatness with the permutation route as a loop over all ``n!``
    orders, each tested by `is_regular_sequence`."""
    n = rees.nvars
    perm_fail = None
    for perm in permutations(range(n)):
        if not is_regular_sequence(rees, perm).regular:
            perm_fail = perm
            break

    subset_fail = None
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


def reference_exp_nilpotent(m):
    """The exponential series on `Matrix` arithmetic: one `Fraction` grid
    for every power and every partial sum."""
    if not m.is_square():
        raise ValueError("exponential of a non-square matrix")
    out = Matrix.identity(m.rows)
    power = Matrix.identity(m.rows)
    k = 1
    while True:
        power = power * m
        if power.is_zero():
            return out
        if k > m.rows:
            raise ValueError("matrix is not nilpotent")
        out = out + power * Fraction(1, factorial(k))
        k += 1


def reference_operator_failure(space, operators):
    """The first error the operator checks of `GradedBilinearStructure`
    raise, with one ``image_under`` per component and slot; None if every
    operator is square, nilpotent and lowers its slot degree by two."""
    n = space.ambient_dim
    for i, op in enumerate(operators):
        if (op.rows, op.cols) != (n, n):
            return "operator has wrong shape"
        try:
            NilpotentOperator(op)
        except ValueError as exc:
            return str(exc)
        for k, comp in space.components.items():
            tgt = k[:i] + (k[i] - 2,) + k[i + 1 :]
            if not space.component(tgt).contains(comp.image_under(op)):
                return f"operator {i} does not lower slot degree by two at {k}"
    return None


def reference_sl2_complete(structure, slot):
    """The ambient sl2 solve: conjugate Y into the adapted basis, solve the
    bracket system there, conjugate X back, build H as ``b·D·b⁻¹``, and
    certify the triple in ambient coordinates."""
    space = structure.space
    if not 0 <= slot < space.nslots:
        raise ValueError("slot out of range")
    n = space.ambient_dim
    adapted = space.adapted_basis()
    b = Matrix.from_columns([v for _, v in adapted], n)
    binv = b.inverse()
    y_ad = binv * structure.operators[slot] * b

    degs = space.multidegrees()
    layout = {}
    off = 0
    for k in degs:
        layout[k] = (off, space.components[k].dim)
        off += space.components[k].dim

    def block(m, ka, kb):
        (ro, rd), (co, cd) = layout[ka], layout[kb]
        return [[m.entries[ro + a][co + c] for c in range(cd)] for a in range(rd)]

    def shifted(k, by):
        return k[:slot] + (k[slot] + by,) + k[slot + 1 :]

    unknowns = []
    index = {}
    for k in degs:
        up = shifted(k, 2)
        if up not in layout:
            continue
        for a in range(layout[up][1]):
            for c in range(layout[k][1]):
                index[(k, a, c)] = len(unknowns)
                unknowns.append((k, a, c))

    rows, rhs = [], []
    for k in degs:
        down, up = shifted(k, -2), shifted(k, 2)
        kd = layout[k][1]
        y_from_k = block(y_ad, down, k) if down in layout else None
        y_from_up = block(y_ad, k, up) if up in layout else None
        for a in range(kd):
            for c in range(kd):
                row = [Fraction(0)] * len(unknowns)
                if y_from_k is not None:
                    for t in range(layout[down][1]):
                        if (down, a, t) in index:
                            row[index[(down, a, t)]] += y_from_k[t][c]
                if y_from_up is not None:
                    for t in range(layout[up][1]):
                        if (k, t, c) in index:
                            row[index[(k, t, c)]] -= y_from_up[a][t]
                rows.append(row)
                rhs.append(Fraction(k[slot]) if a == c else Fraction(0))

    cols = [tuple(r[j] for r in rows) for j in range(len(unknowns))]
    sol = solve_columns(cols, tuple(rhs))
    if sol is None:
        raise ValueError(
            "no sl2 completion: the grading is not the weight grading of the operator"
        )
    x_ad = [[Fraction(0)] * n for _ in range(n)]
    for val, (k, a, c) in zip(sol, unknowns):
        if val:
            (ro, _), (co, _) = layout[shifted(k, 2)], layout[k]
            x_ad[ro + a][co + c] = val
    diag = [[Fraction(0)] * n for _ in range(n)]
    for i, (k, _) in enumerate(adapted):
        diag[i][i] = Fraction(k[slot])
    x = b * Matrix(x_ad, n, n) * binv
    h = b * Matrix(diag, n, n) * b.inverse()
    return Sl2Action(x, structure.operators[slot], h, slot)


def reference_weil_w(structure):
    """The product, in slot order, of the ambient Weil elements
    ``exp(-X) exp(Y) exp(-X)`` of the ambient triples."""
    out = Matrix.identity(structure.ambient_dim)
    for i in range(structure.nslots):
        triple = reference_sl2_complete(structure, i)
        ex = reference_exp_nilpotent(-triple.raise_op)
        out = out * ex * reference_exp_nilpotent(triple.lower_op) * ex
    return out


def reference_monodromy_filtration(n, center=0):
    """The weight filtration from a Jordan chain basis: an element t steps
    down a chain of length m carries weight ``center + m - 1 - 2t``."""
    op = n if isinstance(n, NilpotentOperator) else NilpotentOperator(n)
    d = op.dim
    weighted = [
        (center + len(chain) - 1 - 2 * t, v)
        for chain in jordan_chain_basis(op)
        for t, v in enumerate(chain)
    ]
    levels = sorted({k for k, _ in weighted})
    steps = [(k, Subspace.span([v for kk, v in weighted if kk <= k], d)) for k in levels]
    out = Filtration(d, steps, center=center)
    verify_weight_axioms(out, op)
    return out


def reference_relative_monodromy(n, lfilt):
    """`relative_monodromy` in coset coordinates: each L-graded piece is a
    `QuotientPresentation`, its forced filtration is the chain-based weight
    filtration of the induced matrix, lifted vector by vector, and the
    candidate is certified through `Filtration.induced_on`."""
    op = n if isinstance(n, NilpotentOperator) else NilpotentOperator(n)
    d = lfilt.ambient_dim
    if op.dim != d:
        raise ValueError("operator and filtration live on different spaces")
    for k in lfilt.jumps():
        if not lfilt.value_at(k).contains(lfilt.value_at(k).image_under(op.matrix)):
            raise ValueError("operator does not preserve the auxiliary filtration")
    jumps = lfilt.jumps()
    if not jumps:
        return RelativeMonodromyResult(True, Filtration(d, []), None)

    pieces, graded_weights, max_exp = _reference_pieces(op, lfilt)
    lo, hi = min(jumps) - max_exp, max(jumps) + max_exp

    pre = {}
    for k in jumps:
        below = lfilt.value_at(k - 1)
        for ell in range(lo, hi + 1):
            lifts = [pieces[k].lift(b) for b in graded_weights[k].value_at(ell).basis]
            pre[(k, ell)] = below.sum(Subspace.span(lifts, d))
    forced = {
        (k, ell): sum(graded_weights[kk].value_at(ell).dim for kk in jumps if kk <= k)
        for k in jumps
        for ell in range(lo, hi)
    }

    full, zero = Subspace.full(d), Subspace.zero(d)
    ub, lb = {}, {}
    for ell in range(lo - 2, hi + 2):
        if ell < lo:
            ub[ell], lb[ell] = zero, zero
        elif ell >= hi:
            ub[ell], lb[ell] = full, full
        else:
            ub[ell], lb[ell] = pre[(jumps[-1], ell)], pre[(jumps[0], ell)]

    def refute(level, kind, msg):
        return RelativeMonodromyResult(False, None, NonexistenceCertificate(level, kind, None, msg))

    certificate = _reference_squeeze(op.matrix, lfilt, pre, forced, lb, ub, lo, hi)
    if certificate is not None:
        return RelativeMonodromyResult(False, None, certificate)
    pinned = all(lb[ell] == ub[ell] for ell in range(lo, hi))
    values = {}
    if pinned:
        values = {ell: lb[ell] for ell in range(lo, hi)}
    else:
        prev = zero
        for ell in range(lo, hi):
            cand = lb[ell].sum(prev)
            target = forced[(jumps[-1], ell)]
            if cand.dim > target:
                return refute(ell, "dimension-overflow", "completion forced too many vectors")
            if cand.dim < target:
                ext = cand.extend_to(ub[ell])
                cand = Subspace.span(list(cand.basis) + ext[: target - cand.dim], d)
            values[ell] = prev = cand

    candidate = Filtration(d, [(ell, values[ell]) for ell in range(lo, hi)] + [(hi, full)])
    failure = _reference_relative_axiom_failure(candidate, op, pieces, graded_weights)
    if failure is None:
        return RelativeMonodromyResult(True, candidate, None)
    if pinned:
        return refute(failure[0], "axiom", f"unique candidate fails certification: {failure[1]}")
    raise UndeterminedRelativeFiltration(
        "the relative filtration is undetermined: bounds left freedom and the "
        "canonical completion fails certification: "
        + failure[1]
    )


def _reference_pieces(op, lfilt):
    """Each L-graded piece as a `QuotientPresentation`, the chain-based
    weight filtration of the induced matrix centered at its jump, and the
    largest exponent of an induced operator."""
    pieces, graded_weights, max_exp = {}, {}, 1
    for k in lfilt.jumps():
        piece = lfilt.graded_at(k)
        pieces[k] = piece
        ind_op = NilpotentOperator(piece.induced_matrix(op.matrix, piece))
        max_exp = max(max_exp, ind_op.exponent)
        graded_weights[k] = reference_monodromy_filtration(ind_op, center=k)
    return pieces, graded_weights, max_exp


def reference_relative_failure(n, lfilt, m):
    """None if ``m`` is a weight filtration of N relative to L, checked in
    coset coordinates, else (level, reason)."""
    op = n if isinstance(n, NilpotentOperator) else NilpotentOperator(n)
    pieces, graded_weights, _ = _reference_pieces(op, lfilt)
    return _reference_relative_axiom_failure(m, op, pieces, graded_weights)


def _reference_squeeze(matrix, lfilt, pre, forced, lb, ub, lo, hi):
    """The bound sweeps with the room intersected with ``L_k`` as well,
    and the separate test that each upper bound is large enough."""
    jumps = lfilt.jumps()
    top = jumps[-1]

    def signature():
        return tuple(ub[e].dim for e in sorted(ub)) + tuple(lb[e].dim for e in sorted(lb))

    while True:
        before = signature()
        for ell in range(hi - 1, lo - 1, -1):
            ub[ell] = ub[ell].intersect(ub[ell + 1]).intersect(ub[ell - 2].preimage_under(matrix))
        for ell in range(lo, hi):
            lb[ell] = lb[ell].sum(lb[ell - 1]).sum(lb[ell + 2].image_under(matrix))
        for ell in range(lo, hi):
            for k in jumps:
                cap = ub[ell].intersect(lfilt.value_at(k)).intersect(pre[(k, ell)])
                need = forced[(k, ell)]
                if cap.dim < need:
                    return NonexistenceCertificate(
                        ell, "dimension-shortfall", k,
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
                    ell, "dimension-overflow", None,
                    f"forced lower bound has dimension {lb[ell].dim} > forced total {total}",
                )
            if ub[ell].dim < total:
                return NonexistenceCertificate(
                    ell, "dimension-shortfall", None,
                    f"upper bound has dimension {ub[ell].dim} < forced total {total}",
                )
            for k in jumps:
                got = lb[ell].intersect(lfilt.value_at(k)).dim
                if got > forced[(k, ell)]:
                    return NonexistenceCertificate(
                        ell, "dimension-overflow", k,
                        f"forced vectors inside L at jump {k}, level {ell}: {got} > {forced[(k, ell)]}",
                    )
        if signature() == before:
            return None


def _reference_relative_axiom_failure(m, op, pieces, graded_weights):
    for ell in m.jumps():
        if not m.value_at(ell - 2).contains(m.value_at(ell).image_under(op.matrix)):
            return ell, f"operator does not lower the candidate by two at level {ell}"
    for k, piece in pieces.items():
        want = graded_weights[k]
        induced = m.induced_on(piece)
        span = list(want.jumps()) + list(m.jumps())
        for ell in range(min(span) - 1, max(span) + 1):
            if induced.value_at(ell) != want.value_at(ell):
                return ell, f"induced filtration on the graded piece at {k} deviates at level {ell}"
    return None


def reference_nested_dims(operators):
    """The nested graded dimensions of `graded_sum_decomposition`, from the
    matrices the later operators induce on each graded piece."""
    nested = {}

    def recurse(mats, prefix):
        w = reference_monodromy_filtration(mats[0])
        for k in w.jumps():
            piece = w.graded_at(k)
            if len(mats) == 1:
                nested[prefix + (k,)] = piece.dim
            else:
                recurse([piece.induced_matrix(m, piece) for m in mats[1:]], prefix + (k,))

    recurse(list(operators), ())
    return nested
