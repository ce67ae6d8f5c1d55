"""Reference loops for the exact kernel and the Rees regularity routes.

Each exact-kernel function here is the `Fraction` (or Gaussian) field loop
that the library ran before its integer kernels, kept so that differential
tests can compare the fast paths with it.  A span is represented as the
pair ``(rref rows, pivots)``, both tuples, which is what
``Subspace.basis`` and ``Subspace._pivots`` give.  The Rees functions are
the loops that visited every interesting point and every permutation.
"""

from fractions import Fraction
from itertools import combinations, permutations

from weightfilt.exact import GaussianRational, image_of, sum_of
from weightfilt.rees import FlatnessCertificate, is_regular_sequence, koszul_homology


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
