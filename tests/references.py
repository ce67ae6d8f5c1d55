"""Fraction reference loops for the exact kernel.

Each function here is the `Fraction` (or Gaussian) field loop that the
library ran before its integer kernels, kept so that differential tests
can compare the fast paths with it.  A span is represented as the pair
``(rref rows, pivots)``, both tuples, which is what ``Subspace.basis`` and
``Subspace._pivots`` give.
"""

from fractions import Fraction

from weightfilt.exact import GaussianRational


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
