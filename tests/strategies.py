"""Shared generators: hypothesis strategies plus seeded plain-random builders.

The plain-random builders exist so the acceptance suite can draw its fixed
500/200/100-instance corpora from one seeded `random.Random` without going
through hypothesis (whose shrinking and example database would make the
corpus nondeterministic across runs).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from weightfilt.exact import GaussianRational, Matrix, Subspace
from weightfilt.filtration import Filtration, MultiFiltration
from weightfilt.lefschetz import GradedSpace

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)

small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def gaussian_scalars(draw) -> GaussianRational:
    re = draw(small_fractions)
    im = draw(small_fractions)
    return GaussianRational(re, im)


@st.composite
def matrices(draw, rows: Optional[int] = None, cols: Optional[int] = None) -> Matrix:
    r = rows if rows is not None else draw(st.integers(min_value=1, max_value=4))
    c = cols if cols is not None else draw(st.integers(min_value=1, max_value=4))
    entries = draw(
        st.lists(
            st.lists(small_fractions, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return Matrix(entries, r, c)


@st.composite
def square_matrices(draw, max_dim: int = 4) -> Matrix:
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return draw(matrices(rows=n, cols=n))


@st.composite
def nilpotent_matrices(draw, max_dim: int = 6) -> Matrix:
    """Strictly upper triangular, then conjugated by a drawn shear."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entries = [
        [
            draw(small_ints) if j > i else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    m = Matrix([[Fraction(x) for x in row] for row in entries], n, n)
    if n >= 2:
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            c = Fraction(draw(st.sampled_from((-1, 1))))
            m = _shear(n, i, j, c) * m * _shear(n, i, j, -c)
    return m


@st.composite
def gaussian_nilpotent_matrices(draw, max_dim: int = 5) -> Matrix:
    """Strictly upper triangular with Gaussian integer entries, then
    conjugated by a drawn shear whose coefficient may be ``±i``."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entries = [
        [GaussianRational(draw(small_ints), draw(small_ints)) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    m = Matrix(entries, n, n)
    if n >= 2:
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.sampled_from((GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(1, 1))))
        m = _shear(n, i, j, c) * m * _shear(n, i, j, -c)
    return m


@st.composite
def subspaces(draw, ambient_dim: Optional[int] = None) -> Subspace:
    n = ambient_dim if ambient_dim is not None else draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=n))
    vecs = draw(
        st.lists(
            st.lists(small_ints, min_size=n, max_size=n).map(
                lambda v: tuple(Fraction(x) for x in v)
            ),
            min_size=k,
            max_size=k,
        )
    )
    return Subspace.span(vecs, n)


@st.composite
def filtrations(draw, ambient_dim: Optional[int] = None, fractional: bool = False) -> Filtration:
    n = ambient_dim if ambient_dim is not None else draw(st.integers(min_value=1, max_value=4))
    pool = draw(
        st.lists(
            st.lists(small_ints, min_size=n, max_size=n).map(
                lambda v: tuple(Fraction(x) for x in v)
            ),
            min_size=n,
            max_size=n,
        )
    )
    ncuts = draw(st.integers(min_value=1, max_value=n))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n), min_size=ncuts, max_size=ncuts)))
    if fractional:
        offsets = draw(
            st.lists(
                st.fractions(min_value=Fraction(0), max_value=Fraction(3, 4), max_denominator=4),
                min_size=len(cuts),
                max_size=len(cuts),
            )
        )
        indices = sorted(Fraction(i) + off for i, off in enumerate(offsets))
    else:
        indices = [Fraction(i) for i in range(len(cuts))]
    steps = [(idx, Subspace.span(pool[:c], n)) for idx, c in zip(indices, cuts)]
    steps.append((max(indices) + 1, Subspace.full(n)))
    return Filtration(n, steps)


@st.composite
def multifiltrations(draw, max_count: int = 3, max_dim: int = 4) -> MultiFiltration:
    n = draw(st.integers(min_value=1, max_value=max_dim))
    count = draw(st.integers(min_value=1, max_value=max_count))
    return MultiFiltration([draw(filtrations(ambient_dim=n)) for _ in range(count)])


# ---------------------------------------------------------------------------
# seeded plain-random builders (acceptance corpora)
# ---------------------------------------------------------------------------


def _shear(n: int, i: int, j: int, c: Fraction) -> Matrix:
    rows = [[Fraction(1) if a == b else Fraction(0) for b in range(n)] for a in range(n)]
    rows[i][j] = c
    return Matrix(rows, n, n)


def random_unimodular(rng: random.Random, dim: int, rounds: int = 2) -> Matrix:
    m = Matrix.identity(dim)
    if dim < 2:
        return m
    for _ in range(rounds):
        i, j = rng.sample(range(dim), 2)
        m = m * _shear(dim, i, j, Fraction(rng.choice((-1, 1))))
    return m


def conjugate_structure(
    space: GradedSpace, operators: Sequence[Matrix], pairing: Matrix, g: Matrix
) -> Tuple[GradedSpace, List[Matrix], Matrix]:
    """Graded bilinear data moved by the change of basis ``g``: components
    ``g·v``, operators ``g N g⁻¹`` and pairing ``g⁻ᵀ P g⁻¹``."""
    gi = g.inverse()
    comps = {k: s.image_under(g) for k, s in space.components.items()}
    return GradedSpace(space.ambient_dim, comps), [g * n * gi for n in operators], gi.transpose() * pairing * gi


def random_nilpotent(rng: random.Random, dim: int, conjugations: int = 2) -> Matrix:
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.5:
                rows[i][j] = Fraction(rng.randint(-2, 2))
    m = Matrix(rows, dim, dim)
    if dim >= 2:
        for _ in range(conjugations):
            i, j = rng.sample(range(dim), 2)
            c = Fraction(rng.choice((-1, 1)))
            m = _shear(dim, i, j, c) * m * _shear(dim, i, j, -c)
    return m


def random_filtration(rng: random.Random, dim: int, max_jumps: int = 3) -> Filtration:
    pool = [
        tuple(Fraction(rng.randint(-1, 1)) for _ in range(dim)) for _ in range(dim)
    ]
    cuts = sorted(rng.sample(range(1, dim + 1), rng.randint(1, min(max_jumps, dim))))
    steps: List[Tuple[Fraction, Subspace]] = [
        (Fraction(i), Subspace.span(pool[:c], dim)) for i, c in enumerate(cuts)
    ]
    steps.append((Fraction(len(cuts)), Subspace.full(dim)))
    return Filtration(dim, steps)


def block_diagonal(mats: Sequence[Matrix]) -> Matrix:
    n = sum(m.rows for m in mats)
    grid = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                grid[off + i][off + j] = m.entries[i][j]
        off += m.rows
    return Matrix(grid, n, n)


def subspace_sample_dim2() -> List[Subspace]:
    """All subspaces of the plane whose reduced basis has entries in {-1,0,1}."""
    subs = [Subspace.zero(2), Subspace.full(2)]
    for c in (Fraction(-1), Fraction(0), Fraction(1)):
        subs.append(Subspace.span([(Fraction(1), c)], 2))
    subs.append(Subspace.span([(Fraction(0), Fraction(1))], 2))
    return subs


def subspace_sample_dim3() -> List[Subspace]:
    """Spans of subsets of {e1, e2, e3, (1,1,1)}, deduplicated: 12 subspaces."""
    vecs = [
        tuple(Fraction(x) for x in v)
        for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    ]
    seen = {}
    for r in range(len(vecs) + 1):
        for combo in combinations(vecs, r):
            seen[Subspace.span(list(combo), 3)] = True
    return list(seen)


def two_step_filtration(sub: Subspace) -> Filtration:
    """The filtration whose only interesting value is the given subspace."""
    steps: List[Tuple[Fraction, Subspace]] = []
    if sub.dim > 0 and not sub.is_full():
        steps.append((Fraction(0), sub))
    steps.append((Fraction(1), Subspace.full(sub.ambient_dim)))
    return Filtration(sub.ambient_dim, steps)
