"""Reference fixtures: irreducible strings, Jordan tensors, log factors.

These are the worked examples the test suite leans on.  Everything is
constructed from first principles (explicit matrices, explicit forms) so
the fixtures can serve as independent cross-checks for the algorithmic
modules rather than echoing their output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import prod
from typing import Dict, List, Sequence, Tuple

from .exact import Immutable, Matrix, Subspace
from .filtration import Filtration
from .lefschetz import GradedBilinearStructure, GradedSpace
from .nearby import NilssonFactor

MAX_FIXTURE_SIZE = 64
"""The largest ambient dimension of a named ``V<k>`` or ``tensor-...``
fixture, and the largest denominator of a Nilsson factor list, that
`fixture_summary` and the ``nilsson-demo`` task build.  The string and
tensor fixtures hold dense square matrices of their dimension, and a
Nilsson list holds one factor per unit of the denominator; at this size
each summary takes a fraction of a second."""


class VkFixture(Immutable):
    """The (k+1)-dimensional irreducible string ``v_0, ..., v_k``.

    Defining formulas, all verbatim in the basis order ``v_0 .. v_k``:

    * lowering:  ``N v_l = v_{l-1}`` (and ``N v_0 = 0``)
    * raising:   ``X v_l = (k - l)(l + 1) v_{l+1}``
    * grading:   ``H v_l = (2 l - k) v_l``
    * pairing:   ``Q(v_l, v_{k-l}) = 1`` and 0 otherwise
    * one-step decreasing filtration: ``F^p = span(v_p, ..., v_k)``

    >>> v1 = VkFixture(1)
    >>> v1.raising.apply((1, 0))   # X v_0 = v_1
    (Fraction(0, 1), Fraction(1, 1))
    >>> v2 = VkFixture(2)
    >>> v2.raising.apply((1, 0, 0))  # X v_0 = 2 v_1
    (Fraction(0, 1), Fraction(2, 1), Fraction(0, 1))
    """

    __slots__ = ("k", "dim", "lowering", "raising", "grading", "pairing")

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError("the string length must be nonnegative")
        d = k + 1
        low = [[Fraction(0)] * d for _ in range(d)]
        for ell in range(1, d):
            low[ell - 1][ell] = Fraction(1)
        ras = [[Fraction(0)] * d for _ in range(d)]
        for ell in range(0, k):
            ras[ell + 1][ell] = Fraction((k - ell) * (ell + 1))
        grd = [[Fraction(0)] * d for _ in range(d)]
        for ell in range(d):
            grd[ell][ell] = Fraction(2 * ell - k)
        q = [[Fraction(0)] * d for _ in range(d)]
        for ell in range(d):
            q[ell][k - ell] = Fraction(1)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "lowering", Matrix(low, d, d))
        object.__setattr__(self, "raising", Matrix(ras, d, d))
        object.__setattr__(self, "grading", Matrix(grd, d, d))
        object.__setattr__(self, "pairing", Matrix(q, d, d))

    def basis_vector(self, ell: int) -> Tuple[Fraction, ...]:
        return tuple(Fraction(1) if i == ell else Fraction(0) for i in range(self.dim))

    def graded_space(self) -> GradedSpace:
        comps = {
            (2 * ell - self.k,): Subspace.span([self.basis_vector(ell)], self.dim)
            for ell in range(self.dim)
        }
        return GradedSpace(self.dim, comps)

    def structure(self) -> GradedBilinearStructure:
        return GradedBilinearStructure(self.graded_space(), [self.lowering], self.pairing)

    def hodge_filtration(self, p: int) -> Subspace:
        """``F^p = span(v_p, ..., v_k)``; decreasing in p."""
        vecs = [self.basis_vector(ell) for ell in range(max(p, 0), self.dim)]
        return Subspace.span(vecs, self.dim)

    def weight_filtration(self) -> Filtration:
        """``W_i = span(v_l : 0 <= l <= i/2)``, centered at k.

        >>> VkFixture(2).weight_filtration().jumps()
        (0, 2, 4)
        """
        steps = [
            (2 * j, Subspace.span([self.basis_vector(ell) for ell in range(j + 1)], self.dim))
            for j in range(self.dim)
        ]
        return Filtration(self.dim, steps, center=self.k)

    def graded_hodge_type(self, ell: int) -> Tuple[int, int]:
        """The Hodge type carried by the weight-(2l - k) line."""
        return (ell, ell)

    def __repr__(self) -> str:
        return f"VkFixture(k={self.k})"


def fixture_Vk(k: int) -> VkFixture:
    return VkFixture(k)


class TensorJordanFixture(Immutable):
    """A tensor product of Jordan strings, one grading slot per factor.

    Factor i has basis ``u_0 .. u_{m_i - 1}`` with lowering ``u_j -> u_{j-1}``,
    slot degree ``2 j - (m_i - 1)``, and the alternating-friendly pairing
    ``k(u_a, u_b) = (-1)^{m_i - 1 - a}`` when ``a + b == m_i - 1`` (else 0).
    The tensor carries the product grading, the slotwise operators, and the
    product pairing.

    >>> t = TensorJordanFixture((2, 2))
    >>> t.dim
    4
    >>> sorted(t.graded_space().dims().items())
    [((-1, -1), 1), ((-1, 1), 1), ((1, -1), 1), ((1, 1), 1)]
    """

    __slots__ = ("sizes", "dim", "_indices", "_offsets")

    def __init__(self, sizes: Sequence[int]) -> None:
        ms = tuple(int(m) for m in sizes)
        if not ms or any(m < 1 for m in ms):
            raise ValueError("factor sizes must be positive")
        indices = list(iproduct(*(range(m) for m in ms)))
        offsets = {idx: i for i, idx in enumerate(indices)}
        object.__setattr__(self, "sizes", ms)
        object.__setattr__(self, "dim", len(indices))
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_offsets", offsets)

    @property
    def nslots(self) -> int:
        return len(self.sizes)

    def operator(self, slot: int) -> Matrix:
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for idx in self._indices:
            if idx[slot] == 0:
                continue
            low = idx[:slot] + (idx[slot] - 1,) + idx[slot + 1 :]
            rows[self._offsets[low]][self._offsets[idx]] = Fraction(1)
        return Matrix(rows, self.dim, self.dim)

    def operators(self) -> List[Matrix]:
        return [self.operator(i) for i in range(self.nslots)]

    def multidegree(self, idx: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(2 * j - (m - 1) for j, m in zip(idx, self.sizes))

    def graded_space(self) -> GradedSpace:
        comps: Dict[Tuple[int, ...], List[Tuple[Fraction, ...]]] = {}
        for idx in self._indices:
            v = tuple(
                Fraction(1) if i == self._offsets[idx] else Fraction(0)
                for i in range(self.dim)
            )
            comps.setdefault(self.multidegree(idx), []).append(v)
        return GradedSpace(
            self.dim, {k: Subspace.span(vs, self.dim) for k, vs in comps.items()}
        )

    def pairing(self) -> Matrix:
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for a_idx in self._indices:
            for b_idx in self._indices:
                val = Fraction(1)
                for a, b, m in zip(a_idx, b_idx, self.sizes):
                    if a + b != m - 1:
                        val = Fraction(0)
                        break
                    if (m - 1 - a) % 2:
                        val = -val
                if val:
                    rows[self._offsets[a_idx]][self._offsets[b_idx]] = val
        return Matrix(rows, self.dim, self.dim)

    def structure(self) -> GradedBilinearStructure:
        return GradedBilinearStructure(self.graded_space(), self.operators(), self.pairing())

    def __repr__(self) -> str:
        return f"TensorJordanFixture(sizes={self.sizes})"


def fixture_tensor_jordan(sizes: Sequence[int]) -> TensorJordanFixture:
    return TensorJordanFixture(sizes)


def fixture_nilsson(q: int, order: int) -> List[NilssonFactor]:
    """Log factors at the shifts ``-p/q`` for ``1 <= p <= q``.

    The factor at shift ``-p/q`` has Euler eigenvalue ``-(1 - p/q)``.

    >>> [str(f.eigenvalue) for f in fixture_nilsson(3, 1)]
    ['-2/3', '-1/3', '0']
    """
    if q < 1:
        raise ValueError("the denominator must be positive")
    return [NilssonFactor(Fraction(-p, q), order) for p in range(1, q + 1)]


def fixture_summary(name: str) -> Dict[str, object]:
    """A printable description of a named fixture (for the command line).

    Names: ``V<k>`` (string fixtures), ``tensor-<m1>-<m2>-...`` (Jordan
    tensors), ``nilsson-<q>-<order>`` (log factor lists).  A name whose
    fixture exceeds `MAX_FIXTURE_SIZE` is refused before anything is built.
    """
    if name.startswith("V") and name[1:].isdigit():
        _check_size("ambient dimension", int(name[1:]) + 1)
        f = VkFixture(int(name[1:]))
        return {
            "fixture": name,
            "kind": "irreducible-string",
            "dim": f.dim,
            "graded_dims": {str(k[0]): d for k, d in f.graded_space().dims().items()},
        }
    if name.startswith("tensor-"):
        sizes = tuple(int(x) for x in name.split("-")[1:])
        _check_size("ambient dimension", prod(sizes))
        t = TensorJordanFixture(sizes)
        return {
            "fixture": name,
            "kind": "jordan-tensor",
            "dim": t.dim,
            "graded_dims": {
                ",".join(map(str, k)): d for k, d in sorted(t.graded_space().dims().items())
            },
        }
    if name.startswith("nilsson-"):
        parts = name.split("-")
        if len(parts) != 3:
            raise ValueError("nilsson fixture names look like nilsson-<q>-<order>")
        q, order = int(parts[1]), int(parts[2])
        _check_size("denominator", q)
        fs = fixture_nilsson(q, order)
        return {
            "fixture": name,
            "kind": "log-factors",
            "factors": [
                {"shift": str(f.shift), "eigenvalue": str(f.eigenvalue), "dim": f.dim}
                for f in fs
            ],
        }
    raise ValueError(f"unknown fixture name: {name}")


def _check_size(what: str, size: int) -> None:
    if size > MAX_FIXTURE_SIZE:
        raise ValueError(f"{what} {size} exceeds the limit {MAX_FIXTURE_SIZE}")
