"""Seeded job streams for the benchmark workloads, with expected answers.

Nothing here imports weightfilt: the inputs are plain JSON documents (or
plain call arguments for ``weightfilt.nearby``) and every expected answer is
derived from how the input was built or from an independent rank
computation, never from the library under test.

A stream is a fixed cycle of job templates.  Two random streams fill them
in: ``shape``, which is the same for every seed, draws the structure of
each job (Jordan types, filtration levels, which pool members form a
family, Koszul sequences); ``rng``, seeded by the benchmark seed, draws the
content (changes of basis, scalars).  A change of basis keeps every
dimension, every verdict and every cache-reuse pattern, so all seeds get
the same mix of work and the run-to-run spread of the timings stays small,
while no two seeds send the library the same matrices.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import count, islice, product
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

FORMAT_TAG = "weightfilt.v1"

Mat = List[List[Fraction]]
Vec = List[Fraction]


# -- independent exact helpers --------------------------------------------


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Mat:
    return [[Fraction(0)] * c for _ in range(r)]


def matmul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in bt] for row in a]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by plain Gaussian elimination over the rationals."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    r = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = work[r][c]
        for i in range(r + 1, len(work)):
            f = work[i][c] / p
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def unimodular(shape: random.Random, rng: random.Random, n: int, shears: int) -> Tuple[Mat, Mat]:
    """A random integer matrix of determinant one, and its inverse.

    A product of shears: their positions are shape, their signs content,
    so all seeds get matrices of the same sparsity and entry sizes.
    """
    g, ginv = identity(n), identity(n)
    if n < 2:
        return g, ginv
    for _ in range(shears):
        i, j = shape.sample(range(n), 2)
        c = Fraction(rng.choice((-1, 1)))
        # g <- E g (row i += c row j);  ginv <- ginv E^-1 (col j -= c col i)
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in ginv:
            row[j] -= c * row[i]
    return g, ginv


def conjugate(g: Mat, m: Mat, ginv: Mat) -> Mat:
    return matmul(matmul(g, m), ginv)


def column(g: Mat, j: int) -> Vec:
    return [row[j] for row in g]


def block_diagonal(blocks: Sequence[Mat]) -> Mat:
    n = sum(len(b) for b in blocks)
    out = zeros(n, n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def jordan_block(m: int) -> Mat:
    """Lowering operator of a string: e_j -> e_{j-1}."""
    out = zeros(m, m)
    for j in range(1, m):
        out[j - 1][j] = Fraction(1)
    return out


def s(x) -> str:
    return str(Fraction(x))


def vec_json(v: Sequence) -> List[str]:
    return [s(x) for x in v]


def mat_json(m: Mat) -> List[List[str]]:
    return [vec_json(r) for r in m]


def document(task: str, payload: dict) -> str:
    return json.dumps({"format": FORMAT_TAG, "task": task, "payload": payload}, sort_keys=True)


def doc_job(task: str, payload: dict, expect: Dict[str, object]) -> dict:
    return {"kind": "doc", "task": task, "text": document(task, payload), "expect": expect}


# -- weight filtrations in closed form -------------------------------------


def summary_from_graded(center: int, graded: Dict[int, int]) -> dict:
    """The report summary of a centered filtration with these graded dims."""
    jumps, total = [], 0
    for k in sorted(graded):
        if graded[k]:
            total += graded[k]
            jumps.append([k, total])
    return {
        "center": center,
        "jumps": jumps,
        "graded_dims": {str(k): d for k, d in graded.items() if d},
    }


def weights_from_ranks(n: Mat, center: int) -> Dict[int, int]:
    """Weight graded dims of a nilpotent from the ranks of its powers.

    ``rank(N^(k-1)) - rank(N^k)`` counts Jordan blocks of size >= k; a block
    of size m puts one dimension at each weight ``center + m - 1 - 2t``.
    """
    d = len(n)
    ranks = [d]
    power = identity(d)
    while ranks[-1]:
        power = matmul(power, n)
        ranks.append(rank(power))
        if len(ranks) > d + 1:
            raise ValueError("generated operator is not nilpotent")
    at_least = [0] + [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    graded: Dict[int, int] = {}
    for m in range(1, len(ranks)):
        for _ in range(at_least[m] - at_least[m + 1]):
            for t in range(m):
                w = center + m - 1 - 2 * t
                graded[w] = graded.get(w, 0) + 1
    return graded


class JordanTensor:
    """Tensor product of Jordan strings, one grading slot per factor.

    Same conventions as the library's reference fixture, rebuilt here so
    that the benchmark's expected answers do not come from the library.
    """

    def __init__(self, sizes: Sequence[int]) -> None:
        self.sizes = tuple(sizes)
        self.indices = list(product(*(range(m) for m in self.sizes)))
        self.offset = {idx: i for i, idx in enumerate(self.indices)}
        self.dim = len(self.indices)

    def degree(self, idx: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(2 * j - (m - 1) for j, m in zip(idx, self.sizes))

    def operator(self, slot: int) -> Mat:
        out = zeros(self.dim, self.dim)
        for idx in self.indices:
            if idx[slot]:
                low = idx[:slot] + (idx[slot] - 1,) + idx[slot + 1 :]
                out[self.offset[low]][self.offset[idx]] = Fraction(1)
        return out

    def pairing(self) -> Mat:
        out = zeros(self.dim, self.dim)
        for a in self.indices:
            for b in self.indices:
                if all(x + y == m - 1 for x, y, m in zip(a, b, self.sizes)):
                    sign = sum(m - 1 - x for x, m in zip(a, self.sizes)) % 2
                    out[self.offset[a]][self.offset[b]] = Fraction(-1 if sign else 1)
        return out

    def total_graded(self, slots: Sequence[int]) -> Dict[int, int]:
        """Graded dims of W(sum of the chosen slot operators), centered at 0.

        The slot triples commute, so the sum has the summed grading as its
        sl2 weight grading.
        """
        out: Dict[int, int] = {}
        for idx in self.indices:
            deg = self.degree(idx)
            k = sum(deg[i] for i in slots)
            out[k] = out.get(k, 0) + 1
        return out


# -- compat-lattice ---------------------------------------------------------


class FramePool:
    """A small pool of split filtrations per dimension.

    A filtration split by the columns of a frame assigns each column a
    level; families drawn from one frame are compatible and their Rees
    modules are free, so Koszul homology and piece dimensions have closed
    forms.  Drawing from a small pool makes families repeat across jobs.
    The levels and the draws are shape, the frames are content.
    """

    def __init__(self, shape: random.Random, rng: random.Random, dims: Sequence[int], per_dim: int) -> None:
        self.shape = shape
        self.frames: Dict[int, Mat] = {}
        self.levels: Dict[int, List[Tuple[int, ...]]] = {}
        for n in dims:
            self.frames[n] = unimodular(shape, rng, n, n)[0]
            pool: List[Tuple[int, ...]] = []
            while len(pool) < min(per_dim, 2**n - 2):
                lv = tuple(shape.randint(0, 1) for _ in range(n))
                if 0 < sum(lv) < n and lv not in pool:
                    pool.append(lv)
            self.levels[n] = pool

    def split_family(self, n: int, count: int) -> Tuple[Mat, List[Tuple[int, ...]]]:
        return self.frames[n], [self.shape.choice(self.levels[n]) for _ in range(count)]


def split_filtration_json(frame: Mat, levels: Sequence[int]) -> dict:
    n = len(frame)
    steps = []
    for k in sorted(set(levels)):
        basis = [column(frame, b) for b in range(n) if levels[b] <= k]
        steps.append({"index": s(k), "basis": [vec_json(v) for v in basis]})
    return {"ambient_dim": n, "steps": steps}


def spans_filtration_json(n: int, chain: Sequence[Sequence[Vec]]) -> dict:
    """Filtration 0 < span(chain[0]) < ... < V at indices 0, 1, ..."""
    steps = [{"index": s(k), "basis": [vec_json(v) for v in vs]} for k, vs in enumerate(chain)]
    steps.append({"index": s(len(chain)), "basis": [vec_json(v) for v in identity(n)]})
    return {"ambient_dim": n, "steps": steps}


def split_box(levels: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    return [(min(lv) - 1, max(lv) + 1) for lv in levels]


def split_piece_dim(levels: Sequence[Sequence[int]], point: Sequence[int]) -> int:
    n = len(levels[0])
    return sum(all(lv[b] <= p for lv, p in zip(levels, point)) for b in range(n))


def split_koszul(levels: Sequence[Sequence[int]], seq: Sequence[int], m: Sequence[int]) -> Dict[str, int]:
    """Koszul homology of a free multigraded module (one generator per column).

    A generator at degree ``a`` contributes to H_0 at ``m`` exactly when
    ``m >= a`` and ``m_i == a_i`` on the sequence; higher homology vanishes.
    """
    n = len(levels[0])
    h0 = 0
    for b in range(n):
        a = [lv[b] for lv in levels]
        if all(x >= y for x, y in zip(m, a)) and all(m[i] == a[i] for i in seq):
            h0 += 1
    out = {str(-t): 0 for t in range(1, len(seq) + 1)}
    out["0"] = h0
    return out


# Each cycle has 25 templates, so the 50th and 90th latency percentiles fall
# in the middle of one template's group of samples rather than on the gap
# between two templates, which would make them jump from run to run.


def compat_lattice(shape: random.Random, rng: random.Random) -> List[Callable[[], dict]]:
    pool = FramePool(shape, rng, dims=range(2, 7), per_dim=3)
    vec_pool = {
        n: [matmul(pool.frames[n], [[Fraction(shape.randint(-2, 2))] for _ in range(n)]) for _ in range(4)]
        for n in range(2, 7)
    }

    def compat_split(n: int, count: int) -> Callable[[], dict]:
        def make() -> dict:
            frame, levels = pool.split_family(n, count)
            payload = {"filtrations": [split_filtration_json(frame, lv) for lv in levels]}
            return doc_job("check-compat", payload, {"verdict": True, "details.agreement": True})
        return make

    def compat_lines(n: int, extra: int) -> Callable[[], dict]:
        # three distinct lines of one plane: the canonical incompatibility
        def make() -> dict:
            frame, levels = pool.split_family(n, extra)
            a, b = column(frame, 0), column(frame, 1)
            lines = [a, b, [x + y for x, y in zip(a, b)]]
            filts = [spans_filtration_json(n, [[v]]) for v in lines]
            filts += [split_filtration_json(frame, lv) for lv in levels]
            shape.shuffle(filts)
            return doc_job("check-compat", {"filtrations": filts}, {"verdict": False, "details.agreement": True})
        return make

    def compat_pool(n: int, count: int) -> Callable[[], dict]:
        # spans of a small vector pool: only the oracles' agreement is known,
        # except that any two filtrations are compatible
        def make() -> dict:
            filts = []
            for _ in range(count):
                vs = [[row[0] for row in v] for v in shape.sample(vec_pool[n], 2)]
                filts.append(spans_filtration_json(n, [vs[:1], vs]))
            expect: Dict[str, object] = {"details.agreement": True}
            if count == 2:
                expect["verdict"] = True
            return doc_job("check-compat", {"filtrations": filts}, expect)
        return make

    def koszul(n: int, count: int) -> Callable[[], dict]:
        def make() -> dict:
            frame, levels = pool.split_family(n, count)
            box = split_box(levels)
            seq = sorted(shape.sample(range(count), shape.randint(1, count)))
            m = [shape.randint(lo, hi) for lo, hi in box]
            payload = {
                "filtrations": [split_filtration_json(frame, lv) for lv in levels],
                "sequence": seq,
                "multidegree": m,
            }
            return doc_job("koszul-homology", payload, {"verdict": True, "details.homology": split_koszul(levels, seq, m)})
        return make

    def rees(n: int, count: int) -> Callable[[], dict]:
        def make() -> dict:
            frame, levels = pool.split_family(n, count)
            box = split_box(levels)
            dims = {
                ",".join(map(str, p)): split_piece_dim(levels, p)
                for p in product(*(range(lo, hi + 1) for lo, hi in box))
            }
            payload = {"filtrations": [split_filtration_json(frame, lv) for lv in levels]}
            expect = {"verdict": True, "details.box": [list(b) for b in box], "details.piece_dims": dims}
            return doc_job("rees-summary", payload, expect)
        return make

    return [
        compat_split(3, 2), rees(2, 2), koszul(4, 3), compat_pool(3, 2),
        compat_lines(3, 0), rees(4, 3), compat_split(4, 3), koszul(5, 2),
        compat_pool(4, 3), rees(6, 2), compat_split(2, 4), koszul(3, 4),
        compat_lines(4, 1), rees(5, 3), compat_split(6, 2), koszul(6, 3),
        compat_pool(2, 3), rees(3, 4), compat_split(5, 3), koszul(2, 2),
        compat_pool(5, 2), rees(3, 2), koszul(3, 2), compat_lines(2, 0), compat_split(4, 2),
    ]


# -- weight-monodromy -------------------------------------------------------


def random_partition(shape: random.Random, d: int) -> List[int]:
    parts = []
    while d:
        p = shape.randint(1, d)
        parts.append(p)
        d -= p
    return parts


def centered_json(n: int, center: int, steps: Sequence[Tuple[int, Sequence[Vec]]]) -> dict:
    return {
        "ambient_dim": n,
        "center": center,
        "steps": [{"index": k, "basis": [vec_json(v) for v in vs]} for k, vs in steps],
    }


def weight_monodromy(shape: random.Random, rng: random.Random) -> List[Callable[[], dict]]:
    def random_nilpotent(d: int) -> Mat:
        j = block_diagonal([jordan_block(m) for m in random_partition(shape, d)])
        g, ginv = unimodular(shape, rng, d, d)
        return conjugate(g, j, ginv)

    def monodromy(d: int) -> Callable[[], dict]:
        def make() -> dict:
            n = random_nilpotent(d)
            c = shape.randint(-2, 2)
            summary = summary_from_graded(c, weights_from_ranks(n, c))
            payload = {"operator": mat_json(n), "center": c}
            return doc_job("check-monodromy", payload, {"verdict": True, "details.filtration": summary})
        return make

    def relative_trivial(d: int) -> Callable[[], dict]:
        # relative to the trivial filtration is the absolute filtration
        def make() -> dict:
            n = random_nilpotent(d)
            summary = summary_from_graded(0, weights_from_ranks(n, 0))
            payload = {"operator": mat_json(n), "filtration": centered_json(d, 0, [(0, identity(d))])}
            return doc_job("check-relative", payload, {"verdict": True, "details.filtration": summary})
        return make

    def relative_refuted(r: int) -> Callable[[], dict]:
        # N = J2 (x) I_r with adjacent L-jumps across which N is an
        # isomorphism: no relative filtration exists
        def make() -> dict:
            d = 2 * r
            n = block_diagonal([jordan_block(2)] * r)
            g, ginv = unimodular(shape, rng, d, d)
            bottom = [column(g, 2 * t) for t in range(r)]
            payload = {
                "operator": mat_json(conjugate(g, n, ginv)),
                "filtration": centered_json(d, 0, [(0, bottom), (1, identity(d))]),
            }
            return doc_job("check-relative", payload, {"verdict": False})
        return make

    def relative_tensor(sizes: Tuple[int, ...]) -> Callable[[], dict]:
        # N_1 relative to W(N_2 + ... + N_p) is W(N_1 + ... + N_p)
        def make() -> dict:
            t = JordanTensor(sizes)
            g, ginv = unimodular(shape, rng, t.dim, t.dim)
            rest = range(1, len(sizes))
            levels: Dict[int, List[Vec]] = {}
            for idx in t.indices:
                k = sum(t.degree(idx)[i] for i in rest)
                levels.setdefault(k, []).append(column(g, t.offset[idx]))
            steps, acc = [], []
            for k in sorted(levels):
                acc = acc + levels[k]
                steps.append((k, acc))
            payload = {
                "operator": mat_json(conjugate(g, t.operator(0), ginv)),
                "filtration": centered_json(t.dim, 0, steps),
            }
            summary = summary_from_graded(0, t.total_graded(range(len(sizes))))
            return doc_job("check-relative", payload, {"verdict": True, "details.filtration": summary})
        return make

    def iterated(sizes: Tuple[int, ...]) -> Callable[[], dict]:
        def make() -> dict:
            t = JordanTensor(sizes)
            g, ginv = unimodular(shape, rng, t.dim, t.dim)
            ops = [mat_json(conjugate(g, t.operator(i), ginv)) for i in range(len(sizes))]
            summary = summary_from_graded(0, t.total_graded(range(len(sizes))))
            expect = {"verdict": True, "details.total": summary, "details.iterated": summary}
            return doc_job("check-iterated", {"operators": ops}, expect)
        return make

    return [
        monodromy(4), relative_trivial(3), relative_refuted(1), iterated((2, 2)),
        monodromy(8), relative_tensor((2, 2)), relative_refuted(3), iterated((2, 3)),
        monodromy(6), relative_trivial(6), relative_tensor((2, 3)), iterated((3, 3)),
        monodromy(12), relative_refuted(6), relative_tensor((2, 2, 2)), iterated((2, 2, 2)),
        monodromy(10), relative_trivial(8), relative_tensor((2, 5)), iterated((2, 4)),
        monodromy(3), relative_trivial(4), relative_refuted(2), monodromy(7), iterated((2, 2)),
    ]


# -- polarized-hodge ---------------------------------------------------------


def polarized_hodge(shape: random.Random, rng: random.Random) -> List[Callable[[], dict]]:
    def lefschetz(sizes: Tuple[int, ...], mode: str) -> Callable[[], dict]:
        # the reference pairing polarizes; a positive rescaling or a change
        # of basis keeps that, negating it breaks it
        def make() -> dict:
            t = JordanTensor(sizes)
            d = t.dim
            ops = [t.operator(i) for i in range(len(sizes))]
            q = t.pairing()
            basis = identity(d)
            verdict = True
            if mode == "scaled":
                c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
                q = [[c * x for x in row] for row in q]
            elif mode == "negated":
                c = -Fraction(rng.randint(1, 6), rng.randint(1, 6))
                q = [[c * x for x in row] for row in q]
                verdict = False
            elif mode == "basis":
                g, ginv = unimodular(shape, rng, d, d)
                ops = [conjugate(g, n, ginv) for n in ops]
                q = matmul(matmul(transpose(ginv), q), ginv)
                basis = g
            comps: Dict[Tuple[int, ...], List[Vec]] = {}
            for idx in t.indices:
                comps.setdefault(t.degree(idx), []).append(column(basis, t.offset[idx]))
            payload = {
                "ambient_dim": d,
                "components": [
                    {"degree": list(k), "basis": [vec_json(v) for v in vs]} for k, vs in sorted(comps.items())
                ],
                "operators": [mat_json(n) for n in ops],
                "pairing": mat_json(q),
            }
            expect = {"verdict": verdict, "details.primitive_route": verdict, "details.weil_route": verdict}
            return doc_job("check-lefschetz", payload, expect)
        return make

    def monodromic(nvars: int, budget: int, lowered: bool) -> Tuple[List[Mat], List[int]]:
        """Block sums of commuting Jordan tensors of total dimension at most
        ``budget``, and their nil orders; with ``lowered``, some order is > 0.

        Drawn once per template, so a template's cost is the same in every
        cycle and the latency percentiles do not jump between templates.
        """
        while True:
            blocks: List[List[Mat]] = []
            orders = [0] * nvars
            total = 0
            while total < budget:
                sizes = [shape.randint(1, 4)] if nvars == 1 else [shape.randint(1, 3), shape.randint(1, 2)]
                t = JordanTensor(sizes)
                if total + t.dim > budget and total:
                    break
                blocks.append([t.operator(i) for i in range(nvars)])
                orders = [max(o, m - 1) for o, m in zip(orders, sizes)]
                total += t.dim
            if not lowered or any(orders):
                return [block_diagonal([b[i] for b in blocks]) for i in range(nvars)], orders

    def nearby(call: str, nvars: int, budget: int, lowered: bool) -> Callable[[], dict]:
        base, orders = monodromic(nvars, budget, lowered)
        dim = len(base[0])
        if call == "two_path_compare":
            expect = {"equal": True, "inside_kernel": True, "image_dim": dim}
        elif lowered:
            i = max(range(nvars), key=lambda v: orders[v])
            orders = orders[:i] + [orders[i] - 1] + orders[i + 1 :]
            expect = {"contained": False, "isomorphism": False}
        else:
            expect = {"isomorphism": True, "kernel_dim": dim, "image_dim": dim}

        def make() -> dict:
            g, ginv = unimodular(shape, rng, dim, dim)
            supports = [s(Fraction(-rng.randint(1, 4), rng.randint(4, 5))) for _ in range(nvars)]
            ops = [mat_json(conjugate(g, n, ginv)) for n in base]
            args = {"supports": supports, "operators": ops, "orders": list(orders)}
            return {"kind": "nearby", "task": call, "args": args, "expect": expect}
        return make

    return [
        lefschetz((2, 2), "plain"), nearby("nils_iso_check", 1, 4, False), lefschetz((2, 3), "scaled"),
        nearby("nils_iso_check", 2, 4, True), lefschetz((2, 3), "basis"), nearby("two_path_compare", 2, 4, False),
        lefschetz((3, 4), "scaled"), lefschetz((2, 2, 2), "negated"), nearby("nils_iso_check", 2, 6, False),
        lefschetz((3, 3), "basis"), nearby("nils_iso_check", 1, 6, True), lefschetz((2, 8), "plain"),
        lefschetz((2, 4), "negated"), nearby("two_path_compare", 2, 6, False), lefschetz((8,), "scaled"),
        nearby("nils_iso_check", 2, 5, True), lefschetz((2, 2, 3), "basis"), nearby("two_path_compare", 2, 5, False),
        nearby("nils_iso_check", 1, 3, False), lefschetz((2,), "plain"), nearby("two_path_compare", 2, 3, False),
        lefschetz((2, 3), "negated"), nearby("nils_iso_check", 2, 4, False), lefschetz((3,), "basis"),
        lefschetz((2, 2), "scaled"),
    ]


WORKLOADS: Dict[str, Callable[[random.Random, random.Random], List[Callable[[], dict]]]] = {
    "compat-lattice": compat_lattice,
    "weight-monodromy": weight_monodromy,
    "polarized-hodge": polarized_hodge,
}


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload](random.Random(0), random.Random(0)))


def stream(workload: str, seed: int) -> Iterator[dict]:
    """A workload's endless job stream for ``seed``."""
    cycle = WORKLOADS[workload](random.Random(workload), random.Random(f"{workload}:{seed}"))
    for i in count():
        yield cycle[i % len(cycle)]()


def generate(workload: str, seed: int, n: int) -> List[dict]:
    """The first ``n`` jobs of a workload's stream for ``seed``."""
    return list(islice(stream(workload, seed), n))


def mismatches(job: dict, report: dict) -> List[str]:
    """Expected fields that the report gets wrong (dotted paths)."""
    out = []
    for path, want in job["expect"].items():
        got: object = report
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        if got != want:
            out.append(f"{path}: expected {want!r}, got {got!r}")
    return out
