"""Shared test data and oracles.

The two hand-worked matrices (a 6x6 and a 12x12 3-cyclic example) appear
throughout the suite; their block products, spectra, and zero-chain
lengths are known exactly.  The brute-force partition oracle enumerates
every residue labelling, independent of the potential/gcd method used by
the library.  The entry-by-entry loops for h-cyclicity and circulants,
the row-by-row elimination, the one-rank-per-power Weyr loop, the
float-by-float JSON renderer, the dict-and-deque BFS of the partition
search, the sliced pair decoder and the hand-written threshold
expressions are the references that the library's array, bulk and
shared versions must match exactly.  The Weyr weights from exact ranks
over the Gaussian rationals (``fractions.Fraction``) are the oracle of the
exact Weyr path, and the Python-integer elimination and rational
reconstruction those of its parts.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import numbers
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np

from hcyclic import CyclicPartition, Digraph, JordanChain, assemble_blocks, matrix_rank, omega


def six_matrix() -> np.ndarray:
    """3-cyclic matrix with classes {1}, {2,3,4}, {5,6} and B_1 = [4]."""
    a = np.zeros((6, 6), dtype=complex)
    a[0, 1] = a[0, 2] = a[0, 3] = 1
    a[1, 4] = 1
    a[2, 5] = 1
    a[3, 4] = a[3, 5] = 1
    a[4, 0] = 1
    a[5, 0] = 1
    return a


SIX_PARTITION = CyclicPartition(3, ((1,), (2, 3, 4), (5, 6)))


def twelve_matrix() -> np.ndarray:
    """3-cyclic matrix with 4+4+4 classes, all-ones top block, and a
    rank-deficient middle block; zero Jordan structure {3, 2, 2, 1, 1}."""
    a12 = np.ones((4, 4))
    a23 = np.array(
        [[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float
    )
    a31 = np.eye(4)
    return assemble_blocks([a12, a23, a31])


TWELVE_PARTITION = CyclicPartition(
    3, (tuple(range(1, 5)), tuple(range(5, 9)), tuple(range(9, 13)))
)


def bipartite_ones_matrix() -> np.ndarray:
    """Singular bipartite matrix with equal class sizes (converse witness)."""
    return np.array(
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=complex
    )


BIPARTITE_PARTITION = CyclicPartition(2, ((1, 2), (3, 4)))


def scale_separated_matrix() -> np.ndarray:
    """2-cyclic matrix with classes {1, 2}, {3}, a_13 = 1e200 and
    a_32 = 1e-200; (1e200 e_1, e_3) is an exact zero chain."""
    a = np.zeros((3, 3), dtype=complex)
    a[0, 2], a[2, 1] = 1e200, 1e-200
    return a


SCALE_SEPARATED_PARTITION = CyclicPartition(2, ((1, 2), (3,)))


def inexact_kernel_matrix() -> np.ndarray:
    """2-cyclic matrix with classes {1, 2}, {3, 4}, A_12 = [[49, 1], [0, 0]]
    and A_21 = I, so B_1 = A_12.  Its kernel vector (-1/49, 1) is not
    exact in floating point: B_1 applied to it leaves 1 - 49 * (1/49) =
    8e-17, which fails the kernel test at tol 0."""
    return assemble_blocks([np.array([[49.0, 1.0], [0.0, 0.0]]), np.eye(2)])


INEXACT_KERNEL_PARTITION = CyclicPartition(2, ((1, 2), (3, 4)))


def unit_disk(shape, rng) -> np.ndarray:
    """Complex samples uniform on the unit disk."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, shape))
    angle = rng.uniform(0.0, 2 * np.pi, shape)
    return radius * np.exp(1j * angle)


def consecutive_partition(sizes) -> CyclicPartition:
    classes = []
    start = 1
    for s in sizes:
        classes.append(tuple(range(start, start + s)))
        start += s
    return CyclicPartition(len(sizes), tuple(classes))


def random_block_cycle(rng, h=None, max_size=5, equal_sizes=False, nonsingular=False):
    """Random consecutive h-cyclic matrix; returns (matrix, partition).

    With ``nonsingular`` the class sizes are forced equal and instances
    are redrawn (rank judged by SVD, independent of the library) until
    the full matrix is invertible.
    """
    if h is None:
        h = int(rng.integers(2, 7))
    while True:
        if equal_sizes or nonsingular:
            m = int(rng.integers(1, max_size + 1))
            sizes = [m] * h
        else:
            sizes = [int(rng.integers(1, max_size + 1)) for _ in range(h)]
        blocks = [
            unit_disk((sizes[i], sizes[(i + 1) % h]), rng) for i in range(h)
        ]
        a = assemble_blocks(blocks)
        if not nonsingular or np.linalg.matrix_rank(a) == a.shape[0]:
            return a, consecutive_partition(sizes)


def eigen_orbit_chains(a, h: int) -> tuple[list[JordanChain], list[JordanChain]]:
    """Base right and left eigenvector chains of a diagonalizable h-cyclic
    ``a``, one pair per root-of-unity orbit of its spectrum, taken from
    ``np.linalg.eig``; each orbit is checked to be whole to 1e-6."""
    w, v = np.linalg.eig(a)
    vinv = np.linalg.inv(v)
    used = [False] * len(w)
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), cmath.phase(w[i])))
    rot = omega(h)
    rights, lefts = [], []
    for idx in order:
        if used[idx]:
            continue
        lam = w[idx]
        used[idx] = True
        for k in range(1, h):
            target = lam * rot**k
            free = [j for j in range(len(w)) if not used[j]]
            j = min(free, key=lambda jj: abs(w[jj] - target))
            assert abs(w[j] - target) <= 1e-6
            used[j] = True
        rights.append(JordanChain(complex(lam), "right", (v[:, idx],)))
        lefts.append(JordanChain(complex(lam), "left", (vinv[idx],)))
    return rights, lefts


@lru_cache(maxsize=None)
def _all_labellings(n: int, h: int) -> np.ndarray:
    return np.array(list(itertools.product(range(h), repeat=n)), dtype=np.int8)


def brute_force_partition_exists(g: Digraph, h: int) -> bool:
    """Exhaustive oracle: does any h-class labelling with nonempty classes
    send every arc from class c to class c+1 mod h?"""
    n = g.n
    if h > n:
        return False
    labels = _all_labellings(n, h)
    ok = np.ones(labels.shape[0], dtype=bool)
    for i, j in g.sorted_arcs:
        ok &= labels[:, j - 1] == (labels[:, i - 1] + 1) % h
    for c in range(h):
        ok &= (labels == c).any(axis=1)
    return bool(ok.any())


def brute_force_is_h_cyclic(a, part: CyclicPartition, tol: float) -> bool:
    """Arc-by-arc oracle: every entry with modulus above ``tol`` must run
    from some class V_c to V_(c mod h + 1)."""
    class_of = {v: c for c, cls in enumerate(part.classes, start=1) for v in cls}
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(a[i, j]) > tol and class_of[j + 1] != class_of[i + 1] % part.h + 1:
                return False
    return True


def brute_force_circulant(ref) -> np.ndarray:
    """Circulant with first row ``ref``, filled entry by entry."""
    n = len(ref)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = ref[(j - i) % n]
    return out


def brute_force_recognize_circulant(c, tol: float):
    """First row of ``c`` if every entry is within ``tol`` of the first-row
    entry on its wrapped diagonal, else None."""
    n = c.shape[0]
    ref = c[0].copy()
    for i in range(n):
        for j in range(n):
            if abs(c[i, j] - ref[(j - i) % n]) > tol:
                return None
    return ref


def random_partition(rng, n: int, h: int) -> CyclicPartition:
    """Random h-class partition of 1..n with nonempty, generally
    non-consecutive classes."""
    labels = np.concatenate([np.arange(h), rng.integers(0, h, n - h)])
    rng.shuffle(labels)
    return CyclicPartition(h, tuple(tuple(np.flatnonzero(labels == c) + 1) for c in range(h)))


def loop_rref(a: np.ndarray, thr: float) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with partial pivoting.

    Pivots whose modulus is <= ``thr`` are treated as zero.  Returns the
    reduced matrix and the list of pivot column indices (0-based).
    """
    r = np.array(a, dtype=complex)
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[p, col]) <= thr:
            continue
        if p != row:
            r[[row, p]] = r[[p, row]]
        r[row] = r[row] / r[row, col]
        r[row, col] = 1.0
        for other in range(m):
            if other != row and r[other, col] != 0:
                r[other] = r[other] - r[other, col] * r[row]
                r[other, col] = 0.0
        pivots.append(col)
        row += 1
    return r, pivots


def unimodular(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Random integer m x m matrix U with integer inverse and small
    entries: a signed permutation times (I + N)(I + M)^T, N and M
    superdiagonal with entries in {-1, 0, 1}."""
    def bidiag():
        b = np.eye(m, dtype=np.int64)
        b[np.arange(m - 1), np.arange(1, m)] = rng.integers(-1, 2, m - 1)
        return b

    p = np.zeros((m, m), dtype=np.int64)
    p[np.arange(m), rng.permutation(m)] = rng.choice(np.array([-1, 1]), m)
    u = p @ bidiag() @ bidiag().T
    u_inv = np.rint(np.linalg.inv(u.astype(float))).astype(np.int64)
    assert np.array_equal(u @ u_inv, np.eye(m, dtype=np.int64))
    return u, u_inv


def planted_jordan(rng, blocks, diagonal) -> tuple[np.ndarray, tuple[int, ...]]:
    """A = U D U^-1 with D the nilpotent Jordan blocks of the given orders
    followed by the nonzero numbers ``diagonal``, and U from
    :func:`unimodular`, so A is an integer matrix when ``diagonal`` is;
    returns A and its Weyr weights at zero, the conjugate of the block
    orders."""
    n = sum(blocks) + len(diagonal)
    d = np.zeros((n, n))
    start = 0
    for b in blocks:
        d[np.arange(start, start + b - 1), np.arange(start + 1, start + b)] = 1
        start += b
    d[np.arange(start, n), np.arange(start, n)] = diagonal
    u, u_inv = unimodular(rng, n)
    weights = tuple(sum(1 for b in blocks if b >= k) for k in range(1, max(blocks, default=0) + 1))
    return (u @ d @ u_inv).astype(complex), weights


def loop_weyr_weights(am: np.ndarray, tol: float) -> tuple[int, ...]:
    """Nullity steps of the powers of the square matrix ``am``, one rank
    per power: w_k = nullity(A^k) - nullity(A^(k-1)) while positive."""
    n = am.shape[0]
    weights: list[int] = []
    prev_nullity = 0
    power = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        power = power @ am
        nullity = n - matrix_rank(power, tol)
        w = nullity - prev_nullity
        if w <= 0:
            break
        weights.append(w)
        prev_nullity = nullity
        if nullity == n:
            break
    return tuple(weights)


def _gaussian_rank(rows: list[list[tuple[Fraction, Fraction]]]) -> int:
    """Rank over Q(i) of a matrix of (re, im) Fraction pairs, by exact
    Gaussian elimination (the list is consumed)."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        a, b = rows[rank][col]
        norm = a * a + b * b
        inv = (a / norm, -b / norm)
        for i in range(rank + 1, len(rows)):
            c, d = rows[i][col]
            if (c, d) == (0, 0):
                continue
            # factor = rows[i][col] / pivot
            f = (c * inv[0] - d * inv[1], c * inv[1] + d * inv[0])
            rows[i] = [(x - (f[0] * y - f[1] * z), w - (f[0] * z + f[1] * y))
                       for (x, w), (y, z) in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_rank(am: np.ndarray) -> int:
    """Exact rank over Q(i) of a Gaussian-integer matrix."""
    return _gaussian_rank([[(Fraction(int(z.real)), Fraction(int(z.imag))) for z in row]
                           for row in np.asarray(am, dtype=complex)])


def fraction_weyr_weights(am: np.ndarray) -> tuple[int, ...]:
    """Weyr weights at zero of a Gaussian-integer matrix from the exact
    ranks of its powers over Q(i), one rank per power."""
    n = am.shape[0]
    a = [[(int(z.real), int(z.imag)) for z in row] for row in np.asarray(am, dtype=complex)]
    power = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    weights: list[int] = []
    nullity = 0
    while nullity < n:
        power = [[(sum(x * y - w * z for (x, w), (y, z) in zip(row, col)),
                   sum(x * z + w * y for (x, w), (y, z) in zip(row, col)))
                  for col in zip(*a)] for row in power]
        rank = _gaussian_rank([[(Fraction(x), Fraction(y)) for x, y in row] for row in power])
        w = n - rank - nullity
        if w <= 0:
            break
        weights.append(w)
        nullity += w
    return tuple(weights)


def loop_eliminate(m, primes, ncols: int, every: bool = False):
    """Gauss-Jordan elimination of each ``m[f]`` modulo ``primes[f]`` in
    Python integers, one pivot at a time, with the pivot rule of the
    library's panelled elimination: in each of the first ``ncols``
    columns, the first row still to pivot that is nonzero in every field,
    swapped into place.  Returns the eliminated rows and the pivot columns,
    or None where the library gives up (a column nonzero in some field but
    in no row that all can pivot on; with ``every``, a column without a
    pivot)."""
    rows = [[[int(x) for x in row] for row in field] for field in m]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(rows[0]):
            break
        common = [i for i in range(row, len(rows[0])) if all(f[i][col] for f in rows)]
        if not common:
            if every or any(f[i][col] for f in rows for i in range(row, len(rows[0]))):
                return None
            continue
        for f, p in zip(rows, primes):
            f[row], f[common[0]] = f[common[0]], f[row]
            inverse = pow(f[row][col], -1, p)
            f[row] = [x * inverse % p for x in f[row]]
            for i, other in enumerate(f):
                if i != row and other[col]:
                    factor = other[col]
                    f[i] = [(x - factor * y) % p for x, y in zip(other, f[row])]
        pivots.append(col)
    return rows, pivots


def wang_lift(x: int, modulus: int, bound: int):
    """The a/b with |a| <= bound and 0 < b <= bound that the extended
    Euclidean algorithm on (modulus, x) reaches first, or None."""
    r0, r1, t0, t1 = modulus, x % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def loop_render_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats at 12
    significant digits."""
    parts: list[str] = []
    _loop_render(value, parts)
    return "".join(parts)


def _loop_render(value, parts: list[str]) -> None:
    if isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        f = float(value)
        if not math.isfinite(f):
            raise ValueError("cannot render non-finite float")
        parts.append(f"{f:.12g}")
    elif value is None:
        parts.append("null")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, dict):
        parts.append("{")
        for idx, (key, item) in enumerate(value.items()):
            if idx:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _loop_render(item, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for idx, item in enumerate(value):
            if idx:
                parts.append(", ")
            _loop_render(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def loop_potential_data(g: Digraph):
    """BFS potentials on the underlying graph; the weakly connected
    components, each as (members, least potential, span of potentials);
    and the gcd of all arc discrepancies |pot(i) + 1 - pot(j)|."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.arcs:
        adj[i].append((j, 1))
        adj[j].append((i, -1))
    for v in adj:
        adj[v].sort()
    pot: dict[int, int] = {}
    comps: list[tuple[list[int], int, int]] = []
    for s in range(1, g.n + 1):
        if s in pot:
            continue
        pot[s] = 0
        members = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w, step in adj[u]:
                if w not in pot:
                    pot[w] = pot[u] + step
                    members.append(w)
                    queue.append(w)
        values = [pot[v] for v in members]
        comps.append((sorted(members), min(values), max(values) - min(values) + 1))
    g_all = 0
    for i, j in g.arcs:
        g_all = math.gcd(g_all, abs(pot[i] + 1 - pot[j]))
    return pot, comps, g_all


def loop_feasible_h_values(g: Digraph) -> list[int]:
    """All h for which ``loop_find_h_partition`` succeeds, in increasing order."""
    _, comps, idx = loop_potential_data(g)
    if idx > 0:
        return [h for h in range(1, idx + 1) if idx % h == 0]
    return list(range(1, sum(span for _, _, span in comps) + 1))


def loop_find_h_partition(g: Digraph, h: int) -> CyclicPartition | None:
    """Cyclically h-partite partition from the dict potentials, vertex 1
    in V_1, components placed end to end; None when there is none."""
    pot, comps, idx = loop_potential_data(g)
    if idx > 0 and idx % h != 0:
        return None
    labels: dict[int, int] = {}
    cursor = 0
    for members, lo, span in comps:
        offset = cursor - lo
        for v in members:
            labels[v] = (pot[v] + offset) % h
        cursor += min(span, h)
    if cursor < h:
        return None
    shift = labels[1]
    classes: list[list[int]] = [[] for _ in range(h)]
    for v in range(1, g.n + 1):
        classes[(labels[v] - shift) % h].append(v)
    return CyclicPartition(h=h, classes=tuple(tuple(cls) for cls in classes))


# Pairs converted per np.asarray call.  Converting a nested list whole
# takes about twice the result's size in temporary buffers, which for a
# large matrix raises the peak memory of the process.
_DECODE_ROWS = 8192


def loop_pairs_from_json(data, what: str) -> np.ndarray:
    """A 1-D complex array from a list of finite ``[re, im]`` pairs of real
    numbers, or ValueError for anything else (including bools, strings and
    numbers too large for a float)."""
    try:
        n = len(data)
        arr = np.empty((n, 2))
        for start in range(0, n, _DECODE_ROWS):
            for entry in data[start:start + _DECODE_ROWS]:
                for value in entry:
                    if isinstance(value, bool) or not isinstance(value, numbers.Real):
                        raise ValueError(f"{value!r} is not a number")
            rows = np.asarray(data[start:start + _DECODE_ROWS], dtype=np.float64)
            if rows.shape != (min(_DECODE_ROWS, n - start), 2):
                raise ValueError("entries are not [re, im] pairs")
            arr[start:start + _DECODE_ROWS] = rows
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a list of [re, im] number pairs: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    return arr.view(complex).reshape(-1)


def _power_scale(base: float, p: int) -> float:
    """``base ** p`` for a threshold scale, saturating at inf where the
    power itself would raise OverflowError."""
    try:
        return base ** p
    except OverflowError:
        return math.inf


def loop_threshold(tol: float, *scales: float, power: int = 1) -> float:
    """The zero threshold as each call site wrote it out by hand, picked by
    the shape of the call: no scale (arc and circulant tests), one scale
    (rank and kernel pivots, the per-class Gram test of reconstruction),
    one scale to a power (A^h blocks), two scales (chain recursion, kernel
    membership of a seed) and two scales with a power on the first (chain
    power form, zero-chain power iteration)."""
    if not scales:
        return tol
    if len(scales) == 1 and power == 1:
        return tol * max(1.0, scales[0])
    if len(scales) == 1:
        return tol * _power_scale(max(1.0, scales[0]), power)
    s1, s2 = scales
    if power == 1:
        return tol * max(1.0, s1) * max(1.0, s2)
    return tol * _power_scale(max(1.0, s1), power) * max(1.0, s2)


# Multiples of tol planted around the arc threshold |a_ij| > tol.
THRESHOLD_FACTORS = (0.5, 1.0, 1.0 + 1e-7, 2.0)


def random_digraph(rng, n=None, density=0.25) -> Digraph:
    if n is None:
        n = int(rng.integers(1, 7))
    arcs = frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.uniform() < density
    )
    return Digraph(n=n, arcs=arcs)


def random_mixed_digraph(rng, n: int) -> Digraph:
    """Digraph on 1..n split into random pieces, each with random arcs or
    arcs planted from residue c to c + 1 mod some h; then a few self-loops
    and reversed arcs (2-cycles).  Small pieces and sparse ones leave
    isolated vertices and several weakly connected components."""
    perm = rng.permutation(n) + 1
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    arcs = set()
    for piece in np.split(perm, cuts):
        h = int(rng.integers(1, len(piece) + 1))
        label = dict(zip(piece.tolist(), rng.integers(0, h, len(piece)).tolist()))
        planted = rng.uniform() < 0.7
        density = rng.choice([0.15, 0.4, 0.8])
        for i, j in itertools.permutations(label, 2):
            if (not planted or label[j] == (label[i] + 1) % h) and rng.uniform() < density:
                arcs.add((i, j))
    arcs |= {(v, v) for v in range(1, n + 1) if rng.uniform() < 0.03}
    arcs |= {(j, i) for i, j in sorted(arcs) if rng.uniform() < 0.05}
    return Digraph(n, arcs)


def greedy_match(predicted, actual) -> float:
    """Greedily pair each predicted value with the nearest unused actual
    value; returns the largest pairing distance."""
    assert len(predicted) == len(actual)
    remaining = list(actual)
    worst = 0.0
    for z in predicted:
        dists = [abs(z - w) for w in remaining]
        best = int(np.argmin(dists))
        worst = max(worst, dists[best])
        remaining.pop(best)
    return worst


def precise_eigenvalues(a, dps=60) -> list[complex]:
    """Direct eigenvalues at high working precision.

    Double precision smears a defective zero of Jordan depth p to about
    eps**(1/p) (1e-5 for p = 3), so comparisons at 1e-6 need the direct
    multiset computed with enough digits to be meaningful.
    """
    import mpmath as mp

    n = a.shape[0]
    with mp.workdps(dps):
        m = mp.matrix(
            [[mp.mpc(a[i, j].real, a[i, j].imag) for j in range(n)] for i in range(n)]
        )
        return [complex(z) for z in mp.eig(m, left=False, right=False)]


def assert_spectra_match(predicted, a, tol) -> None:
    """Assert the predicted multiset matches the direct eigenvalues of
    ``a`` under greedy matching, upgrading the direct computation to high
    precision when double precision alone cannot resolve the tolerance."""
    actual = list(np.linalg.eigvals(a))
    if greedy_match(predicted, actual) <= tol:
        return
    assert greedy_match(predicted, precise_eigenvalues(a)) <= tol
