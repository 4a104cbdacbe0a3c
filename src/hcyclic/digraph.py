"""Digraph extraction and cyclically h-partite structure detection.

The digraph of a square matrix has an arc (i, j) whenever the (i, j) entry
is nonzero (modulus above tolerance).  A vertex partition (V_1, ..., V_h)
is cyclically h-partite when every arc runs from some V_i to V_{i+1},
indices wrapping mod h.

Detection works with integer potentials on the underlying undirected
graph: each arc is a +1 step from tail to head (-1 when crossed
backwards).  Within one weakly connected component the potential is
determined up to an additive constant, and a residue labelling
``pot mod h`` respects every arc exactly when h divides every arc
discrepancy ``pot(i) + 1 - pot(j)``.  The gcd of those discrepancies is
therefore the full cyclic constraint; 0 encodes "no constraint" (the
digraph has no underlying cycles that force anything).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix_core import DEFAULT_TOL, _json_int, _modulus, _threshold, as_complex_matrix

__all__ = [
    "Digraph",
    "CyclicPartition",
    "digraph_of",
    "cyclic_index",
    "feasible_h_values",
    "find_h_partition",
    "is_h_cyclic",
    "consecutive_permutation",
    "apply_vertex_permutation",
    "permute_partition",
    "partition_to_json",
    "partition_from_json",
]


class Digraph:
    """Vertices 1..n and a set of ordered arcs (i, j).

    The arcs are held as the n-by-n boolean arc matrix (entry [i - 1, j - 1]
    for arc (i, j)); ``arcs``, the frozenset of 1-based tuples, and
    ``sorted_arcs`` are built from it on first access.
    """

    def __init__(self, n: int, arcs):
        if n < 1:
            raise ValueError("digraph needs at least one vertex")
        ends = [(int(i), int(j)) for i, j in arcs]
        for i, j in ends:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"arc ({i}, {j}) out of range 1..{n}")
        tails, heads = np.array(ends, dtype=np.intp).reshape(-1, 2).T - 1
        self._arc = np.zeros((n, n), dtype=bool)
        self._arc[tails, heads] = True

    @classmethod
    def _of_matrix(cls, arc: np.ndarray) -> Digraph:
        g = cls.__new__(cls)
        g._arc = arc
        return g

    @property
    def n(self) -> int:
        return self._arc.shape[0]

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_arcs)

    @property
    def sorted_arcs(self) -> list[tuple[int, int]]:
        tails, heads = np.nonzero(self._arc)
        return list(zip((tails + 1).tolist(), (heads + 1).tolist()))

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return np.array_equal(self._arc, other._arc)

    def __hash__(self):
        return hash((self.n, self._arc.tobytes()))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.sorted_arcs})"

    @cached_property
    def _potential_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """BFS potentials on the underlying graph, shifted so that each
        weakly connected component's least potential is 0; the component
        of each vertex (components numbered by their least vertex); the
        span of potentials of each component; and the gcd of all arc
        discrepancies |pot(i) + 1 - pot(j)|.

        Each dequeued vertex discovers its unseen neighbours in ascending
        order, a neighbour joined both ways by the backward step -1.
        """
        arc, n = self._arc, self.n
        seen = np.zeros(n, dtype=bool)
        pot = np.zeros(n, dtype=np.intp)
        comp = np.empty(n, dtype=np.intp)
        order = np.empty(n, dtype=np.intp)  # BFS queue, one component after another
        spans: list[int] = []
        head = tail = 0
        for s in range(n):
            if seen[s]:
                continue
            seen[s] = True
            start = tail
            order[tail] = s
            tail += 1
            while head < tail:
                u = order[head]
                head += 1
                unseen = ~seen
                backward = arc[:, u] & unseen
                new = np.flatnonzero(arc[u] & unseen | backward)
                pot[new] = pot[u] + np.where(backward[new], -1, 1)
                seen[new] = True
                order[tail:tail + new.size] = new
                tail += new.size
            members = order[start:tail]
            comp[members] = len(spans)
            pot[members] -= pot[members].min()
            spans.append(int(pot[members].max()) + 1)
        tails, heads = np.nonzero(arc)
        g_all = int(np.gcd.reduce(pot[tails] + 1 - pot[heads]))
        return pot, comp, np.array(spans), g_all


@dataclass(frozen=True)
class CyclicPartition:
    """Ordered partition (V_1, ..., V_h) of the vertex set 1..n.

    Classes are stored as sorted tuples; they must be nonempty, pairwise
    disjoint, and cover 1..n.  The class cycle alpha maps i to i mod h + 1,
    and ``exponent(i, j) = (i - j) mod h`` is the root-of-unity exponent
    used by the chain-rotation machinery.
    """

    h: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        classes = tuple(tuple(sorted(int(v) for v in cls)) for cls in self.classes)
        object.__setattr__(self, "classes", classes)
        if self.h != len(classes) or self.h < 1:
            raise ValueError(f"h={self.h} does not match {len(classes)} classes")
        seen: set[int] = set()
        for cls in classes:
            if not cls:
                raise ValueError("partition classes must be nonempty")
            for v in cls:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in more than one class")
                seen.add(v)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError("classes must cover exactly the vertices 1..n")

    @property
    def n(self) -> int:
        return sum(len(cls) for cls in self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)

    @property
    def is_consecutive(self) -> bool:
        # Classes are sorted and cover 1..n, so they are consecutive exactly
        # when the class label never decreases along the vertices.
        return bool(np.all(np.diff(self._labels) >= 0))

    @cached_property
    def _labels(self) -> np.ndarray:
        # 0-based class index of each vertex, indexed by vertex - 1.
        labels = np.empty(self.n, dtype=np.intp)
        for c, cls in enumerate(self.classes):
            labels[np.asarray(cls) - 1] = c
        labels.flags.writeable = False
        return labels

    def class_of(self, v: int) -> int:
        """1-based class index of vertex ``v``."""
        if v not in range(1, self.n + 1):
            raise ValueError(f"vertex {v} not in partition")
        return int(self._labels[v - 1]) + 1

    def alpha(self, i: int) -> int:
        """The class cycle: alpha(i) = i mod h + 1."""
        return i % self.h + 1

    def alpha_power(self, i: int, m: int) -> int:
        """alpha applied m times (m may be negative)."""
        return (i - 1 + m) % self.h + 1

    def exponent(self, i: int, j: int) -> int:
        """(i - j) mod h, defined for arbitrary integers."""
        return (i - j) % self.h


def digraph_of(a, tol: float = DEFAULT_TOL) -> Digraph:
    """Digraph of a square matrix: arc (i, j) iff |a_ij| > tol."""
    arc = _arc_matrix(a, tol)
    return Digraph._of_matrix(arc)


def _arc_matrix(a, tol: float) -> np.ndarray:
    # The one arc decision, shared by digraph_of and is_h_cyclic.
    am = as_complex_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"matrix must be square, got {am.shape}")
    return _modulus(am) > _threshold(tol)


def cyclic_index(g: Digraph) -> int:
    """Gcd of all cyclic labelling constraints of ``g``.

    An h-class labelling respecting every arc exists iff h divides the
    returned value, where 0 means no constraint at all (any h is feasible
    as long as all h classes can be kept nonempty).
    """
    return g._potential_data[3]


def feasible_h_values(g: Digraph) -> list[int]:
    """All h for which ``find_h_partition`` succeeds, in increasing order."""
    _, _, span, idx = g._potential_data
    if idx > 0:
        return [h for h in range(1, idx + 1) if idx % h == 0]
    # No cyclic constraint: components contribute disjoint potential
    # intervals, so classes can be kept nonempty up to the total span.
    return list(range(1, int(span.sum()) + 1))


def find_h_partition(g: Digraph, h: int) -> CyclicPartition | None:
    """A cyclically h-partite partition of ``g`` with h nonempty classes,
    or None when no such partition exists.

    Labels are canonicalized so the class containing vertex 1 is V_1;
    beyond that rotation the labelling of a connected digraph with cycles
    is forced.  Components without cyclic constraints are placed end to
    end so every residue class stays nonempty whenever possible.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    pot, comp, span, idx = g._potential_data
    if idx > 0 and idx % h != 0:
        return None
    # Each component starts where the previous one's labels end.
    used = np.minimum(span, h)
    if used.sum() < h:
        return None
    labels = pot + (np.cumsum(used) - used)[comp]
    labels = (labels - labels[0]) % h
    members = np.argsort(labels, kind="stable") + 1
    classes = np.split(members, np.cumsum(np.bincount(labels, minlength=h))[:-1])
    return CyclicPartition(h=h, classes=tuple(tuple(cls.tolist()) for cls in classes))


def is_h_cyclic(a, part: CyclicPartition, tol: float = DEFAULT_TOL) -> bool:
    """True iff every arc of the digraph of ``a`` runs from class V_i to
    class V_{i+1} of ``part`` (cyclically)."""
    arc = _arc_matrix(a, tol)
    if part.n != arc.shape[0]:
        raise ValueError(f"partition covers {part.n} vertices but matrix has order {arc.shape[0]}")
    return not np.any(arc & ~_block_mask(part))


def _block_mask(part: CyclicPartition) -> np.ndarray:
    # Blockwise cyclic-shift mask: entry (u, v) is True exactly when the
    # class of v follows the class of u around the cycle (for h = 1 that is
    # every entry).
    labels = part._labels
    return labels[None, :] == (labels[:, None] + 1) % part.h


def consecutive_permutation(part: CyclicPartition) -> tuple[int, ...]:
    """Relabelling sigma that makes ``part`` consecutive.

    ``sigma[v - 1]`` is the new label of vertex v: vertices are numbered
    class by class, ascending inside each class.  Applying it with
    :func:`apply_vertex_permutation` puts an h-cyclic matrix into the
    consecutive block form, and :func:`permute_partition` maps ``part``
    onto the matching consecutive partition.
    """
    order = [v for cls in part.classes for v in cls]
    sigma = [0] * part.n
    for new_label, v in enumerate(order, start=1):
        sigma[v - 1] = new_label
    return tuple(sigma)


def apply_vertex_permutation(a, sigma) -> np.ndarray:
    """Relabel matrix indices: entry (i, j) moves to (sigma(i), sigma(j))."""
    am = as_complex_matrix(a)
    n = am.shape[0]
    if am.shape[0] != am.shape[1]:
        raise ValueError("vertex relabelling needs a square matrix")
    perm = np.asarray([int(s) for s in sigma], dtype=int)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(1, n + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{n}")
    out = np.empty_like(am)
    out[np.ix_(perm - 1, perm - 1)] = am
    return out


def permute_partition(part: CyclicPartition, sigma) -> CyclicPartition:
    """Partition of the relabelled vertices: V_i maps to sigma(V_i)."""
    sig = [int(s) for s in sigma]
    if len(sig) != part.n:
        raise ValueError("sigma length does not match partition size")
    classes = tuple(tuple(sorted(sig[v - 1] for v in cls)) for cls in part.classes)
    return CyclicPartition(h=part.h, classes=classes)


def partition_to_json(part: CyclicPartition) -> dict:
    """Serialize to ``{"h": h, "classes": [[1-based indices], ...]}``."""
    return {"h": part.h, "classes": [list(cls) for cls in part.classes]}


def partition_from_json(obj) -> CyclicPartition:
    """Parse the partition JSON schema produced by :func:`partition_to_json`."""
    if not isinstance(obj, dict):
        raise ValueError("partition JSON must be an object")
    if not isinstance(obj.get("classes"), list):
        raise ValueError("partition classes must be a list of index lists")
    try:
        h = _json_int(obj["h"], "partition h")
        classes = tuple(
            tuple(_json_int(v, "partition class entry") for v in cls)
            for cls in obj["classes"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed partition JSON: {exc}") from exc
    return CyclicPartition(h=h, classes=classes)
