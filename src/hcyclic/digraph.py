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

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix_core import DEFAULT_TOL, _json_int, _modulus, as_complex_matrix

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


@dataclass(frozen=True)
class Digraph:
    """Vertices 1..n and a set of ordered arcs (i, j)."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("digraph needs at least one vertex")
        arcs = frozenset((int(i), int(j)) for i, j in self.arcs)
        for i, j in arcs:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"arc ({i}, {j}) out of range 1..{self.n}")
        object.__setattr__(self, "arcs", arcs)

    @property
    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    @cached_property
    def _potential_data(self) -> tuple[dict[int, int], list[tuple[list[int], int, int]], int]:
        """BFS potentials on the underlying graph; the weakly connected
        components, each as (members, least potential, span of potentials);
        and the gcd of all arc discrepancies |pot(i) + 1 - pot(j)|."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.arcs:
            adj[i].append((j, 1))
            adj[j].append((i, -1))
        for v in adj:
            adj[v].sort()
        pot: dict[int, int] = {}
        comps: list[tuple[list[int], int, int]] = []
        for s in range(1, self.n + 1):
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
        for i, j in self.arcs:
            g_all = math.gcd(g_all, abs(pot[i] + 1 - pot[j]))
        return pot, comps, g_all


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
    tails, heads = np.nonzero(arc)
    return Digraph(n=arc.shape[0], arcs=frozenset(zip((tails + 1).tolist(), (heads + 1).tolist())))


def _arc_matrix(a, tol: float) -> np.ndarray:
    # The one arc decision, shared by digraph_of and is_h_cyclic.
    am = as_complex_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"matrix must be square, got {am.shape}")
    return _modulus(am) > tol


def cyclic_index(g: Digraph) -> int:
    """Gcd of all cyclic labelling constraints of ``g``.

    An h-class labelling respecting every arc exists iff h divides the
    returned value, where 0 means no constraint at all (any h is feasible
    as long as all h classes can be kept nonempty).
    """
    return g._potential_data[2]


def feasible_h_values(g: Digraph) -> list[int]:
    """All h for which ``find_h_partition`` succeeds, in increasing order."""
    _, comps, idx = g._potential_data
    if idx > 0:
        return [h for h in range(1, idx + 1) if idx % h == 0]
    # No cyclic constraint: components contribute disjoint potential
    # intervals, so classes can be kept nonempty up to the total span.
    return list(range(1, sum(span for _, _, span in comps) + 1))


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
    pot, comps, idx = g._potential_data
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
