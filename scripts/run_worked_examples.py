#!/usr/bin/env python3
"""Walk through the two hand-worked 3-cyclic matrices end to end.

Prints structure detection, cycle blocks, the predicted spectrum against
its closed form, the singularity report, zero-eigenvalue chains, and the
Weyr characteristic.  Exits 1 unless, for each example, the report is
singular exactly when the predicted spectrum has a zero, the Weyr
weights sum to the zero count, and every class with a zero chain is among
the singular ones.  Run from the repository root; falls back to src/ if
the package is not installed.
"""

import sys
from pathlib import Path

try:
    import hcyclic as hc
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import hcyclic as hc

import numpy as np


def six_matrix():
    a = np.zeros((6, 6), dtype=complex)
    a[0, 1] = a[0, 2] = a[0, 3] = 1
    a[1, 4] = 1
    a[2, 5] = 1
    a[3, 4] = a[3, 5] = 1
    a[4, 0] = 1
    a[5, 0] = 1
    return a


def twelve_matrix():
    a23 = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], float)
    return hc.assemble_blocks([np.ones((4, 4)), a23, np.eye(4)])


def analyze(name, a) -> list[str]:
    """Print the walk-through of ``a`` and return the identities it breaks."""
    print(f"=== {name} (order {a.shape[0]}) ===")
    g = hc.digraph_of(a)
    idx = hc.cyclic_index(g)
    print(f"cyclic index: {idx}")
    part = hc.find_h_partition(g, idx)
    print(f"partition (h={idx}): {[list(c) for c in part.classes]}")

    bc = hc.extract_blocks(a, part)
    for i in range(1, part.h + 1):
        b = hc.partial_product(bc, i, part.h)
        print(f"cycle product B_{i} ({b.shape[0]}x{b.shape[1]}):")
        print(np.array2string(b.real, precision=3))

    pred = hc.mirsky_spectrum(a, part)
    print(f"predicted spectrum: {pred.zero_count} zeros "
          f"+ {len(pred.root_orbits)} root orbit(s)")
    for orbit in pred.root_orbits:
        print("  orbit:", ", ".join(f"{z:.6f}" for z in orbit))
    print(f"  closed form 2^(2/3) = {2 ** (2 / 3):.12f}")

    check = hc.nonsingular_structure_check(a, part)
    print(f"singular: {check.singular}, singular cycle products: {list(check.singular_blocks)}")

    summary = hc.zero_chains_all(a, part)
    print(f"zero chain lengths by class: {summary.lengths_by_class()}")
    print(f"Weyr characteristic at 0: {list(summary.weyr.weights)}")
    print(f"zero Jordan block sizes: {list(summary.zero_block_sizes)}")
    print()

    broken = []
    if check.singular != (pred.zero_count > 0):
        broken.append(f"singular is {check.singular} with {pred.zero_count} predicted zeros")
    if sum(summary.weyr.weights) != pred.zero_count:
        broken.append(f"Weyr weights sum to {sum(summary.weyr.weights)}, not {pred.zero_count}")
    if not set(summary.by_class()) <= set(check.singular_blocks):
        broken.append(f"chains in classes {sorted(summary.by_class())} "
                      f"outside the singular {list(check.singular_blocks)}")
    return [f"{name}: {b}" for b in broken]


def main():
    broken = analyze("sizes (1, 3, 2) example", six_matrix())
    broken += analyze("sizes (4, 4, 4) example", twelve_matrix())
    for line in broken:
        print(f"identity fails: {line}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
