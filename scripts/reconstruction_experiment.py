#!/usr/bin/env python3
"""Round-trip experiment: eigendecompose random nonsingular h-cyclic
matrices, their vertices relabelled by a random permutation so that the
classes are not consecutive, keep one base chain per root-of-unity orbit,
rebuild the matrix from those chains alone, and report the reconstruction
error.  Exits 1 when the worst entry error exceeds MAX_ERROR."""

import argparse
import cmath
import sys
from pathlib import Path

try:
    import hcyclic as hc
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import hcyclic as hc

import numpy as np

# Far above the round-off of a sound rebuild (below 1e-13 at h 3 and 4).
MAX_ERROR = 1e-9


def random_instance(rng, h, m):
    def disk(shape):
        r = np.sqrt(rng.uniform(0, 1, shape))
        return r * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))

    while True:
        blocks = [disk((m, m)) for _ in range(h)]
        a = hc.assemble_blocks(blocks)
        if np.linalg.matrix_rank(a) == a.shape[0]:
            classes = tuple(
                tuple(range(i * m + 1, (i + 1) * m + 1)) for i in range(h)
            )
            sigma = rng.permutation(h * m) + 1
            return (hc.apply_vertex_permutation(a, sigma),
                    hc.permute_partition(hc.CyclicPartition(h, classes), sigma))


def orbit_chains(a, h):
    w, v = np.linalg.eig(a)
    vinv = np.linalg.inv(v)
    rot = hc.omega(h)
    used = [False] * len(w)
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), cmath.phase(w[i])))
    rights, lefts = [], []
    for idx in order:
        if used[idx]:
            continue
        lam = w[idx]
        used[idx] = True
        for k in range(1, h):
            free = [j for j in range(len(w)) if not used[j]]
            pick = min(free, key=lambda j: abs(w[j] - lam * rot**k))
            used[pick] = True
        rights.append(hc.JordanChain(complex(lam), "right", (v[:, idx],)))
        lefts.append(hc.JordanChain(complex(lam), "left", (vinv[idx],)))
    return rights, lefts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--h", type=int, default=3)
    parser.add_argument("--block-size", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for trial in range(args.trials):
        a, part = random_instance(rng, args.h, args.block_size)
        rights, lefts = orbit_chains(a, args.h)
        rebuilt = hc.reconstruct_from_chains(rights, lefts, part)
        err = float(np.max(np.abs(rebuilt - a)))
        worst = max(worst, err)
        print(f"trial {trial:2d}: n={a.shape[0]}, max entry error {err:.3e}")
    print(f"worst over {args.trials} trials: {worst:.3e}")
    if worst > MAX_ERROR:
        print(f"worst entry error {worst:.3e} exceeds {MAX_ERROR:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
