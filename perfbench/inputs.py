#!/usr/bin/env python3
"""Input generator for the hcyclic benchmark.

Writes the JSON files one workload feeds to the ``hcyclic`` CLI, the
planted truth its checks compare against (``truth.npz``), and a
``manifest.json`` with the fixed operation list of one round.  Only numpy
is used: the program under test never sees anything but the JSON files.

    python3 perfbench/inputs.py --workload ingest-large --seed 1 --out DIR

The same seed gives the same files.  ``--tiny`` shrinks every size for
the smoke mode of ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402

WORKLOADS = ("ingest-large", "zero-structure", "synthesize")

# Fixed, seed-independent input for the one operation known to fail:
# B_1 = X N X^-1 with N a nilpotent 4x4 Jordan block, h = 3, n = 12.
DEFECTIVE_SEED = 12


class Writer:
    """Writes input files into one directory and collects the manifest."""

    def __init__(self, out: Path):
        self.out = out
        self.ops: list[dict] = []
        self.truth: dict[str, np.ndarray] = {}

    def matrix(self, name: str, a: np.ndarray) -> str:
        a = np.asarray(a, dtype=complex)
        data = np.stack([a.real.ravel(), a.imag.ravel()], axis=1).tolist()
        return self.write(name, {"rows": a.shape[0], "cols": a.shape[1], "data": data})

    def partition(self, name: str, classes: list[list[int]]) -> str:
        return self.write(name, {"h": len(classes), "classes": classes})

    def write(self, name: str, obj) -> str:
        path = self.out / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def op(self, label: str, argv: list[str], check: dict) -> None:
        kind = label.split("/")[0]
        self.ops.append({"label": label, "kind": kind, "argv": argv, "check": check})

    def finish(self, workload: str, seed: int, tiny: bool) -> None:
        np.savez(self.out / "truth.npz", **self.truth)
        manifest = {"workload": workload, "seed": seed, "tiny": tiny, "ops": self.ops}
        (self.out / "manifest.json").write_text(json.dumps(manifest, indent=1))


def consecutive_classes(sizes) -> list[list[int]]:
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return [list(range(off[i] + 1, off[i + 1] + 1)) for i in range(len(sizes))]


def assemble(blocks) -> np.ndarray:
    """Consecutive h-cyclic matrix with blocks[i] at block (i, i+1 mod h)."""
    h = len(blocks)
    sizes = [b.shape[0] for b in blocks]
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    a = np.zeros((off[-1], off[-1]), dtype=blocks[0].dtype)
    for i, b in enumerate(blocks):
        j = (i + 1) % h
        a[off[i]:off[i + 1], off[j]:off[j + 1]] = b
    return a


def gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------- ingest-large

def build_ingest(rng, w: Writer, tiny: bool) -> None:
    """Dense random h-cyclic matrices with n about 500, one per operation
    kind, so that each operation runs several times in a run."""
    configs = (
        # operation, name, class sizes (h = len)
        ("detect", "h5", (20,) * 5 if tiny else (100,) * 5),
        ("spectrum", "h3", (6, 7, 8) if tiny else (150, 170, 180)),
        ("check", "h2", (11, 13) if tiny else (240, 260)),
    )
    for kind, name, sizes in configs:
        h = len(sizes)
        blocks = [gaussian(rng, (sizes[i], sizes[(i + 1) % h])) for i in range(h)]
        for i, b in enumerate(blocks):
            w.truth[f"{name}_block{i}"] = b
        a = assemble(blocks)
        if kind == "detect":
            # Relabel the vertices: old vertex v+1 becomes sigma[v]+1.
            sigma = rng.permutation(a.shape[0])
            relabelled = np.empty_like(a)
            relabelled[np.ix_(sigma, sigma)] = a
            w.truth[f"{name}_sigma"] = sigma
            argv = ["detect", "--matrix", w.matrix(name, relabelled)]
        else:
            part = w.partition(f"{name}_part", consecutive_classes(sizes))
            argv = [kind, "--matrix", w.matrix(name, a), "--partition", part]
        w.op(f"{kind}/{name}", argv, {"type": kind, "name": name, "sizes": list(sizes)})


# -------------------------------------------------------------- zero-structure

def bidiagonal_unimodular(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Random integer matrix U with integer inverse and small entries:
    a signed permutation times (I + N)(I + M)^T, N and M superdiagonal."""
    def bidiag():
        b = np.eye(m, dtype=np.int64)
        b[np.arange(m - 1), np.arange(1, m)] = rng.integers(-1, 2, m - 1)
        return b

    upper, lower = bidiag(), bidiag().T
    perm = rng.permutation(m)
    signs = rng.choice(np.array([-1, 1]), m)
    p = np.zeros((m, m), dtype=np.int64)
    p[np.arange(m), perm] = signs
    u = p @ upper @ lower
    u_inv = np.rint(np.linalg.inv(u.astype(float))).astype(np.int64)
    if not np.array_equal(u @ u_inv, np.eye(m, dtype=np.int64)):
        raise RuntimeError("integer inverse construction failed")
    return u, u_inv


def strand_blocks(rng, h: int, cycles: int, paths) -> list[np.ndarray]:
    """0/1 cycle blocks D_1..D_h whose digraph is ``cycles`` disjoint
    h-cycles plus one path per ``(start class, vertex count)`` in ``paths``,
    with the vertices numbered at random inside each class.  The paths are
    the zero Jordan blocks of D, so the zero structure is fixed and only
    the labelling depends on the seed."""
    counts = [0] * h
    arcs = []  # (class, vertex, next class, vertex)

    def vertex(c: int) -> int:
        counts[c] += 1
        return counts[c] - 1

    for _ in range(cycles):
        vs = [vertex(c) for c in range(h)]
        arcs += [(c, vs[c], (c + 1) % h, vs[(c + 1) % h]) for c in range(h)]
    for start, length in paths:
        prev = (start % h, vertex(start % h))
        for step in range(1, length):
            c = (start + step) % h
            cur = (c, vertex(c))
            arcs.append(prev + cur)
            prev = cur
    labels = [rng.permutation(n) for n in counts]
    ds = [np.zeros((counts[c], counts[(c + 1) % h]), dtype=np.int64) for c in range(h)]
    for c, u, d, v in arcs:
        ds[c][labels[c][u], labels[d][v]] = 1
    return ds


def planted_zero_structure(rng, h: int, cycles: int, paths):
    """Integer h-cyclic A = U D U^-1 with D from :func:`strand_blocks`;
    returns A, its class sizes and its zero Jordan block sizes."""
    ds = strand_blocks(rng, h, cycles, paths)
    sizes = [d.shape[0] for d in ds]
    us = [bidiagonal_unimodular(rng, s) for s in sizes]
    blocks = [us[i][0] @ ds[i] @ us[(i + 1) % h][1] for i in range(h)]
    return assemble(blocks), sizes, sorted((length for _, length in paths), reverse=True)


def defective_spectrum_input() -> np.ndarray:
    """h = 3, n = 12 matrix whose first cycle product X N X^-1 is a
    nilpotent 4x4 Jordan block in disguise; every eigenvalue is zero."""
    rng = np.random.default_rng(DEFECTIVE_SEED)
    x = rng.standard_normal((4, 4))
    nil = np.diag(np.ones(3), 1)
    return assemble([x @ nil, np.eye(4), np.linalg.inv(x)]).astype(complex)


def build_zero_structure(rng, w: Writer, tiny: bool) -> None:
    def paths(h, lengths):
        return [(i % h, length) for i, length in enumerate(lengths)]

    specs = {
        # name: (h, h-cycles, paths); z3 has 38 kernel vectors over its
        # three cycle products, nil3 a zero block of order 120 for weyr.
        "z3": (3, 4, paths(3, (4, 3, 2, 1))) if tiny else
              (3, 30, paths(3, (12, 9, 8, 7, 6, 5, 5, 4, 3, 3, 2, 2, 2, 1, 1))),
        "z2": (2, 3, paths(2, (3, 2, 1))) if tiny else
              (2, 22, paths(2, (8, 5, 3, 2, 1))),
        "nil3": (3, 0, [(0, 6), (0, 3)]) if tiny else (3, 0, [(0, 120), (0, 18), (0, 9), (0, 3)]),
    }
    files = {}
    for name, (h, cycles, strands) in specs.items():
        a, sizes, lengths = planted_zero_structure(rng, h, cycles, strands)
        if np.max(np.abs(a)) > 2**20:
            raise RuntimeError("integer entries too large for exact float powers")
        w.truth[f"{name}_a"] = a
        w.truth[f"{name}_sizes"] = np.array(sizes)
        w.truth[f"{name}_paths"] = np.array(lengths)
        files[name] = (w.matrix(name, a), w.partition(f"{name}_part", consecutive_classes(sizes)))
    for name in ("z3", "z2", "nil3"):
        mat, part = files[name]
        w.op(f"zero-chains/{name}", ["zero-chains", "--matrix", mat, "--partition", part],
             {"type": "zero-chains", "name": name})
    for name in ("z3", "z2", "nil3"):
        mat, _ = files[name]
        w.op(f"weyr/{name}", ["weyr", "--matrix", mat], {"type": "weyr", "name": name})
    d = defective_spectrum_input()
    w.truth["defective_a"] = d
    w.truth["defective_sizes"] = np.array([4, 4, 4])
    mat = w.matrix("defective", d)
    part = w.partition("defective_part", consecutive_classes((4, 4, 4)))
    w.op("spectrum/defective", ["spectrum", "--matrix", mat, "--partition", part],
         {"type": "spectrum-defective", "name": "defective"})


# ------------------------------------------------------------------ synthesize

def random_unitary(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, (m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def orbit_chains(rng, h: int, m: int):
    """A = Q D Q^H with D a direct sum of m weighted h-cycles, and one base
    right/left eigenvector pair per root-of-unity orbit, from the closed
    form of a weighted cycle's eigenvectors."""
    weights = rng.uniform(0.5, 1.5, (h, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, (h, m)))
    qs = [random_unitary(rng, m) for _ in range(h)]
    blocks = [qs[i] @ np.diag(weights[i]) @ qs[(i + 1) % h].conj().T for i in range(h)]
    a = assemble(blocks)
    n = h * m
    orbits = []
    for t in range(m):
        lam = np.prod(weights[:, t]) ** (1.0 / h)
        x = np.ones(h, dtype=complex)
        y = np.ones(h, dtype=complex)
        for i in range(h - 1):
            x[i + 1] = lam * x[i] / weights[i, t]
            y[i + 1] = y[i] * weights[i, t] / lam
        y /= y @ x
        right = np.zeros(n, dtype=complex)
        left = np.zeros(n, dtype=complex)
        for i in range(h):
            right[i * m:(i + 1) * m] = x[i] * qs[i][:, t]
            left[i * m:(i + 1) * m] = y[i] * qs[i][:, t].conj()
        orbits.append((complex(lam), right, left))
    return a, orbits


def chain_json(lam: complex, orientation: str, vec: np.ndarray) -> dict:
    return {
        "eigenvalue": [lam.real, lam.imag],
        "orientation": orientation,
        "vectors": [np.stack([vec.real, vec.imag], axis=1).tolist()],
    }


def build_synthesize(rng, w: Writer, tiny: bool) -> None:
    h, m = (3, 5) if tiny else (4, 40)
    a, orbits = orbit_chains(rng, h, m)
    w.truth["reco_a"] = a
    orbits_file = w.write("reco_orbits", {"orbits": [
        {"eigenvalue": [lam.real, lam.imag], "length": 1,
         "right": chain_json(lam, "right", r), "left": chain_json(lam, "left", l)}
        for lam, r, l in orbits
    ]})
    part = w.partition("reco_part", consecutive_classes((m,) * h))
    w.op("reconstruct/h4", ["reconstruct", "--orbits", orbits_file, "--partition", part],
         {"type": "reconstruct", "name": "reco"})

    sizes = (9, 11) if tiny else (190, 210)
    blocks = [gaussian(rng, (sizes[i], sizes[(i + 1) % 2])) / np.sqrt(sizes[i]) for i in range(2)]
    for i, b in enumerate(blocks):
        w.truth[f"power_block{i}"] = b
    mat = w.matrix("power", assemble(blocks))
    part = w.partition("power_part", consecutive_classes(sizes))
    w.op("power/h2", ["power", "--matrix", mat, "--partition", part], {"type": "power", "name": "power"})

    n = 16 if tiny else 400
    ref = gaussian(rng, n)
    w.truth["circ_ref"] = ref
    ref_file = w.matrix("circ_ref", ref.reshape(1, n))
    w.op("circulant-build/n", ["circulant", "--from-reference", ref_file],
         {"type": "circulant-build", "name": "circ"})
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    circ = ref[idx]
    w.op("circulant-recognize/planted", ["circulant", "--recognize", w.matrix("circ", circ)],
         {"type": "circulant-recognize", "name": "circ", "planted": True})
    # The perturbation sits in the last entry, so recognition scans the
    # whole matrix before rejecting it, whatever the seed.
    circ[-1, -1] += 1e-3
    w.op("circulant-recognize/perturbed", ["circulant", "--recognize", w.matrix("circ_perturbed", circ)],
         {"type": "circulant-recognize", "name": "circ", "planted": False})


GENERATORS = {
    "ingest-large": build_ingest,
    "zero-structure": build_zero_structure,
    "synthesize": build_synthesize,
}


def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> None:
    out.mkdir(parents=True, exist_ok=True)
    w = Writer(out)
    GENERATORS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]), w, tiny)
    w.finish(workload, seed, tiny)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
