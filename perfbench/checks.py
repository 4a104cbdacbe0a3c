"""Output checks for the hcyclic benchmark.

Each check parses one CLI output and compares it with a computation made
apart from the program (numpy on the planted blocks, or the planted
structure itself).  A check returns ``None`` when the output is right and
a one-line reason otherwise.  Nothing here imports ``hcyclic``.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import assemble


def _matrix(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _pairs(values) -> np.ndarray:
    data = np.asarray(values, dtype=float).reshape(-1, 2)
    return data[:, 0] + 1j * data[:, 1]


def _blocks(truth, name: str, h: int) -> list[np.ndarray]:
    return [truth[f"{name}_block{i}"] for i in range(h)]


def _cycle_products(blocks) -> list[np.ndarray]:
    """B_i = A_{i,i+1} A_{i+1,i+2} ... A_{i-1,i}, by numpy."""
    h = len(blocks)
    return [np.linalg.multi_dot([blocks[(i + k) % h] for k in range(h)]) if h > 2
            else blocks[i] @ blocks[(i + 1) % h] for i in range(h)]


def _close(got: np.ndarray, want: np.ndarray, rel: float) -> bool:
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    return got.shape == want.shape and float(np.max(np.abs(got - want), initial=0.0)) <= rel * scale


def _svd_nullity(a: np.ndarray) -> int:
    return a.shape[0] - int(np.linalg.matrix_rank(a))


def check_detect(out, truth, spec):
    name, sizes = spec["name"], spec["sizes"]
    h = len(sizes)
    if out["cyclic_index"] != h:
        return f"cyclic index {out['cyclic_index']} != planted h={h}"
    divisors = [str(d) for d in range(1, h + 1) if h % d == 0]
    if list(out["partitions"]) != divisors:
        return f"feasible h {list(out['partitions'])} != divisors {divisors}"
    sigma = truth[f"{name}_sigma"]
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    planted = [sorted(int(sigma[v]) + 1 for v in range(off[i], off[i + 1])) for i in range(h)]
    got = out["partitions"][str(h)]
    if not any(got == planted[r:] + planted[:r] for r in range(h)):
        return "partition is not the planted one up to rotation"
    return None


def check_spectrum(out, truth, spec):
    name, sizes = spec["name"], spec["sizes"]
    h = len(sizes)
    blocks = _blocks(truth, name, h)
    n = sum(sizes)
    want_zeros = n - h * min(sizes)
    if out["zero_count"] != want_zeros:
        return f"zero count {out['zero_count']} != n - h*min(sizes) = {want_zeros}"
    predicted = np.concatenate([np.zeros(out["zero_count"], dtype=complex)]
                               + [_pairs(orbit) for orbit in out["orbits"]])
    actual = np.linalg.eigvals(assemble(blocks))
    if predicted.size != actual.size:
        return f"{predicted.size} predicted eigenvalues for n={actual.size}"
    radius = float(np.max(np.abs(actual)))
    # Greedy matching, largest predicted modulus first.  Zeros sit in
    # defective clusters of radius about eps^(1/h); others match closely.
    free = np.ones(actual.size, dtype=bool)
    for z in predicted[np.argsort(-np.abs(predicted), kind="stable")]:
        dist = np.where(free, np.abs(actual - z), np.inf)
        k = int(np.argmin(dist))
        limit = 1e-3 * radius if z == 0 else 1e-8 * radius
        if dist[k] > limit:
            return f"predicted eigenvalue {z:.6g} has no numpy eigenvalue within {limit:.1e}"
        free[k] = False
    return None


def check_spectrum_defective(out, truth, spec):
    """Zero count from the rank sequence of B_1: m - mult0(B_1) nonzero
    eigenvalues, so n - h*(m - mult0) zeros."""
    a = truth["defective_a"]
    sizes = [int(s) for s in truth["defective_sizes"]]
    h, m = len(sizes), sizes[0]
    b1 = np.linalg.multi_dot([a[:m, m:2 * m], a[m:2 * m, 2 * m:], a[2 * m:, :m]])
    # Singular values of B_1^m measured against ||B_1||^m, not against
    # the largest singular value of the (numerically zero) power itself.
    sv = np.linalg.svd(np.linalg.matrix_power(b1, m), compute_uv=False)
    mult0 = m - int(np.sum(sv > 1e-9 * np.linalg.norm(b1, 2) ** m))
    want = a.shape[0] - h * (m - mult0)
    if out["zero_count"] != want:
        return f"zero count {out['zero_count']} != {want} from the rank sequence of B_1"
    return None


def check_check(out, truth, spec):
    name, sizes = spec["name"], spec["sizes"]
    h = len(sizes)
    products = _cycle_products(_blocks(truth, name, h))
    want = [i + 1 for i, b in enumerate(products) if np.linalg.matrix_rank(b) < b.shape[0]]
    if out["singular_blocks"] != want or out["singular"] != bool(want):
        return f"singular blocks {out['singular_blocks']} != SVD-deficient {want}"
    if out["sizes_equal"] != (len(set(sizes)) == 1) or out["h_divides_n"] != (sum(sizes) % h == 0):
        return "size report does not match the class sizes"
    return None


def _weyr_by_svd(a: np.ndarray) -> list[int]:
    """Nullity steps of A^k by SVD rank; A has integer entries, so every
    power is formed exactly in float64."""
    n = a.shape[0]
    weights, prev, power = [], 0, np.eye(n)
    for _ in range(n):
        power = power @ a
        nullity = _svd_nullity(power)
        if nullity - prev <= 0:
            break
        weights.append(nullity - prev)
        prev = nullity
        if nullity == n:
            break
    return weights


def _conjugate(weights) -> list[int]:
    return [sum(1 for w in weights if w >= j) for j in range(1, weights[0] + 1)] if weights else []


def check_weyr(out, truth, spec):
    name = spec["name"]
    a = truth[f"{name}_a"].real
    want = _weyr_by_svd(a)
    if out["weyr"] != want:
        return f"weyr {out['weyr']} != SVD nullity steps {want}"
    if _conjugate(want) != [int(p) for p in truth[f"{name}_paths"]]:
        return "SVD nullity steps disagree with the planted zero blocks"
    return None


def check_zero_chains(out, truth, spec):
    name = spec["name"]
    a = truth[f"{name}_a"].astype(complex)
    sizes = [int(s) for s in truth[f"{name}_sizes"]]
    planted = [int(p) for p in truth[f"{name}_paths"]]
    if _conjugate(out["weyr"]) != planted or out["zero_block_sizes"] != planted:
        return f"zero block sizes {out['zero_block_sizes']} != planted {planted}"
    h = len(sizes)
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    blocks = [a[off[i]:off[i + 1], off[(i + 1) % h]:off[(i + 1) % h + 1]] for i in range(h)]
    nullities = [_svd_nullity(b) for b in _cycle_products(blocks)]
    got = {c["class"]: c for c in out["classes"]}
    norm_a = float(np.max(np.sum(np.abs(a), axis=1)))
    for i, nullity in enumerate(nullities, start=1):
        entry = got.get(i, {"chains": [], "lengths": []})
        chains = entry["chains"]
        if len(chains) != nullity or len(entry["lengths"]) != nullity:
            return f"class {i}: {len(chains)} chains != kernel dimension {nullity} of B_{i}"
        for chain, length in zip(chains, entry["lengths"]):
            vecs = [_pairs(v) for v in chain["vectors"]]
            if len(vecs) != length or not np.any(vecs[0]):
                return f"class {i}: malformed chain"
            scale = 1e-8 * max(1.0, norm_a) * max(1.0, max(float(np.max(np.abs(v))) for v in vecs))
            for j, x in enumerate(vecs):
                prev = vecs[j - 1] if j else 0.0
                if float(np.max(np.abs(a @ x - prev))) > scale:
                    return f"class {i}: A x_{j + 1} != x_{j}"
    return None


def check_reconstruct(out, truth, spec):
    if not _close(_matrix(out["matrix"]), truth["reco_a"], 1e-8):
        return "reconstructed matrix differs from the one the chains came from"
    return None


def check_power(out, truth, spec):
    products = _cycle_products(_blocks(truth, "power", 2))
    got = [_matrix(b) for b in out["diagonal_blocks"]]
    if out["h"] != 2 or len(got) != 2 or not all(_close(g, w, 1e-8) for g, w in zip(got, products)):
        return "diagonal blocks of A^h differ from numpy cycle products"
    return None


def check_circulant_build(out, truth, spec):
    ref = truth["circ_ref"]
    n = ref.size
    want = ref[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    if not _close(_matrix(out["matrix"]), want, 1e-11):
        return "circulant differs from (j - i) mod n indexing of the reference"
    return None


def check_circulant_recognize(out, truth, spec):
    got = out["reference"]
    if not spec["planted"]:
        return None if got is None else "perturbed matrix recognised as circulant"
    if got is None or not _close(_pairs(got), truth["circ_ref"], 1e-11):
        return "planted circulant not recognised with its reference"
    return None


CHECKS = {
    "detect": check_detect,
    "spectrum": check_spectrum,
    "spectrum-defective": check_spectrum_defective,
    "check": check_check,
    "weyr": check_weyr,
    "zero-chains": check_zero_chains,
    "reconstruct": check_reconstruct,
    "power": check_power,
    "circulant-build": check_circulant_build,
    "circulant-recognize": check_circulant_recognize,
}


def check_output(text: str, truth, spec) -> str | None:
    """Reason the output of one operation is wrong, or None."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        return CHECKS[spec["type"]](out, truth, spec)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"output does not have the expected shape: {exc!r}"
