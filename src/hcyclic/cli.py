"""JSON-in, JSON-out command line front end.

Each subcommand reads matrices / partitions / chains from JSON files,
dispatches to the library, and prints a result object on stdout.  Floats
are rendered with 12 significant digits and dictionary key order is
fixed, so output is byte-stable across runs.  Exit codes: 0 success,
2 validation problem (malformed input, numbers not representable as
finite floats, dimension or partition mismatch), 1 internal numerical
failure (including overflow of products and powers of valid input).

Each call of :func:`main` runs with the cyclic garbage collector paused
and restores the caller's collector state on the way out.  Unpaused, the
collector rescans the growing parse tree of a large JSON document again
and again while ``json.loads`` builds it.  The pause leaves nothing for
later: the argument parser, the one structure with reference cycles, is
built once per process, and nothing else a call builds forms a cycle.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    NumericalError,
    _json_int,
    _pairs_from_json,
    _pairs_to_json,
    matrix_from_json,
    matrix_to_json,
)
from .digraph import (
    consecutive_permutation,
    cyclic_index,
    digraph_of,
    feasible_h_values,
    find_h_partition,
    is_h_cyclic,
    partition_from_json,
    partition_to_json,
)
from .cyclic_blocks import (
    block_diagonal_power,
    extract_blocks,
    mirsky_spectrum,
    nonsingular_structure_check,
    partial_product,
)
from .circulant import (
    basic_circulant,
    c_k_matrix,
    circulant_from_reference,
    recognize_circulant,
    w_matrix,
)
from .jordan import (
    chain_from_json,
    chain_to_json,
    reconstruct_from_chains,
    rotate_left_chain,
    rotate_right_chain,
    verify_chain,
    weyr_zero,
    zero_chains_all,
)

# Library operations exercised by each subcommand (directly or through a
# fixed composition).  Kept as data so tests can assert full coverage.
COMMAND_OPERATIONS = {
    "detect": ("digraph_of", "cyclic_index", "feasible_h_values", "find_h_partition"),
    "partition": ("digraph_of", "find_h_partition", "consecutive_permutation"),
    "blocks": ("is_h_cyclic", "extract_blocks", "submatrix", "partial_product"),
    "power": ("is_h_cyclic", "block_diagonal_power", "partial_product"),
    "spectrum": ("is_h_cyclic", "mirsky_spectrum"),
    "check": ("is_h_cyclic", "nonsingular_structure_check", "matrix_rank"),
    "circulant": (
        "circulant_from_reference",
        "recognize_circulant",
        "basic_circulant",
        "c_k_matrix",
        "w_matrix",
    ),
    "rotate-chain": ("rotate_right_chain", "rotate_left_chain", "verify_chain"),
    "zero-chains": (
        "is_h_cyclic",
        "null_space",
        "embed_null_vector",
        "zero_chain_from_null_vector",
        "zero_chains_all",
        "partial_product",
        "verify_chain",
        "weyr_zero",
    ),
    "weyr": ("weyr_zero",),
    "reconstruct": ("hadamard", "jordan_block", "reconstruct_from_chains"),
}


# Every float is rendered with this format, one by one or in bulk.
_FLOAT_FORMAT = "%.12g"


def render_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats at 12
    significant digits."""
    parts: list[str] = []
    _render(value, parts)
    return "".join(parts)


def _render_floats(items) -> str | None:
    """JSON text of a nonempty list of exact floats, or of a list of equally
    long nonempty lists of them (the ``[[re, im], ...]`` pair lists), made
    by one format call; None for any other list."""
    if not items:
        return None
    if type(items[0]) is float:
        flat = items
        template = ", ".join([_FLOAT_FORMAT] * len(items))
    else:
        if not set(map(type, items)) <= {list, tuple}:
            return None
        widths = set(map(len, items))
        if len(widths) != 1 or 0 in widths:
            return None
        width = widths.pop()
        flat = tuple(itertools.chain.from_iterable(items))
        row = "[" + ", ".join([_FLOAT_FORMAT] * width) + "]"
        template = ", ".join([row] * len(items))
    if set(map(type, flat)) != {float}:
        return None
    text = "[" + template % tuple(flat) + "]"
    # Finite floats render with digits, sign, point and exponent only;
    # an "n" comes from inf or nan.
    if "n" in text:
        raise ValueError("cannot render non-finite float")
    return text


def _render(value, parts: list[str]) -> None:
    if isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        f = float(value)
        if not math.isfinite(f):
            raise ValueError("cannot render non-finite float")
        parts.append(_FLOAT_FORMAT % f)
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
            _render(item, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        bulk = _render_floats(value)
        if bulk is not None:
            parts.append(bulk)
            return
        parts.append("[")
        for idx, item in enumerate(value):
            if idx:
                parts.append(", ")
            _render(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _load_json(path: str):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_matrix(path: str) -> np.ndarray:
    return matrix_from_json(_load_json(path))


def _load_vector(path: str) -> np.ndarray:
    mat = _load_matrix(path)
    if 1 not in mat.shape:
        raise ValueError(f"expected a 1xN or Nx1 matrix as a vector, got {mat.shape}")
    return mat.reshape(-1)


def _cmd_detect(args) -> dict:
    a = _load_matrix(args.matrix)
    g = digraph_of(a, args.tol)
    partitions = {}
    for h in feasible_h_values(g):
        part = find_h_partition(g, h)
        partitions[str(h)] = [list(cls) for cls in part.classes]
    return {"cyclic_index": cyclic_index(g), "partitions": partitions}


def _cmd_partition(args) -> dict:
    a = _load_matrix(args.matrix)
    g = digraph_of(a, args.tol)
    part = find_h_partition(g, args.h)
    if part is None:
        return {"partition": None, "consecutive_permutation": None}
    return {
        "partition": partition_to_json(part),
        "consecutive_permutation": list(consecutive_permutation(part)),
    }


def _cmd_blocks(args) -> dict:
    a = _load_matrix(args.matrix)
    part = partition_from_json(_load_json(args.partition))
    bc = extract_blocks(a, part, args.tol)
    products = [partial_product(bc, i, bc.h) for i in range(1, bc.h + 1)]
    return {
        "h": bc.h,
        "sizes": list(bc.sizes),
        "blocks": [matrix_to_json(b) for b in bc.blocks],
        "cycle_products": [matrix_to_json(b) for b in products],
    }


def _cmd_power(args) -> dict:
    a = _load_matrix(args.matrix)
    part = partition_from_json(_load_json(args.partition))
    diag = block_diagonal_power(a, part, args.tol)
    return {"h": part.h, "diagonal_blocks": [matrix_to_json(b) for b in diag]}


def _cmd_spectrum(args) -> dict:
    a = _load_matrix(args.matrix)
    part = partition_from_json(_load_json(args.partition))
    pred = mirsky_spectrum(a, part, args.tol)
    return {
        "zero_count": pred.zero_count,
        "orbits": [_pairs_to_json(orbit) for orbit in pred.root_orbits],
    }


def _cmd_check(args) -> dict:
    a = _load_matrix(args.matrix)
    part = partition_from_json(_load_json(args.partition))
    report = nonsingular_structure_check(a, part, args.tol)
    return {
        "singular": report.singular,
        "singular_blocks": list(report.singular_blocks),
        "sizes_equal": report.sizes_equal,
        "h_divides_n": report.h_divides_n,
    }


def _cmd_circulant(args) -> dict:
    chosen = [
        name
        for name, value in (
            ("--recognize", args.recognize),
            ("--from-reference", args.from_reference),
            ("--basic", args.basic),
            ("--ck", args.ck),
            ("--w", args.w),
        )
        if value is not None
    ]
    if len(chosen) != 1:
        raise ValueError(
            "pass exactly one of --recognize, --from-reference, --basic, --ck, --w"
        )
    if args.recognize is not None:
        ref = recognize_circulant(_load_matrix(args.recognize), args.tol)
        return {"reference": None if ref is None else _pairs_to_json(ref)}
    if args.from_reference is not None:
        return {"matrix": matrix_to_json(circulant_from_reference(_load_vector(args.from_reference)))}
    if args.basic is not None:
        return {"matrix": matrix_to_json(basic_circulant(args.basic))}
    if args.ck is not None:
        h, k = args.ck
        return {"matrix": matrix_to_json(c_k_matrix(h, k))}
    h, k, ell, variant = args.w
    return {"matrix": matrix_to_json(w_matrix(h, k, ell, variant))}


def _cmd_rotate_chain(args) -> dict:
    chain = chain_from_json(_load_json(args.chain))
    part = partition_from_json(_load_json(args.partition))
    if chain.orientation == "right":
        rotated = rotate_right_chain(chain, part, args.k)
    else:
        rotated = rotate_left_chain(chain, part, args.k)
    result = {"chain": chain_to_json(rotated)}
    if args.matrix is not None:
        a = _load_matrix(args.matrix)
        result["verified"] = verify_chain(a, rotated, args.tol)
    return result


def _cmd_zero_chains(args) -> dict:
    a = _load_matrix(args.matrix)
    part = partition_from_json(_load_json(args.partition))
    if args.class_index is not None and not 1 <= args.class_index <= part.h:
        raise ValueError(f"class index {args.class_index} out of range 1..{part.h}")
    summary = zero_chains_all(a, part, args.tol)
    by_class = summary.by_class()
    classes = []
    for i in sorted(by_class):
        if args.class_index is not None and i != args.class_index:
            continue
        reps = by_class[i]
        classes.append(
            {
                "class": i,
                "lengths": [r.length for r in reps],
                "chains": [
                    {"seed": _pairs_to_json(r.seed), **chain_to_json(r.chain)}
                    for r in reps
                ],
            }
        )
    return {
        "classes": classes,
        "weyr": list(summary.weyr.weights),
        "zero_block_sizes": list(summary.zero_block_sizes),
        "cross_class_redundancy": summary.cross_class_redundancy,
    }


def _cmd_weyr(args) -> dict:
    a = _load_matrix(args.matrix)
    return {"weyr": list(weyr_zero(a, args.tol).weights)}


def _cmd_reconstruct(args) -> dict:
    data = _load_json(args.orbits)
    part = partition_from_json(_load_json(args.partition))
    if not isinstance(data, dict) or not isinstance(data.get("orbits"), list):
        raise ValueError('reconstruct input must be {"orbits": [...]}')
    spectrum = []
    rights = []
    lefts = []
    for entry in data["orbits"]:
        lam = _pairs_from_json([entry["eigenvalue"]], "orbit eigenvalue")[0]
        spectrum.append((lam, _json_int(entry["length"], "orbit length")))
        rights.append(chain_from_json(entry["right"]))
        lefts.append(chain_from_json(entry["left"]))
    a = reconstruct_from_chains(rights, lefts, spectrum, part, args.tol)
    return {"matrix": matrix_to_json(a)}


_HANDLERS = {
    "detect": _cmd_detect,
    "partition": _cmd_partition,
    "blocks": _cmd_blocks,
    "power": _cmd_power,
    "spectrum": _cmd_spectrum,
    "check": _cmd_check,
    "circulant": _cmd_circulant,
    "rotate-chain": _cmd_rotate_chain,
    "zero-chains": _cmd_zero_chains,
    "weyr": _cmd_weyr,
    "reconstruct": _cmd_reconstruct,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcyclic",
        description="Analyze the cyclically h-partite structure of complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="zero threshold")
        p.set_defaults(handler=_HANDLERS[name])
        return p

    p = add("detect", "cyclic index and one partition per feasible h")
    p.add_argument("--matrix", required=True)

    p = add("partition", "find a cyclically h-partite partition for a given h")
    p.add_argument("--matrix", required=True)
    p.add_argument("--h", type=int, required=True)

    p = add("blocks", "cycle blocks and cycle products of a consecutive h-cyclic matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("power", "diagonal blocks of A^h, verified against the cycle products")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("spectrum", "spectrum prediction from the first cycle product")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("check", "singularity and class-size structure report")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("circulant", "circulant constructions and recognition")
    p.add_argument("--recognize", help="matrix JSON file to test for circulant structure")
    p.add_argument("--from-reference", dest="from_reference", help="vector JSON file")
    p.add_argument("--basic", type=int, help="order of the basic circulant K_n")
    p.add_argument("--ck", type=int, nargs=2, metavar=("H", "K"), help="root-of-unity circulant C_k")
    p.add_argument(
        "--w", type=int, nargs=4, metavar=("H", "K", "ELL", "VARIANT"),
        help="rank-one root-of-unity product (variant 1 or 2)",
    )

    p = add("rotate-chain", "rotate a Jordan chain across a root of unity")
    p.add_argument("--chain", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matrix", help="optional matrix to verify the rotated chain against")

    p = add("zero-chains", "zero-eigenvalue chains from singular cycle products")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--class", dest="class_index", type=int, help="restrict output to one class")

    p = add("weyr", "Weyr characteristic at the eigenvalue zero")
    p.add_argument("--matrix", required=True)

    p = add("reconstruct", "assemble an h-cyclic matrix from symmetry-respecting chains")
    p.add_argument("--orbits", required=True, help='JSON file {"orbits": [...]}')
    p.add_argument("--partition", required=True)

    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        args = _build_parser().parse_args(argv)
        try:
            result = args.handler(args)
        except NumericalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, TypeError, KeyError, IndexError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_json(result))
        return 0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
