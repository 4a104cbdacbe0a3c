"""JSON-in, JSON-out command line front end.

Each subcommand reads matrices / partitions / chains from JSON files,
dispatches to the library, and prints a result object on stdout.  Floats
are rendered with 12 significant digits and dictionary key order is
fixed, so output is byte-stable across runs.  Matrix data, chain vectors,
seeds, orbits and references are rendered from complex arrays, one format
call per array, and the circulants of ``circulant`` from their first row;
the text is byte for byte that of rendering each float alone.  Exit
codes: 0 success, 2 a ValueError or OSError (malformed input, numbers not
representable as finite floats, dimension or partition mismatch), 1 a
NumericalError (including overflow of products and powers of valid
input); any other exception is a bug and propagates.

Each call of :func:`main` runs with the cyclic garbage collector paused
and restores the caller's collector state on the way out.  Unpaused, the
collector rescans the growing parse tree of a large JSON document again
and again while ``json.loads`` builds it.  The pause leaves nothing for
later: the argument parser, the one structure with reference cycles, is
built once per process, and nothing else a call builds forms a cycle.

The handler and the render run with numpy's overflow, invalid-value and
divide-by-zero warnings silenced, and the caller's settings come back on
the way out.  Overflow that matters is caught where it happens (a result
that is not finite, a NaN pivot) and reported on one ``error:`` line;
the warnings would only put numpy's source lines ahead of it.

A matrix file in the canonical layout, as ``render_json`` and
``json.dumps`` write it, is decoded from its text
(``matrix_core._matrix_from_text``), with the pairs ``json.dumps``
writes as ``[0.0, 0.0]`` taken as +0.0 unparsed; any other takes
``json.loads`` and ``matrix_from_json``, with the same values, messages
and exit codes.  A file that is not valid JSON exits 2 with the parser's
message after the file's path.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    NumericalError,
    _json_int,
    _matrix_fields,
    _matrix_from_text,
    _pairs_from_json,
    matrix_from_json,
)
from .digraph import (
    consecutive_permutation,
    cyclic_index,
    digraph_of,
    feasible_h_values,
    find_h_partition,
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
    _chain_fields,
    chain_from_json,
    reconstruct_from_chains,
    rotate_left_chain,
    rotate_right_chain,
    verify_chain,
    weyr_zero,
    zero_chains_all,
)

# Every float is rendered with this format, one by one or, inside the
# [re, im] pairs of complex arrays, in bulk.
_FLOAT_FORMAT = "%.12g"
_PAIR_FORMAT = f"[{_FLOAT_FORMAT}, {_FLOAT_FORMAT}]"


def render_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats at 12
    significant digits.  A complex ndarray renders as the row-major
    ``[[re, im], ...]`` list of its entries."""
    parts: list[str] = []
    _render(value, parts)
    return "".join(parts)


class _Circulant:
    """Data of a square circulant held as its first row r: c_ij = r_((j-i) mod n)."""

    def __init__(self, row: np.ndarray):
        self.row = row


def _format_pairs(a: np.ndarray, sep: str) -> str:
    # The [re, im] pairs of the complex array a in row-major order, joined
    # by sep, made by one format call.
    floats = tuple(np.ascontiguousarray(a).view(np.float64).ravel().tolist())
    text = sep.join([_PAIR_FORMAT] * (len(floats) // 2)) % floats
    # Finite floats render with digits, sign, point and exponent only;
    # an "n" comes from inf or nan.
    if "n" in text:
        raise ValueError("cannot render non-finite float")
    return text


def _format_circulant(row: np.ndarray) -> str:
    # Each of the n distinct pairs is formatted once; row i is the first
    # row rotated right by i.
    cells = _format_pairs(row, "\n").split("\n")
    n = len(cells)
    cells += cells
    return "[" + ", ".join([", ".join(cells[n - i:2 * n - i]) for i in range(n)]) + "]"


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
        parts.append("[")
        for idx, item in enumerate(value):
            if idx:
                parts.append(", ")
            _render(item, parts)
        parts.append("]")
    elif isinstance(value, np.ndarray) and value.dtype == complex:
        parts.append("[" + _format_pairs(value, ", ") + "]")
    elif isinstance(value, _Circulant):
        parts.append(_format_circulant(value.row))
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _load_json(path: str, raw: bytes | None = None):
    # ``raw``, when given, is what the file held when read; it is decoded
    # as ``read_text`` decodes, so a pipe need not be read twice.
    text = Path(path).read_text() if raw is None else io.TextIOWrapper(io.BytesIO(raw)).read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_matrix(path: str) -> np.ndarray:
    raw = Path(path).read_bytes()
    mat = _matrix_from_text(raw)
    return matrix_from_json(_load_json(path, raw)) if mat is None else mat


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
        "blocks": [_matrix_fields(b) for b in bc.blocks],
        "cycle_products": [_matrix_fields(b) for b in products],
    }


def _cmd_power(args) -> dict:
    a = _load_matrix(args.matrix)
    part = partition_from_json(_load_json(args.partition))
    diag = block_diagonal_power(a, part, args.tol)
    return {"h": part.h, "diagonal_blocks": [_matrix_fields(b) for b in diag]}


def _cmd_spectrum(args) -> dict:
    a = _load_matrix(args.matrix)
    part = partition_from_json(_load_json(args.partition))
    pred = mirsky_spectrum(a, part, args.tol)
    return {
        "zero_count": pred.zero_count,
        "orbits": [np.array(orbit) for orbit in pred.root_orbits],
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
    if args.recognize is not None:
        ref = recognize_circulant(_load_matrix(args.recognize), args.tol)
        return {"reference": ref}
    if args.from_reference is not None:
        c = circulant_from_reference(_load_vector(args.from_reference))
    elif args.basic is not None:
        c = basic_circulant(args.basic)
    elif args.ck is not None:
        c = c_k_matrix(*args.ck)
    else:
        c = w_matrix(*args.w)
    # Every matrix built here is a circulant, so its first row renders it.
    return {"matrix": {**_matrix_fields(c), "data": _Circulant(c[0])}}


def _cmd_rotate_chain(args) -> dict:
    chain = chain_from_json(_load_json(args.chain))
    part = partition_from_json(_load_json(args.partition))
    if chain.orientation == "right":
        rotated = rotate_right_chain(chain, part, args.k)
    else:
        rotated = rotate_left_chain(chain, part, args.k)
    result = {"chain": _chain_fields(rotated)}
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
                    {"seed": r.seed, **_chain_fields(r.chain)}
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
    rights = []
    lefts = []
    for number, entry in enumerate(data["orbits"], start=1):
        if not isinstance(entry, dict):
            raise ValueError(f"orbit {number} must be an object")
        for key in ("eigenvalue", "length", "right", "left"):
            if key not in entry:
                raise ValueError(f"orbit {number} has no {key!r}")
        lam = _pairs_from_json([entry["eigenvalue"]], f"orbit {number} eigenvalue")[0]
        length = _json_int(entry["length"], f"orbit {number} length")
        for side, chains in (("right", rights), ("left", lefts)):
            try:
                chains.append(chain_from_json(entry[side]))
            except ValueError as exc:
                raise ValueError(f"orbit {number} {side}: {exc}") from exc
        # The library reads each orbit from its right chain.
        if rights[-1].eigenvalue != lam or rights[-1].length != length:
            raise ValueError(f"orbit {number}: eigenvalue or length differs from its right chain")
    a = reconstruct_from_chains(rights, lefts, part, args.tol)
    return {"matrix": _matrix_fields(a)}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcyclic",
        description="Analyze the cyclically h-partite structure of complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="zero threshold")
        p.set_defaults(handler=handler)
        return p

    p = add("detect", _cmd_detect, "cyclic index and one partition per feasible h")
    p.add_argument("--matrix", required=True)

    p = add("partition", _cmd_partition,
            "find a cyclically h-partite partition for a given h")
    p.add_argument("--matrix", required=True)
    p.add_argument("--h", type=int, required=True)

    p = add("blocks", _cmd_blocks,
            "cycle blocks and cycle products of a consecutive h-cyclic matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("power", _cmd_power, "diagonal blocks of A^h, verified against the cycle products")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("spectrum", _cmd_spectrum, "spectrum prediction from the smallest cycle product")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("check", _cmd_check, "singularity and class-size structure report")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)

    p = add("circulant", _cmd_circulant, "circulant constructions and recognition")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--recognize", help="matrix JSON file to test for circulant structure")
    mode.add_argument("--from-reference", dest="from_reference", help="vector JSON file")
    mode.add_argument("--basic", type=int, help="order of the basic circulant K_n")
    mode.add_argument("--ck", type=int, nargs=2, metavar=("H", "K"), help="root-of-unity circulant C_k")
    mode.add_argument(
        "--w", type=int, nargs=4, metavar=("H", "K", "ELL", "VARIANT"),
        help="rank-one root-of-unity product (variant 1 or 2)",
    )

    p = add("rotate-chain", _cmd_rotate_chain, "rotate a Jordan chain across a root of unity")
    p.add_argument("--chain", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matrix", help="optional matrix to verify the rotated chain against")

    p = add("zero-chains", _cmd_zero_chains, "zero-eigenvalue chains from singular cycle products")
    p.add_argument("--matrix", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--class", dest="class_index", type=int, help="restrict output to one class")

    p = add("weyr", _cmd_weyr, "Weyr characteristic at the eigenvalue zero")
    p.add_argument("--matrix", required=True)

    p = add("reconstruct", _cmd_reconstruct,
            "assemble an h-cyclic matrix from symmetry-respecting chains")
    p.add_argument("--orbits", required=True, help='JSON file {"orbits": [...]}')
    p.add_argument("--partition", required=True)

    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        args = _build_parser().parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # see the module docstring
            try:
                result = args.handler(args)
            except NumericalError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            except (ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(render_json(result))
        return 0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
