"""Layer tracing for the hcyclic benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions of each ``hcyclic`` module
listed in ``LAYERS`` and rebinds every module-level name that refers to
an original, because the package imports with ``from .x import y`` and
re-exports through ``hcyclic/__init__``.  Each call records a span
(layer, start, end, parent) in memory; spans are written out only after
the run.  A layer's self time is its spans' durations minus the parts
their child spans cover, so the self times of all layers add up to the
time spent inside ``cli.main``.

Small helpers (``as_complex_matrix``, ``norm_inf``, ``submatrix``, the
handlers ``cli._cmd_*`` and the like) are not wrapped: a wrapper costs
about a microsecond and they are called per vector, so their time stays in
the self time of the caller.
"""

from __future__ import annotations

import collections
import json
import os
import sys
from time import perf_counter

# module -> {function name -> layer}.  Time metrics are "<layer>_ms".
LAYERS = {
    "cli": {
        "_load_json": "cli.parse",
        "render_json": "cli.render",
    },
    "matrix_core": {
        "matrix_from_json": "matrix_core.decode",
        "matrix_to_json": "matrix_core.encode",
        "matrix_rank": "matrix_core.rank",
        "null_space": "matrix_core.rank",
    },
    "digraph": {
        "is_h_cyclic": "digraph.validate",
        "digraph_of": "digraph.detect",
        "cyclic_index": "digraph.detect",
        "feasible_h_values": "digraph.detect",
        "find_h_partition": "digraph.detect",
        "consecutive_permutation": "digraph.detect",
    },
    "cyclic_blocks": {
        "partial_product": "cyclic_blocks.product",
        "mirsky_spectrum": "cyclic_blocks.spectrum",
        "block_diagonal_power": "cyclic_blocks.power",
        "nonsingular_structure_check": "cyclic_blocks.check",
    },
    "circulant": {
        "circulant_from_reference": "circulant.build",
        "basic_circulant": "circulant.build",
        "c_k_matrix": "circulant.build",
        "w_matrix": "circulant.build",
        "recognize_circulant": "circulant.recognize",
    },
    "jordan": {
        "verify_chain": "jordan.verify",
        "zero_chain_from_null_vector": "jordan.zero_chain",
        "zero_chains_all": "jordan.zero_chain",
        "weyr_zero": "jordan.weyr",
        "rotate_right_chain": "jordan.rotate",
        "rotate_left_chain": "jordan.rotate",
        "reconstruct_from_chains": "jordan.reconstruct",
        "chain_to_json": "jordan.chain_codec",
        "chain_from_json": "jordan.chain_codec",
    },
}

ROOT_LAYER = "cli.self"

# The arc scan inside a structure check is validation work, not detection.
INHERIT_FROM = {"digraph_of": "digraph.validate"}


def _one(args, result) -> int:
    return 1


def _rows(args, result) -> int:
    return len(args[0])


# Counters recorded at the same boundaries as the spans:
# function -> [(counter, amount from the call's arguments and result)].
COUNTERS = {
    "_load_json": [("cli.bytes_in", lambda args, result: os.path.getsize(args[0]))],
    "render_json": [("cli.bytes_out", lambda args, result: len(result))],  # rendered JSON is ASCII
    "matrix_rank": [("matrix_core.rank_calls", _one), ("matrix_core.rank_rows", _rows)],
    "null_space": [("matrix_core.rank_calls", _one), ("matrix_core.rank_rows", _rows)],
    "is_h_cyclic": [("digraph.validate_calls", _one)],
    "digraph_of": [("digraph.arcs_built", lambda args, result: len(result.arcs))],
    "partial_product": [("cyclic_blocks.product_calls", _one)],
    "verify_chain": [("jordan.verify_calls", _one)],
}

TIME_LAYERS = sorted({ROOT_LAYER} | {layer for funcs in LAYERS.values() for layer in funcs.values()})
COUNT_NAMES = sorted({name for counters in COUNTERS.values() for name, _ in counters})


class Tracer:
    """In-memory span recorder.  One instance per traced phase."""

    def __init__(self):
        # (span id, operation id, parent span id or -1, layer, function, start, end)
        self.spans: list[tuple] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.operations: list[str] = []  # label of each traced operation, by id
        self._stack: list[tuple[int, str]] = []
        self._op = -1

    def install(self, package) -> None:
        """Wrap the functions in ``LAYERS`` and rebind them in every
        ``hcyclic`` module that holds a reference to the original."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            for func_name, layer in funcs.items():
                original = getattr(home, func_name)
                wrapper = self._wrap(original, func_name, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, func, func_name, layer):
        counters = COUNTERS.get(func_name, ())
        inherit = INHERIT_FROM.get(func_name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent_id, parent_layer = stack[-1] if stack else (-1, "")
            span_layer = parent_layer if parent_layer == inherit else layer
            span_id = len(spans)
            spans.append(None)
            stack.append((span_id, span_layer))
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, self._op, parent_id, span_layer, func_name, start, end)
            for name, amount in counters:
                self.counts[name] += amount(args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def run_op(self, label: str, main, argv):
        """Call ``main(argv)`` as the root span of a new operation."""
        self.operations.append(label)
        self._op = len(self.operations) - 1
        return self._wrap(main, "main", ROOT_LAYER)(argv)

    def self_times_ms(self) -> dict[str, float]:
        """Self time per layer: span duration minus its children's."""
        own = {}
        for span_id, _, parent, _, _, start, end in self.spans:
            own[span_id] = own.get(span_id, 0.0) + (end - start)
            if parent >= 0:
                own[parent] = own.get(parent, 0.0) - (end - start)
        totals = dict.fromkeys(TIME_LAYERS, 0.0)
        for span_id, _, _, layer, _, _, _ in self.spans:
            totals[layer] += own[span_id] * 1e3
        return totals

    def write(self, path) -> None:
        """Write the spans as JSON lines, after the run."""
        with open(path, "w") as fh:
            for span_id, op, parent, layer, func, start, end in self.spans:
                fh.write(json.dumps({"span": span_id, "op": op, "operation": self.operations[op],
                                     "parent": parent, "layer": layer, "function": func,
                                     "start": start, "end": end}) + "\n")
