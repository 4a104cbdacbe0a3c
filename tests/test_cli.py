import argparse
import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcyclic
from hcyclic import (
    JordanChain,
    basic_circulant,
    c_k_matrix,
    chain_to_json,
    circulant_from_reference,
    matrix_from_json,
    matrix_to_json,
    partition_to_json,
    w_matrix,
)
from hcyclic import cli
from hcyclic.cli import main, render_json
from hcyclic.matrix_core import _pairs_to_json

import helpers

# Every library operation the CLI must reach through some subcommand.
REQUIRED_OPERATIONS = [
    "hadamard",
    "jordan_block",
    "submatrix",
    "null_space",
    "digraph_of",
    "cyclic_index",
    "find_h_partition",
    "is_h_cyclic",
    "consecutive_permutation",
    "extract_blocks",
    "partial_product",
    "block_diagonal_power",
    "mirsky_spectrum",
    "nonsingular_structure_check",
    "circulant_from_reference",
    "recognize_circulant",
    "basic_circulant",
    "c_k_matrix",
    "w_matrix",
    "verify_chain",
    "rotate_right_chain",
    "rotate_left_chain",
    "embed_null_vector",
    "zero_chain_from_null_vector",
    "zero_chains_all",
    "weyr_zero",
    "reconstruct_from_chains",
]


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    s = np.array(
        [[1, 0, 1, 0], [0, 1, 0, -1], [1, 0, -1, 0], [0, 1, 0, 1]], dtype=complex
    )
    sinv = np.linalg.inv(s)
    x1 = np.array([0, 1, -1, 0, 0, 0], dtype=complex)
    x2 = np.array([0, 0, 0, 0, 1, -1], dtype=complex)
    ref = np.array([[0.1 + 0.2j, -1 / 3, 2 ** 0.5 * 1j, 1e-300, -0.0, 12345.678901234]])
    return {
        "six": write("six.json", matrix_to_json(helpers.six_matrix())),
        "six_part": write("six_part.json", partition_to_json(helpers.SIX_PARTITION)),
        "six_chain": write(
            "six_chain.json", chain_to_json(JordanChain(0j, "right", (x1, x2)))
        ),
        # (x1, x2) is also a left chain of the six matrix at zero.
        "six_left": write("six_left.json", chain_to_json(JordanChain(0j, "left", (x1, x2)))),
        "six_half": write("six_half.json", matrix_to_json(helpers.six_matrix() / 2)),
        "twelve": write("twelve.json", matrix_to_json(helpers.twelve_matrix())),
        "twelve_part": write(
            "twelve_part.json", partition_to_json(helpers.TWELVE_PARTITION)
        ),
        "ref": write("ref6.json", matrix_to_json(ref)),
        "orbits": write(
            "orbits.json",
            {
                "orbits": [
                    {
                        "eigenvalue": [0.0, 0.0],
                        "length": 2,
                        "right": chain_to_json(JordanChain(0j, "right", (s[:, 0], s[:, 1]))),
                        "left": chain_to_json(JordanChain(0j, "left", (sinv[0], sinv[1]))),
                    }
                ]
            },
        ),
        "bip_part": write("bip.json", {"h": 2, "classes": [[1, 2], [3, 4]]}),
        "write": write,
    }


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_detect_golden(self, capsys, files):
        code, out, _ = run_cli(capsys, ["detect", "--matrix", files["six"]])
        assert code == 0
        assert out.strip() == (
            '{"cyclic_index": 3, "partitions": '
            '{"1": [[1, 2, 3, 4, 5, 6]], "3": [[1], [2, 3, 4], [5, 6]]}}'
        )

    def test_partition_found_and_not(self, capsys, files):
        code, out, _ = run_cli(capsys, ["partition", "--matrix", files["six"], "--h", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["partition"]["classes"] == [[1], [2, 3, 4], [5, 6]]
        assert doc["consecutive_permutation"] == [1, 2, 3, 4, 5, 6]
        code, out, _ = run_cli(capsys, ["partition", "--matrix", files["six"], "--h", "2"])
        assert code == 0
        assert json.loads(out) == {"partition": None, "consecutive_permutation": None}

    def test_blocks(self, capsys, files):
        code, out, _ = run_cli(
            capsys,
            ["blocks", "--matrix", files["six"], "--partition", files["six_part"]],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sizes"] == [1, 3, 2]
        b1 = matrix_from_json(doc["cycle_products"][0])
        assert b1.shape == (1, 1) and abs(b1[0, 0] - 4) <= 1e-12

    def test_power(self, capsys, files):
        code, out, _ = run_cli(
            capsys,
            ["power", "--matrix", files["twelve"], "--partition", files["twelve_part"]],
        )
        assert code == 0
        doc = json.loads(out)
        b2 = matrix_from_json(doc["diagonal_blocks"][1])
        assert np.max(np.abs(b2 - np.ones((4, 4)))) <= 1e-9

    def test_spectrum(self, capsys, files):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--matrix", files["six"], "--partition", files["six_part"]],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["zero_count"] == 3
        orbit = [complex(re, im) for re, im in doc["orbits"][0]]
        assert abs(orbit[0] - 2 ** (2 / 3)) <= 1e-9

    def test_check(self, capsys, files):
        code, out, _ = run_cli(
            capsys,
            ["check", "--matrix", files["six"], "--partition", files["six_part"]],
        )
        assert code == 0
        assert json.loads(out) == {
            "singular": True,
            "singular_blocks": [2, 3],
            "sizes_equal": False,
            "h_divides_n": True,
        }

    def test_circulant_flags(self, capsys, files):
        code, out, _ = run_cli(capsys, ["circulant", "--basic", "3"])
        assert code == 0
        k3 = matrix_from_json(json.loads(out)["matrix"])
        assert np.array_equal(k3.real, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))

        ref_file = files["write"]("ref.json", matrix_to_json(np.array([[0, 1, 0]])))
        code, out, _ = run_cli(capsys, ["circulant", "--from-reference", ref_file])
        assert code == 0
        assert np.array_equal(matrix_from_json(json.loads(out)["matrix"]), k3)

        k3_file = files["write"]("k3.json", matrix_to_json(k3))
        code, out, _ = run_cli(capsys, ["circulant", "--recognize", k3_file])
        assert code == 0
        assert json.loads(out)["reference"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]

        code, out, _ = run_cli(capsys, ["circulant", "--ck", "2", "1"])
        assert code == 0
        ck = matrix_from_json(json.loads(out)["matrix"])
        assert np.max(np.abs(ck - np.array([[-1, 1], [1, -1]]))) <= 1e-12

        code, out, _ = run_cli(capsys, ["circulant", "--w", "2", "1", "1", "2"])
        assert code == 0
        wm = matrix_from_json(json.loads(out)["matrix"])
        assert np.max(np.abs(wm - ck)) <= 1e-12

        code, _, err = run_cli(capsys, ["circulant", "--basic", "3", "--ck", "2", "1"])
        assert code == 2 and "exactly one" in err

    def test_rotate_chain(self, capsys, files):
        code, out, _ = run_cli(
            capsys,
            [
                "rotate-chain",
                "--chain", files["six_chain"],
                "--partition", files["six_part"],
                "--k", "1",
                "--matrix", files["six"],
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        first = doc["chain"]["vectors"][0]
        assert abs(complex(*first[1]) - hcyclic.omega(3)) <= 1e-12

    def test_zero_chains(self, capsys, files):
        code, out, _ = run_cli(
            capsys,
            ["zero-chains", "--matrix", files["twelve"], "--partition", files["twelve_part"]],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["weyr"] == [5, 3, 1]
        assert doc["zero_block_sizes"] == [3, 2, 2, 1, 1]
        assert doc["cross_class_redundancy"] is True
        per_class = {entry["class"]: sorted(entry["lengths"]) for entry in doc["classes"]}
        assert per_class[1] == [2, 2, 3]
        assert per_class[2] == [1, 1, 1]

        code, out, _ = run_cli(
            capsys,
            [
                "zero-chains",
                "--matrix", files["twelve"],
                "--partition", files["twelve_part"],
                "--class", "2",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert [entry["class"] for entry in doc["classes"]] == [2]

    def test_zero_chains_scale_separated_chain(self, capsys, files):
        matrix = files["write"]("scaled.json", matrix_to_json(helpers.scale_separated_matrix()))
        part = files["write"](
            "scaled_part.json", partition_to_json(helpers.SCALE_SEPARATED_PARTITION)
        )
        code, out, _ = run_cli(capsys, ["zero-chains", "--matrix", matrix, "--partition", part])
        assert code == 0
        per_class = {entry["class"]: entry["lengths"] for entry in json.loads(out)["classes"]}
        assert per_class == {1: [1], 2: [2]}

    def test_weyr_golden(self, capsys, files):
        code, out, _ = run_cli(capsys, ["weyr", "--matrix", files["twelve"]])
        assert code == 0
        assert out.strip() == '{"weyr": [5, 3, 1]}'

    def test_reconstruct(self, capsys, files):
        code, out, _ = run_cli(
            capsys, ["reconstruct", "--orbits", files["orbits"], "--partition", files["bip_part"]]
        )
        assert code == 0
        a = matrix_from_json(json.loads(out)["matrix"])
        expected = np.zeros((4, 4))
        expected[0, 3] = 1
        expected[2, 1] = 1
        assert np.max(np.abs(a - expected)) <= 1e-12


class TestExitCodes:
    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(capsys, ["detect", "--matrix", str(bad)])
        assert code == 2
        assert out == "" and err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["detect", "--matrix", str(tmp_path / "nope.json")])
        assert code == 2 and err

    def test_partition_mismatch(self, capsys, files):
        code, _, err = run_cli(
            capsys,
            ["blocks", "--matrix", files["six"], "--partition", files["twelve_part"]],
        )
        assert code == 2 and err

    def test_numerical_failure(self, capsys, files):
        # Off-pattern entries below a sloppy tolerance slip past the
        # digraph but poison A^h beyond the residual threshold: internal
        # numerical failure, exit 1.
        near = files["write"](
            "near.json", matrix_to_json(np.array([[0.27, 1.0], [1.0, 0.27]]))
        )
        part = files["write"]("pair.json", {"h": 2, "classes": [[1], [2]]})
        code, _, err = run_cli(
            capsys,
            ["power", "--matrix", near, "--partition", part, "--tol", "0.3"],
        )
        assert code == 1 and err

    def test_own_kernel_vector_failing_the_kernel_test_exits_1(self, capsys, files):
        # At tol 0 a kernel vector of null_space fails the kernel test by
        # round-off: numerical failure, exit 1, not invalid input.
        matrix = files["write"]("inexact.json", matrix_to_json(helpers.inexact_kernel_matrix()))
        part = files["write"](
            "inexact_part.json", partition_to_json(helpers.INEXACT_KERNEL_PARTITION)
        )
        argv = ["zero-chains", "--matrix", matrix, "--partition", part]
        assert run_cli(capsys, argv)[0] == 0
        code, out, err = run_cli(capsys, argv + ["--tol", "0"])
        assert code == 1 and out == ""
        assert "not in the kernel of cycle product B_1" in err

    @pytest.mark.parametrize("index", ["0", "-1", "7"])
    def test_zero_chains_class_out_of_range(self, capsys, files, monkeypatch, index):
        # The twelve-vertex partition has h = 3: the index is rejected
        # before any chain is computed.
        monkeypatch.setattr(hcyclic.cli, "zero_chains_all", None)
        argv = ["zero-chains", "--matrix", files["twelve"], "--partition", files["twelve_part"],
                "--class", index]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert f"class index {index} out of range 1..3" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "command", ["blocks", "power", "spectrum", "check", "zero-chains", "weyr"]
    )
    def test_overflow_is_numerical_failure(self, capsys, files, command):
        # Valid input whose cycle products or powers leave the float range.
        # zero-chains forms B_i of singular classes only, so its input is
        # singular: B_2 = A_21 A_12 of order 2 has rank 1.
        rows, part = [[0, 1e200], [1e200, 0]], {"h": 2, "classes": [[1], [2]]}
        if command == "weyr":
            rows = [[1e200, 1e200], [0, 0]]
        elif command == "zero-chains":
            rows = [[0, 1e200, 1e200], [1e200, 0, 0], [1e200, 0, 0]]
            part = {"h": 2, "classes": [[1], [2, 3]]}
        argv = [command, "--matrix", files["write"]("huge.json", matrix_to_json(np.array(rows)))]
        if command != "weyr":
            argv += ["--partition", files["write"]("pair.json", part)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_nonsingular_overflow_forms_no_zero_chain(self, capsys, files):
        # weyr reads () for [[0, 1e200], [1e200, 0]] (exactly: 1e200 times a
        # permutation), so no class is singular and no B_i is formed.
        huge = matrix_to_json(np.array([[0, 1e200], [1e200, 0]]))
        argv = ["zero-chains", "--matrix", files["write"]("huge.json", huge),
                "--partition", files["write"]("pair.json", {"h": 2, "classes": [[1], [2]]})]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"classes": [], "weyr": [], "zero_block_sizes": [],
                                   "cross_class_redundancy": False}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_rank_scale_is_numerical_failure(self, capsys, files):
        # Nonsingular; its row sums 3e308 make the pivot threshold inf,
        # which would read every pivot as zero.  At tol 0 there is no scale.
        huge = [[1.5e308, 1.5e308], [1.5e308, -1.5e308]]
        argv = ["weyr", "--matrix", files["write"]("huge.json", matrix_to_json(np.array(huge)))]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "error:" in err and "overflowed" in err and "Traceback" not in err
        code, out, _ = run_cli(capsys, argv + ["--tol", "0"])
        assert (code, out) == (0, '{"weyr": []}\n')

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_pivot_is_numerical_failure(self, capsys, files):
        # Rank 2; at tol 0 a NaN left by the overflowed elimination was
        # counted as a third pivot and the weights printed as [].
        a = np.array([[1, 1e308, 1e308], [1, -1e308, -1e308], [0, 1, 1]])
        argv = ["weyr", "--tol", "0", "--matrix", files["write"]("nan.json", matrix_to_json(a))]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "error:" in err and "overflowed" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_chain_residual_is_numerical_failure(self, capsys, files):
        # [1e200, 2e200] is no eigenvector of the swap times 1e200, but
        # its residual inf - inf = nan passed every threshold.
        chain = {"eigenvalue": [1e200, 0.0], "orientation": "right",
                 "vectors": [[[1e200, 0.0], [2e200, 0.0]]]}
        huge = matrix_to_json(np.array([[0, 1e200], [1e200, 0]]))
        argv = ["rotate-chain", "--chain", files["write"]("chain.json", chain),
                "--partition", files["write"]("pair.json", {"h": 2, "classes": [[1], [2]]}),
                "--k", "0", "--matrix", files["write"]("huge.json", huge)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "error:" in err and "overflowed" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", [[], ["--tol", "0"]])
    def test_weyr_of_long_block_beside_large_eigenvalue(self, capsys, files, tol):
        # J_64 + 1000 I_64: the float ranks at the default tol read the
        # increasing weights (1, 1, 62); the integer matrix is exact.
        a = np.zeros((128, 128))
        a[np.arange(63), np.arange(1, 64)] = 1
        a[np.arange(64, 128), np.arange(64, 128)] = 1000
        argv = ["weyr", "--matrix", files["write"]("j64.json", matrix_to_json(a))] + tol
        assert run_cli(capsys, argv) == (0, '{"weyr": [%s]}\n' % ", ".join(["1"] * 64), "")

    @pytest.mark.parametrize("tol", [[], ["--tol", "0"]])
    def test_weyr_of_nonsingular_matrix_singular_in_both_fields(self, capsys, files, tol):
        # det = 4244333 * 4244329, the product of the two primes of the
        # exact path: both fields read a kernel that Q does not have.
        a = np.array([[4244328, -1, 0], [0, 2122167, -1], [5, 0, 2]])
        argv = ["weyr", "--matrix", files["write"]("pq.json", matrix_to_json(a))] + tol
        assert run_cli(capsys, argv) == (0, '{"weyr": []}\n', "")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reconstruct_overflow_is_numerical_failure(self, capsys, files):
        # Biorthonormal chains whose outer products leave the float range.
        code, out, err = run_cli(
            capsys, self._reconstruct_argv(files, (1e200, 0.5e-200), (0.5e-200, 1e200))
        )
        assert code == 1 and out == ""
        assert "overflowed" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reconstruct_overflowing_gram_is_not_biorthonormal(self, capsys, files):
        code, out, err = run_cli(
            capsys, self._reconstruct_argv(files, (1e200, 1e200), (1e200, 1e200))
        )
        assert code == 2 and out == ""
        assert "not biorthonormal" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("rotate-chain", {"eigenvalue": [1.0, 0.0], "orientation": "right",
                              "vectors": [[[1.0, 0.0], [1.5e308, 1.5e308], [0.0, 1.0]]]}),
            ("rotate-chain", {"eigenvalue": [1.5e308, 1.5e308], "orientation": "right",
                              "vectors": [[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]}),
            # y_c x_c = 1/3 on every class c, but w = exp(2 pi i/3) takes
            # 1.5e308 (1 + i) out of the float range.
            ("reconstruct", {"orbits": [{
                "eigenvalue": [1.0, 0.0], "length": 1,
                "right": {"eigenvalue": [1.0, 0.0], "orientation": "right",
                          "vectors": [[[1.0, 0.0], [1.5e308, 1.5e308], [1.0, 0.0]]]},
                "left": {"eigenvalue": [1.0, 0.0], "orientation": "left",
                         "vectors": [[[1 / 3, 0.0], [1 / 9e308, -1 / 9e308], [1 / 3, 0.0]]]},
            }]}),
        ],
        ids=["rotated-vector", "rotated-eigenvalue", "reconstruct-rotation"],
    )
    def test_overflowing_rotation_is_numerical_failure(self, capsys, files, command, payload):
        part = files["write"]("three.json", {"h": 3, "classes": [[1], [2], [3]]})
        data = files["write"]("rotated.json", payload)
        if command == "rotate-chain":
            argv = [command, "--chain", data, "--partition", part, "--k", "1"]
        else:
            argv = [command, "--orbits", data, "--partition", part]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "error:" in err and "overflowed" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "right, left",
        [((1e100, 1e-200), (0.3e-100, 0.3e200)), ((1e200, 1e-200), (0.3e-200, 0.3e200))],
    )
    def test_reconstruct_scale_separated_chains_not_biorthonormal(self, capsys, files,
                                                                 right, left):
        # A Gram matrix of 0.6 I, off by 0.4 however large the chain norms.
        code, out, err = run_cli(capsys, self._reconstruct_argv(files, right, left))
        assert code == 2 and out == ""
        assert "not biorthonormal" in err

    @staticmethod
    def _reconstruct_argv(files, right, left):
        def chain(orientation, entries):
            return {
                "eigenvalue": [1.0, 0.0],
                "orientation": orientation,
                "vectors": [[[x, 0.0] for x in entries]],
            }

        orbits = files["write"](
            "overflow_orbits.json",
            {"orbits": [{"eigenvalue": [1.0, 0.0], "length": 1,
                         "right": chain("right", right), "left": chain("left", left)}]},
        )
        part = files["write"]("pair.json", {"h": 2, "classes": [[1], [2]]})
        return ["reconstruct", "--orbits", orbits, "--partition", part]

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("matrix", '{"rows": 1, "cols": "1", "data": [[0, 0]]}'),
            ("partition", '{"h": 2, "classes": [[1.9], [2.2]]}'),
            ("partition", '{"h": true, "classes": [[1]]}'),
            ("orbits",
             '{"orbits": [{"eigenvalue": [1, 0], "length": 1.5, "right": {}, "left": {}}]}'),
        ],
        ids=["matrix-cols-string", "partition-class-float", "partition-h-bool",
             "orbit-length-float"],
    )
    def test_non_integer_integer_field_is_validation_error(self, capsys, files, tmp_path,
                                                          kind, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        pair = files["write"]("pair.json", {"h": 2, "classes": [[1], [2]]})
        two = files["write"]("two.json", matrix_to_json(np.array([[0, 1], [1, 0]])))
        argv = {
            "matrix": ["weyr", "--matrix", str(bad)],
            "partition": ["spectrum", "--matrix", two, "--partition", str(bad)],
            "orbits": ["reconstruct", "--orbits", str(bad), "--partition", pair],
        }[kind]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "must be an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("matrix", '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400)),
            ("matrix", '{"rows": 1e400, "cols": 1, "data": [[0, 0]]}'),
            ("partition", '{"h": 1e400, "classes": [[1], [2, 3, 4], [5, 6]]}'),
            ("chain", '{"eigenvalue": [1%s, 0], "orientation": "right", "vectors": [[[1, 0]]]}'
             % ("0" * 400)),
            ("orbits",
             '{"orbits": [{"eigenvalue": [1, 0], "length": 1e400, "right": {}, "left": {}}]}'),
        ],
        ids=["matrix-data", "matrix-rows", "partition-h", "chain-eigenvalue", "orbit-length"],
    )
    def test_number_too_large_for_float_is_validation_error(self, capsys, files, tmp_path,
                                                             kind, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        one = files["write"]("one.json", {"h": 1, "classes": [[1]]})
        argv = {
            "matrix": ["weyr", "--matrix", str(bad)],
            "partition": ["spectrum", "--matrix", files["six"], "--partition", str(bad)],
            "chain": ["rotate-chain", "--chain", str(bad), "--partition", one, "--k", "0"],
            "orbits": ["reconstruct", "--orbits", str(bad), "--partition", one],
        }[kind]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--matrix", "--partition"])
    def test_deep_nesting_is_validation_error(self, capsys, files, tmp_path, flag):
        # Nested beyond the recursion limit, the parser raises RecursionError.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        argv = (["weyr", "--matrix", str(deep)] if flag == "--matrix"
                else ["spectrum", "--matrix", files["six"], "--partition", str(deep)])
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "nested too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "data", ['[["1", "2"]]', "[[true, 0]]", "[[0, false]]", '[[1, "nan"]]'],
        ids=["strings", "true", "false", "string-nan"],
    )
    def test_strings_and_booleans_are_not_numbers(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 1, "cols": 1, "data": %s}' % data)
        code, out, err = run_cli(capsys, ["weyr", "--matrix", str(bad)])
        assert code == 2 and out == ""
        assert "is not a number" in err and "Traceback" not in err

    def test_json_integers_are_numbers(self, capsys, tmp_path):
        ints = tmp_path / "ints.json"
        ints.write_text('{"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [0, 0], [0, 0]]}')
        assert run_cli(capsys, ["weyr", "--matrix", str(ints)]) == (0, '{"weyr": [1, 1]}\n', "")


# One call per subcommand (every circulant flag), on the small inputs;
# check also on a non-integer matrix, which takes the float rank, and
# rotate-chain also on a left chain.
EVERY_COMMAND = [
    ("detect", "--matrix", "six"),
    ("partition", "--matrix", "six", "--h", "3"),
    ("blocks", "--matrix", "twelve", "--partition", "twelve_part"),
    ("power", "--matrix", "twelve", "--partition", "twelve_part"),
    ("spectrum", "--matrix", "six", "--partition", "six_part"),
    ("check", "--matrix", "twelve", "--partition", "twelve_part"),
    ("check", "--matrix", "six_half", "--partition", "six_part"),
    ("circulant", "--recognize", "six"),
    ("circulant", "--from-reference", "ref"),
    ("circulant", "--basic", "4"),
    ("circulant", "--ck", "5", "2"),
    ("circulant", "--w", "2", "1", "1", "2"),
    ("rotate-chain", "--chain", "six_chain", "--partition", "six_part", "--k", "1",
     "--matrix", "six"),
    ("rotate-chain", "--chain", "six_left", "--partition", "six_part", "--k", "1",
     "--matrix", "six"),
    ("zero-chains", "--matrix", "twelve", "--partition", "twelve_part"),
    ("weyr", "--matrix", "twelve"),
    ("reconstruct", "--orbits", "orbits", "--partition", "bip_part"),
]


class TestGarbageCollector:
    """Each call runs with the cyclic collector paused and hands the
    caller's collector state back; a call makes no cyclic garbage, so the
    pause holds no memory back."""

    @staticmethod
    def _exit_path(files, monkeypatch, path):
        """argv for one way out of ``main``, and what that way is."""
        if path == "uncaught":
            def broken(_path):
                raise RuntimeError("broken")

            monkeypatch.setattr(cli, "_load_matrix", broken)
        near = files["write"]("near.json", matrix_to_json(np.array([[0.27, 1.0], [1.0, 0.27]])))
        pair = files["write"]("pair.json", {"h": 2, "classes": [[1], [2]]})
        return {
            "success": (["weyr", "--matrix", files["six"]], 0),
            "numerical": (["power", "--matrix", near, "--partition", pair, "--tol", "0.3"], 1),
            "invalid": (["weyr", "--matrix", files["write"]("bad.json", [])], 2),
            "argparse": (["weyr"], SystemExit),
            "uncaught": (["weyr", "--matrix", files["six"]], RuntimeError),
        }[path]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("path", ["success", "numerical", "invalid", "argparse", "uncaught"])
    def test_caller_state_restored(self, capsys, files, monkeypatch, enabled, path):
        argv, outcome = self._exit_path(files, monkeypatch, path)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if isinstance(outcome, int):
                assert main(argv) == outcome
            else:
                with pytest.raises(outcome):
                    main(argv)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    @pytest.mark.parametrize("argv_key", EVERY_COMMAND, ids=" ".join)
    def test_warm_call_leaves_no_cyclic_garbage(self, capsys, files, argv_key):
        argv = [files[token] if token in files else token for token in argv_key]
        assert main(argv) == 0  # warm: imports done, parser built
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
        capsys.readouterr()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_key",
        [
            ("detect", "--matrix", "six"),
            ("spectrum", "--matrix", "six", "--partition", "six_part"),
            ("zero-chains", "--matrix", "twelve", "--partition", "twelve_part"),
            ("weyr", "--matrix", "twelve"),
        ],
    )
    def test_byte_stable_across_runs(self, capsys, files, argv_key):
        argv = [files[token] if token in files else token for token in argv_key]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv_key, digest",
        [
            (("zero-chains", "--matrix", "twelve", "--partition", "twelve_part"),
             "86d2624f8d867b37fe6dbe986fb6d784cf22fb5e1262db0d4f91a41592f3c434"),
            (("weyr", "--matrix", "twelve"),
             "7f240d546c74261c0c0e0cd889cb1c74506384e3d45aedcd7ed043c70b1a0bbf"),
            (("power", "--matrix", "twelve", "--partition", "twelve_part"),
             "fc883cc960ff35db9c970790af38886c403c0977b49a339f3aa3b8f8771234c4"),
            (("blocks", "--matrix", "twelve", "--partition", "twelve_part"),
             "04e1d2637eeac4d1b8550ce5f431be9a59fb0516c19ff6aa382245397a808e6d"),
            (("circulant", "--from-reference", "ref"),
             "cbe3a49154047046476b50f64fcae3f73ebca43a9ab1a94bf8ff556db2812810"),
            (("circulant", "--ck", "5", "2"),
             "703696d251798f98db0c80a4a8099b651ff9eda81d7155f5567a9ee0f508e75a"),
            (("rotate-chain", "--chain", "six_chain", "--partition", "six_part",
              "--k", "1", "--matrix", "six"),
             "8c0231fe47e7da300df4f583a87b6be613fca262871d32eb4e39c49cdbb32a31"),
            (("reconstruct", "--orbits", "orbits", "--partition", "bip_part"),
             "5f63649ff3b1265740fc87460c0a88148363493692e785a8207bc3e8f628fc5d"),
            (("circulant", "--basic", "7"),
             "25cc0627ff9ac5010b8732a0537d0e205c091f79ddc3830d8bbe91c3e86ba556"),
            (("circulant", "--w", "5", "2", "3", "1"),
             "703696d251798f98db0c80a4a8099b651ff9eda81d7155f5567a9ee0f508e75a"),
            (("circulant", "--w", "5", "2", "3", "2"),
             "703696d251798f98db0c80a4a8099b651ff9eda81d7155f5567a9ee0f508e75a"),
        ],
    )
    def test_golden_digest(self, capsys, files, argv_key, digest):
        # Digests of stdout recorded from the row-by-row elimination and the
        # per-float renderer (the circulant ones from the renderer of full
        # pair lists).  The zero-chains output holds 26 zeros rendered as
        # -0, which depend on exactly which rows each pivot step updates.
        # --w renders the same text as --ck: both build C_k.
        argv = [files[token] if token in files else token for token in argv_key]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_float_rendering(self):
        assert render_json({"x": 0.1 + 0.2}) == '{"x": 0.3}'
        assert render_json([1, True, None, "a"]) == '[1, true, null, "a"]'
        assert render_json(2 ** 0.5) == "1.41421356237"
        assert render_json([[0.5, -0.0], [1e-300, 2.0]]) == "[[0.5, -0], [1e-300, 2]]"
        assert render_json([0.1, 0.2]) == "[0.1, 0.2]"
        for bad in ([1.0, float("nan")], [[1.0, 0.0], [float("-inf"), 0.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                render_json(bad)
        signed = np.array([-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1e-300 + 2j])
        assert render_json(signed) == "[[-0, 0], [0, -0], [-0, -0], [1e-300, 2]]"
        assert render_json(signed.reshape(2, 2).T) == "[[-0, 0], [-0, -0], [0, -0], [1e-300, 2]]"
        assert render_json(np.zeros(0, dtype=complex)) == "[]"


# Floats at the edges of what "%.12g" prints: signed zero, the smallest
# subnormal and magnitudes near the exponent limits.
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
)
# Values other than finite Python floats, some of them unrenderable.
intruders = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False, None, "x"]),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    finite_floats.map(np.float64),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62).map(np.int64),
)
float_lists = st.lists(finite_floats, max_size=8)
pair_lists = st.integers(min_value=0, max_value=3).flatmap(
    lambda width: st.lists(
        st.lists(finite_floats, min_size=width, max_size=width), min_size=1, max_size=6
    )
)


@st.composite
def complex_arrays(draw):
    """Complex arrays of shape (k,) or (r, c) with parts from finite_floats,
    some of them strided slices or transposes of a larger array."""
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 8)), st.tuples(st.integers(1, 4), st.integers(1, 4))
    ))
    step = draw(st.integers(1, 2))
    full_shape = tuple(step * d for d in shape)
    size = int(np.prod(full_shape))
    parts = draw(st.lists(finite_floats, min_size=2 * size, max_size=2 * size))
    full = np.array(parts, dtype=np.float64).view(complex).reshape(full_shape)
    arr = full[(slice(None, None, step),) * len(shape)]
    return arr.T if draw(st.booleans()) else arr


@st.composite
def spoiled_lists(draw):
    """A float or pair list with one entry replaced by an intruder or, for
    pair lists, one row made ragged or turned into a tuple."""
    rows = draw(pair_lists)
    if draw(st.booleans()):
        items = draw(float_lists.filter(bool))
        items[draw(st.integers(0, len(items) - 1))] = draw(intruders)
        return items
    r = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["intruder", "ragged", "tuple"]))
    if how == "tuple":
        rows[r] = tuple(rows[r])
    elif how == "ragged":
        rows[r] = rows[r] + [draw(finite_floats)]
    elif rows[r]:
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(intruders)
    else:
        rows[r] = [draw(intruders)]
    return rows


render_values = st.recursive(
    st.one_of(finite_floats, intruders, float_lists, pair_lists, spoiled_lists(),
              complex_arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=12,
)


def _arrays_as_pairs(value):
    # ``value`` with each ndarray replaced by its _pairs_to_json list.
    if isinstance(value, np.ndarray):
        return _pairs_to_json(value)
    if isinstance(value, dict):
        return {key: _arrays_as_pairs(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_arrays_as_pairs(item) for item in value)
    return value


class TestRendererOracle:
    @settings(max_examples=400)
    @given(value=render_values)
    def test_matches_float_by_float_renderer(self, value):
        try:
            expected = helpers.loop_render_json(_arrays_as_pairs(value))
        except ValueError:
            with pytest.raises(ValueError):
                render_json(value)
            return
        assert render_json(value) == expected

    @settings(max_examples=300)
    @given(arr=complex_arrays())
    def test_array_matches_its_pair_list(self, arr):
        assert render_json(arr) == helpers.loop_render_json(_pairs_to_json(arr))

    @given(arr=complex_arrays().filter(lambda a: a.size > 0), data=st.data())
    def test_non_finite_array_part_raises(self, arr, data):
        bad = arr.copy()
        index = data.draw(st.integers(0, bad.size - 1))
        value = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        if data.draw(st.booleans()):
            bad.reshape(-1)[index] = complex(value, bad.reshape(-1)[index].imag)
        else:
            bad.reshape(-1)[index] = complex(bad.reshape(-1)[index].real, value)
        with pytest.raises(ValueError) as oracle:
            helpers.loop_render_json(_pairs_to_json(bad))
        with pytest.raises(ValueError) as got:
            render_json(bad)
        assert str(got.value) == str(oracle.value) == "cannot render non-finite float"


@st.composite
def circulant_commands(draw):
    """argv tail of one ``circulant`` variant of order n in 1..40, with the
    library matrix it must print; --from-reference takes its reference
    from finite_floats, so also from the edge floats."""
    n = draw(st.integers(1, 40))
    variant = draw(st.sampled_from(["--from-reference", "--basic", "--ck", "--w"]))
    if variant == "--from-reference":
        parts = draw(st.lists(finite_floats, min_size=2 * n, max_size=2 * n))
        ref = np.array(parts, dtype=np.float64).view(complex)
        return ["--from-reference", matrix_to_json(ref[None, :])], circulant_from_reference(ref)
    if variant == "--basic":
        n = max(n, 2)
        return ["--basic", str(n)], basic_circulant(n)
    k = draw(st.integers(0, 2 * n))
    if variant == "--ck":
        return ["--ck", str(n), str(k)], c_k_matrix(n, k)
    ell, kind = draw(st.integers(1, n + 2)), draw(st.sampled_from([1, 2]))
    return ["--w", str(n), str(k), str(ell), str(kind)], w_matrix(n, k, ell, kind)


class TestCirculantRendering:
    @settings(max_examples=100)
    @given(command=circulant_commands())
    def test_matches_full_pair_list(self, tmp_path_factory, command):
        # The circulant is rendered from its first row; the text must be
        # that of its whole matrix rendered float by float.
        argv, matrix = command
        if argv[0] == "--from-reference":
            path = tmp_path_factory.mktemp("ref") / "ref.json"
            path.write_text(json.dumps(argv[1]))
            argv = ["--from-reference", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["circulant", *argv]) == 0
        expected = helpers.loop_render_json({"matrix": matrix_to_json(matrix)})
        assert out.getvalue() == expected + "\n"


def _subparsers():
    (subparsers,) = [action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


class TestCoverage:
    def test_every_operation_reachable(self, capsys, files):
        # Runs every subcommand and records the hcyclic functions it enters.
        package = str(Path(hcyclic.__file__).parent) + "/"
        reached = set()

        def record(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                reached.add(frame.f_code.co_name)

        for argv_key in EVERY_COMMAND:
            argv = [files[token] if token in files else token for token in argv_key]
            sys.setprofile(record)
            try:
                code = main(argv)
            finally:
                sys.setprofile(None)
            assert code == 0, argv_key
        capsys.readouterr()
        # zero-chains grows its chains with the worker of
        # zero_chain_from_null_vector on the kernel vectors it computes; the
        # public function only adds checks of a seed its caller supplies.
        if "_zero_chain" in reached:
            reached.add("zero_chain_from_null_vector")
        missing = [op for op in REQUIRED_OPERATIONS if op not in reached]
        assert not missing, f"operations no subcommand reaches: {missing}"

    def test_declared_operations_exist(self):
        # The names the reachability check looks for are public functions.
        for name in REQUIRED_OPERATIONS:
            assert callable(getattr(hcyclic, name, None)), name

    def test_every_subcommand_has_handler(self):
        # Each subcommand binds a handler, and EVERY_COMMAND (run above)
        # calls exactly the parser's subcommands.
        choices = _subparsers()
        for name, parser in choices.items():
            assert callable(parser.get_default("handler")), name
        assert {argv_key[0] for argv_key in EVERY_COMMAND} == set(choices)


def test_module_entry_point(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(matrix_to_json(helpers.six_matrix())))
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "hcyclic.cli", "weyr", "--matrix", str(matrix)],
        capture_output=True,
        text=True,
        cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"weyr": [2, 1]}'
