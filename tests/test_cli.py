import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcyclic
from hcyclic import (
    JordanChain,
    assemble_blocks,
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
from hcyclic.matrix_core import _matrix_from_text, _pairs_to_json

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
    return write_inputs(tmp_path)


@pytest.fixture(scope="module")
def module_files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


def write_inputs(folder):
    """The small input files, by name, and ``write`` to add one."""
    def write(name, payload):
        path = folder / name
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

    def test_spectrum_and_check_agree_at_tol_zero(self, capsys, files):
        # Class 1 is the larger: its B_1 of rank 2 reads float rank 3 at
        # tol 0, so the count comes from B_2 of the smaller class 2.
        a = assemble_blocks([[[0.7, 0.8], [0.9, 1.0], [1.1, 1.2]],
                             [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]])
        args = ["--matrix", files["write"]("a.json", matrix_to_json(a)), "--partition",
                files["write"]("p.json", {"h": 2, "classes": [[1, 2, 3], [4, 5]]}), "--tol", "0"]
        code, out, err = run_cli(capsys, ["spectrum"] + args)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["zero_count"] == 1 and len(doc["orbits"]) == 2
        code, out, err = run_cli(capsys, ["check"] + args)
        assert (code, err) == (0, "")
        assert json.loads(out)["singular_blocks"] == [1]

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

        # Exactly one mode: argparse refuses two, or none, with exit 2.
        for modes, message in [
            (["--basic", "3", "--ck", "2", "1"], "argument --ck: not allowed with argument --basic"),
            ([], "one of the arguments --recognize --from-reference --basic --ck --w is required"),
        ]:
            with pytest.raises(SystemExit) as exit_info:
                main(["circulant", *modes])
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err

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


    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reconstruct_round_trip(self, tmp_path_factory, seed):
        # A random nonsingular 3-cyclic matrix, rebuilt through the CLI from
        # one base eigenvector pair per root-of-unity orbit.
        a, part = helpers.random_block_cycle(
            np.random.default_rng(seed), h=3, nonsingular=True, max_size=3
        )
        rights, lefts = helpers.eigen_orbit_chains(a, part.h)
        orbits = [
            {"eigenvalue": [right.eigenvalue.real, right.eigenvalue.imag], "length": 1,
             "right": chain_to_json(right), "left": chain_to_json(left)}
            for right, left in zip(rights, lefts)
        ]
        folder = tmp_path_factory.mktemp("reconstruct")
        (folder / "orbits.json").write_text(json.dumps({"orbits": orbits}))
        (folder / "part.json").write_text(json.dumps(partition_to_json(part)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["reconstruct", "--orbits", str(folder / "orbits.json"),
                         "--partition", str(folder / "part.json")]) == 0
        rebuilt = matrix_from_json(json.loads(out.getvalue())["matrix"])
        assert np.max(np.abs(rebuilt - a)) <= 1e-6


class TestExitCodes:
    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(capsys, ["detect", "--matrix", str(bad)])
        assert code == 2
        assert out == "" and err

    @pytest.mark.parametrize("flag", ["--matrix", "--partition"])
    def test_malformed_json_names_its_file(self, capsys, files, tmp_path, flag):
        # A command that reads two files says which of them is bad.
        bad = tmp_path / "bad.json"
        bad.write_text('{"h": 2 "classes": []}')
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(bad.read_text())
        argv = (["detect", "--matrix", str(bad)] if flag == "--matrix"
                else ["spectrum", "--matrix", files["six"], "--partition", str(bad)])
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: {exc.value}\n"

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

    def test_nan_pivot_is_numerical_failure(self, capsys, files):
        # Rank 2; at tol 0 a NaN left by the overflowed elimination was
        # counted as a third pivot and the weights printed as [].
        a = np.array([[1, 1e308, 1e308], [1, -1e308, -1e308], [0, 1, 1]])
        argv = ["weyr", "--tol", "0", "--matrix", files["write"]("nan.json", matrix_to_json(a))]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "error:" in err and "overflowed" in err and "Traceback" not in err

    def test_oversized_header_allocates_nothing(self, capsys, tmp_path):
        # The header claims 10^9 entries: the text is measured before a
        # skeleton of that many entries is built, so nothing of that size
        # is allocated on the way to today's message.
        small = tmp_path / "claims.json"
        small.write_text('{"rows": 1000000000, "cols": 1, "data": []}')
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["weyr", "--matrix", str(small)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", "error: matrix data must hold 1000000000 [re, im] pairs\n")
        assert peak < 10**6

    @pytest.mark.parametrize("text", [
        '{"rows": 1, "cols": 1, "data": [[1, 2]]}7',
        '{"rows": 1, "cols": 1, "data": [[1, 2]e5]}',
        '{"rows": 1, "cols": 1, "data": [5[1, 2]]}',
        '{"rows": 1, "cols": 2, "data": [[1, 2]5, [3, 4]]}',
    ])
    def test_number_outside_pairs_is_rejected(self, capsys, tmp_path, text):
        # A number character outside the pairs must not be glued onto a
        # neighbouring number; the file is invalid JSON, as json.loads says.
        path = tmp_path / "glued.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        code, out, err = run_cli(capsys, ["weyr", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {exc.value}\n"

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

    def test_reconstruct_overflow_is_numerical_failure(self, capsys, files):
        # Biorthonormal chains whose outer products leave the float range.
        code, out, err = run_cli(
            capsys, self._reconstruct_argv(files, (1e200, 0.5e-200), (0.5e-200, 1e200))
        )
        assert code == 1 and out == ""
        assert "overflowed" in err and "Traceback" not in err

    def test_reconstruct_overflowing_gram_is_not_biorthonormal(self, capsys, files):
        code, out, err = run_cli(
            capsys, self._reconstruct_argv(files, (1e200, 1e200), (1e200, 1e200))
        )
        assert code == 2 and out == ""
        assert "not biorthonormal" in err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("rotate-chain", {"eigenvalue": [1.0, 0.0], "orientation": "right",
                              "vectors": [[[1.0, 0.0], [1.5e308, 1.5e308], [0.0, 1.0]]]}),
            ("rotate-chain", {"eigenvalue": [1.5e308, 1.5e308], "orientation": "right",
                              "vectors": [[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]}),
        ],
        ids=["rotated-vector", "rotated-eigenvalue"],
    )
    def test_overflowing_rotation_is_numerical_failure(self, capsys, files, command, payload):
        part = files["write"]("three.json", {"h": 3, "classes": [[1], [2], [3]]})
        data = files["write"]("rotated.json", payload)
        argv = [command, "--chain", data, "--partition", part, "--k", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "error:" in err and "overflowed" in err and "Traceback" not in err

    def test_reconstruct_rebuilds_where_a_rotated_copy_would_overflow(self, capsys, files):
        # y_c x_c = 1/3 on every class c, and w = exp(2 pi i/3) would take
        # 1.5e308 (1 + i) out of the float range; only the base chains are
        # multiplied, so the matrix is rebuilt.
        part = files["write"]("three.json", {"h": 3, "classes": [[1], [2], [3]]})
        orbits = files["write"]("rotated.json", {"orbits": [{
            "eigenvalue": [1.0, 0.0], "length": 1,
            "right": {"eigenvalue": [1.0, 0.0], "orientation": "right",
                      "vectors": [[[1.0, 0.0], [1.5e308, 1.5e308], [1.0, 0.0]]]},
            "left": {"eigenvalue": [1.0, 0.0], "orientation": "left",
                     "vectors": [[[1 / 3, 0.0], [1e-308 / 9, -1e-308 / 9], [1 / 3, 0.0]]]},
        }]})
        code, out, err = run_cli(capsys, ["reconstruct", "--orbits", orbits, "--partition", part])
        assert code == 0 and err == ""
        a = matrix_from_json(json.loads(out)["matrix"])
        assert abs(a[0, 1] * a[1, 2] * a[2, 0] - 1) <= 1e-12

    def test_reconstruct_overflowed_gram_scale_is_numerical_failure(self, capsys, files):
        # The class-2 product is 1.5 + 1.5i where 1/2 is needed, and the
        # modulus of 1.5e308 (1 + i) overflows, so the residual has no
        # threshold to be judged against.
        argv = self._reconstruct_argv(files, (1, 1.5e308 + 1.5e308j), (0.5, 1e-308))
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

    @pytest.mark.parametrize(
        "entry, message",
        [
            ([1, 0], "orbit 2 must be an object"),
            ({"length": 1, "right": {}, "left": {}}, "orbit 2 has no 'eigenvalue'"),
            ({"eigenvalue": [1, 0], "right": {}, "left": {}}, "orbit 2 has no 'length'"),
            ({"eigenvalue": [1, 0], "length": 1, "left": {}}, "orbit 2 has no 'right'"),
            ({"eigenvalue": [1, 0], "length": 1, "right": {}}, "orbit 2 has no 'left'"),
        ],
        ids=["list", "no-eigenvalue", "no-length", "no-right", "no-left"],
    )
    def test_malformed_orbit_entry_is_named(self, capsys, files, entry, message):
        good = json.loads(Path(files["orbits"]).read_text())["orbits"][0]
        orbits = files["write"]("entries.json", {"orbits": [good, entry]})
        argv = ["reconstruct", "--orbits", orbits, "--partition", files["bip_part"]]
        assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_malformed_chain_names_its_orbit_and_side(self, capsys, files, side):
        good = json.loads(Path(files["orbits"]).read_text())["orbits"][0]
        orbits = files["write"]("chains.json", {"orbits": [good, {**good, side: {}}]})
        argv = ["reconstruct", "--orbits", orbits, "--partition", files["bip_part"]]
        message = f"error: orbit 2 {side}: malformed chain JSON: missing 'eigenvalue'\n"
        assert run_cli(capsys, argv) == (2, "", message)

    @pytest.mark.parametrize(
        "field, value",
        [("eigenvalue", [5.0, 0.0]), ("eigenvalue", [0.0, 1e-300]), ("length", 1), ("length", 3)],
        ids=["eigenvalue", "eigenvalue-tiny", "length-short", "length-long"],
    )
    def test_orbit_must_agree_with_its_right_chain(self, capsys, files, field, value):
        # The entry's eigenvalue and length are those of its right chain.
        doc = json.loads(Path(files["orbits"]).read_text())
        doc["orbits"][0][field] = value
        orbits = files["write"]("disagree.json", doc)
        argv = ["reconstruct", "--orbits", orbits, "--partition", files["bip_part"]]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "orbit 1: eigenvalue or length differs from its right chain" in err

    def test_left_chain_at_another_eigenvalue_is_validation_error(self, capsys, files):
        # An entry that agrees with its right chain, beside a left chain
        # at another eigenvalue, builds nothing.
        part = files["write"]("pair.json", {"h": 2, "classes": [[1], [2]]})
        def chain(orientation, eigenvalue, entry):
            return {"eigenvalue": [eigenvalue, 0.0], "orientation": orientation,
                    "vectors": [[[entry, 0.0], [entry, 0.0]]]}

        # Rotated, (1, 1) and (0.5, 0.5) give a Gram matrix of exactly I.
        orbits = files["write"]("apart.json", {"orbits": [{
            "eigenvalue": [1.0, 0.0], "length": 1,
            "right": chain("right", 1.0, 1.0), "left": chain("left", -7.0, 0.5),
        }]})
        code, out, err = run_cli(capsys, ["reconstruct", "--orbits", orbits, "--partition", part])
        assert (code, out) == (2, "")
        assert "does not match its right chain" in err

    @staticmethod
    def _reconstruct_argv(files, right, left):
        def chain(orientation, entries):
            return {
                "eigenvalue": [1.0, 0.0],
                "orientation": orientation,
                "vectors": [[[z.real, z.imag] for z in map(complex, entries)]],
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


# Random JSON documents, with the keys of the input layouts among others.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.sampled_from([2**63, 10**400])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["rows", "cols", "data", "h", "classes", "eigenvalue", "orientation",
                         "vectors", "orbits", "length", "right", "left"]) | st.text(max_size=3),
        inner, max_size=4,
    ),
    max_leaves=10,
)


def spoil(data, doc):
    """``doc`` with one node, found by walking down from the root, replaced
    by a random JSON value."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        spoiled = dict(doc) if isinstance(doc, dict) else list(doc)
        spoiled[key] = spoil(data, doc[key])
        return spoiled
    return data.draw(json_values)


class TestAnyJsonInput:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_exits_with_at_most_one_error_line(self, module_files, data):
        # One input file of one subcommand (matrix, partition, chain,
        # orbits or reference) holds random JSON, or its valid document
        # with one node replaced; main returns an exit code and never
        # raises.
        command = data.draw(st.sampled_from(
            [c for c in EVERY_COMMAND if any(arg in module_files for arg in c)]
        ))
        slot = data.draw(st.sampled_from(
            [i for i, arg in enumerate(command) if arg in module_files]
        ))
        doc = json.loads(Path(module_files[command[slot]]).read_text())
        argv = [module_files.get(arg, arg) for arg in command]
        argv[slot] = module_files["write"]("fuzzed.json", spoil(data, doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert code in (1, 2) and out.getvalue() == ""
            assert len(lines) == 1 and lines[0].startswith("error: ")


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


# What a mutation may put in place of one number of a matrix text.
NUMBER_SWAPS = ["true", "false", "null", '"1"', "NaN", "Infinity", "-Infinity", "+1", "01",
                "1.", ".5", "1e400", "-1E400", str(10 ** 400), "-0", "-0.0", "1E5", "1e-400",
                "[1]", "{}", "1 2", "1-2", "e", ""]
# Number characters a mutation may put outside the pairs.
STRAY_CHARACTERS = list("0123456789.eE+-")
# Mutations that keep the canonical layout, which the text decoder must take.
CANONICAL_MUTATIONS = ("none", "trailing-newline", "pair-spaces")
# Which pairs of a matrix text are planted as zero pairs.
ZERO_PLANTS = ("none", "first", "last", "all", "some")
# A planted zero pair: +0.0 twice, the one pair the text decoder skips
# (written ``[0.0, 0.0]`` by json.dumps, ``[0, 0]`` by render_json), a
# signed zero, or a zero part beside a number.
zero_pairs = st.one_of(
    st.just((0.0, 0.0)),
    st.sampled_from([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]),
    finite_floats.map(lambda x: (0.0, x)),
    finite_floats.map(lambda x: (x, 0.0)),
)


@st.composite
def matrix_texts(draw):
    """A matrix file as ``json.dumps(matrix_to_json(a))`` or ``render_json``
    writes it, with zero pairs planted in none, the first, the last, all or
    some of its entries and at most one mutation, and whether the text is
    still in the canonical layout."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    size = shape[0] * shape[1]
    parts = draw(st.lists(finite_floats, min_size=2 * size, max_size=2 * size))
    pairs = np.array(parts).reshape(size, 2)
    plant = draw(st.sampled_from(ZERO_PLANTS))
    if plant == "some":
        planted = draw(st.sets(st.integers(0, size - 1)))
    else:
        planted = {"none": [], "first": [0], "last": [size - 1], "all": range(size)}[plant]
    for k in planted:
        pairs[k] = draw(zero_pairs)
    a = pairs.view(complex).reshape(shape)
    rows, cols = shape
    text = draw(st.sampled_from([json.dumps(matrix_to_json(a)),
                                 render_json({"rows": rows, "cols": cols, "data": a})]))
    how = draw(st.sampled_from(CANONICAL_MUTATIONS + (
        "number", "stray", "stray-zero", "ragged-short", "ragged-long", "reordered", "extra-key",
        "duplicate-key", "bom", "compact", "newlines", "crlf", "spaced-head", "wrong-rows")))
    head, data = text.split('"data": ')
    if how == "trailing-newline":
        text += "\n"
    elif how == "pair-spaces":
        text = head + '"data": ' + data.replace("], [", "] ,\t[").replace("[[", "[ [")
    elif how == "number":
        numbers = [m.span() for m in re.finditer(r"-?[0-9][0-9.eE+-]*", data)]
        start, stop = numbers[draw(st.integers(0, len(numbers) - 1))]
        data = data[:start] + draw(st.sampled_from(NUMBER_SWAPS)) + data[stop:]
        text = head + '"data": ' + data
    elif how == "stray":
        # A number character beside a bracket, outside every pair: before
        # the first pair, before or after any pair, or after the closing brace.
        brackets = [m.end() for m in re.finditer(r"\[(?=\[)|\](?=,|\])", data)]
        brackets += [m.start() for m in re.finditer(r"(?<=, )\[", data)]
        at = draw(st.sampled_from(brackets + [len(data)]))
        data = data[:at] + draw(st.sampled_from(STRAY_CHARACTERS)) + data[at:]
        text = head + '"data": ' + data
    elif how == "stray-zero":
        # A pair other than the last made a zero pair with a number
        # character on each side of it; a 1x1 matrix gets one after its pair.
        end = len(data) - 2
        spans = [m.span() for m in re.finditer(r"\[[^\[\]]*\], ", data)] or [(end, end)]
        start, stop = draw(st.sampled_from(spans))
        before, after = draw(st.sampled_from(STRAY_CHARACTERS)), draw(st.sampled_from(STRAY_CHARACTERS))
        zero = "[0.0, 0.0], " if stop > start else ""
        data = data[:start] + before + zero + after + data[stop:]
        text = head + '"data": ' + data
    elif how == "ragged-short":
        text = head + '"data": ' + re.sub(r", [^\]]*\]", "]", data, count=1)
    elif how == "ragged-long":
        text = head + '"data": ' + data.replace("]", ", 0]", 1)
    elif how == "reordered":
        text = '{"cols": %d, "rows": %d, "data": %s' % (cols, rows, data)
    elif how == "extra-key":
        text = text[:-1] + ', "note": 1}'
    elif how == "duplicate-key":
        text = text[:-1] + ', "rows": %d}' % draw(st.sampled_from([rows, rows + 1]))
    elif how == "bom":
        text = "\ufeff" + text
    elif how == "compact":
        text = text.replace(", ", ",").replace(": ", ":")
    elif how == "newlines":
        text = text.replace(", ", ",\n ")
    elif how == "crlf":
        text = text.replace(", [", ",\r\n[") + "\r\n"
    elif how == "spaced-head":
        text = " " + text.replace('"rows": ', '"rows" : ')
    elif how == "wrong-rows":
        text = text.replace('"rows": %d' % rows, '"rows": %d' % (rows + 1), 1)
    return text, how in CANONICAL_MUTATIONS


class TestCanonicalMatrixText:
    @settings(max_examples=400)
    @given(case=matrix_texts())
    def test_matches_json_loads(self, tmp_path_factory, case):
        # The flat text decoder and its fallback against the decoding of
        # the parsed document: the same bytes, or the same ValueError.
        text, canonical = case
        path = tmp_path_factory.mktemp("matrix") / "m.json"
        path.write_bytes(text.encode())
        if canonical:
            assert _matrix_from_text(path.read_bytes()) is not None
        try:
            want = matrix_from_json(json.loads(path.read_text()))
        except ValueError as exc:
            # A parser error comes after the file's path.
            message = f"{path}: {exc}" if isinstance(exc, json.JSONDecodeError) else str(exc)
            with pytest.raises(ValueError) as got:
                cli._load_matrix(str(path))
            assert str(got.value) == message
        else:
            assert cli._load_matrix(str(path)).tobytes() == want.tobytes()


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


def run_module(args, **kwargs):
    # The CLI as a fresh interpreter runs it, with the default warning filters.
    repo = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "hcyclic.cli", *args],
        capture_output=True,
        text=True,
        cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        **kwargs,
    )


def test_module_entry_point(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(matrix_to_json(helpers.six_matrix())))
    proc = run_module(["weyr", "--matrix", str(matrix)])
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"weyr": [2, 1]}'


@pytest.mark.parametrize("indent", [None, 1], ids=["canonical", "indented"])
def test_matrix_read_from_a_pipe(indent):
    # A pipe can be read once: a document that is not in the canonical
    # layout is decoded from the bytes the text decoder was given.
    proc = run_module(["weyr", "--matrix", "/dev/stdin"],
                      input=json.dumps(matrix_to_json(helpers.six_matrix()), indent=indent))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"weyr": [2, 1]}\n', "")


def test_overflow_prints_only_its_error_line(tmp_path):
    # numpy's overflow and invalid-value warnings, with their source lines,
    # used to come ahead of the error line.
    matrix = tmp_path / "nan.json"
    a = np.array([[1, 1e308, 1e308], [1, -1e308, -1e308], [0, 1, 1]])
    matrix.write_text(json.dumps(matrix_to_json(a)))
    proc = run_module(["weyr", "--tol", "0", "--matrix", str(matrix)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: the row reduction overflowed the floating-point range\n"
