"""The tolerance contract: ``tol`` must be finite and >= 0 in every public
function that takes it (ValueError, CLI exit 2), tol = 0 stays valid, and
a threshold scale that saturates at inf never turns tol = 0 into NaN."""

import inspect
import json

import numpy as np
import pytest

import hcyclic
from hcyclic import (
    CyclicPartition,
    JordanChain,
    block_diagonal_power,
    digraph_of,
    extract_blocks,
    is_h_cyclic,
    matrix_rank,
    matrix_to_json,
    mirsky_spectrum,
    nonsingular_structure_check,
    null_space,
    partial_product,
    partition_to_json,
    reconstruct_from_chains,
    recognize_circulant,
    verify_chain,
    weyr_zero,
    zero_chain_from_null_vector,
    zero_chains_all,
)
from hcyclic.cli import main

import helpers

SIX = helpers.six_matrix()
SIX_PART = helpers.SIX_PARTITION
SIX_CHAIN = JordanChain(
    0j, "right", (np.array([0, 1, -1, 0, 0, 0]), np.array([0, 0, 0, 0, 1, -1]))
)
SIX_SEED = null_space(partial_product(extract_blocks(SIX, SIX_PART), 2, SIX_PART.h))[1][0]

# S J S^-1 for one Jordan block of order 2 at 0, h = 1: exact throughout.
S = np.array([[1, 1], [0, 1]], dtype=complex)
SINV = np.array([[1, -1], [0, 1]], dtype=complex)

# One valid call per public function that takes ``tol``.
CALLS = {
    "matrix_rank": lambda tol: matrix_rank(np.zeros((3, 3)), tol),
    "null_space": lambda tol: null_space(np.zeros((3, 3)), tol),
    "digraph_of": lambda tol: digraph_of(SIX, tol),
    "is_h_cyclic": lambda tol: is_h_cyclic(SIX, SIX_PART, tol),
    "recognize_circulant": lambda tol: recognize_circulant(np.eye(3), tol),
    "extract_blocks": lambda tol: extract_blocks(SIX, SIX_PART, tol),
    "block_diagonal_power": lambda tol: block_diagonal_power(SIX, SIX_PART, tol),
    "mirsky_spectrum": lambda tol: mirsky_spectrum(SIX, SIX_PART, tol),
    "nonsingular_structure_check": lambda tol: nonsingular_structure_check(SIX, SIX_PART, tol),
    "verify_chain": lambda tol: verify_chain(SIX, SIX_CHAIN, tol),
    "zero_chain_from_null_vector": lambda tol: zero_chain_from_null_vector(
        SIX, SIX_PART, 2, SIX_SEED, tol
    ),
    "zero_chains_all": lambda tol: zero_chains_all(SIX, SIX_PART, tol),
    "weyr_zero": lambda tol: weyr_zero(SIX, tol),
    "reconstruct_from_chains": lambda tol: reconstruct_from_chains(
        [JordanChain(0j, "right", (S[:, 0], S[:, 1]))],
        [JordanChain(0j, "left", (SINV[0], SINV[1]))],
        CyclicPartition(1, ((1, 2),)),
        tol,
    ),
}

BAD_TOLS = [float("nan"), float("inf"), -1e-9]


def test_every_public_function_with_tol_is_covered():
    with_tol = {
        name
        for name in hcyclic.__all__
        if inspect.isfunction(getattr(hcyclic, name))
        and "tol" in inspect.signature(getattr(hcyclic, name)).parameters
    }
    assert with_tol == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("tol", BAD_TOLS, ids=["nan", "inf", "negative"])
def test_bad_tol_raises_value_error(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        CALLS[name](tol)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_zero_tol_is_valid(name):
    CALLS[name](0.0)


def test_zero_tol_exact_answers():
    assert weyr_zero(np.zeros((3, 3)), 0.0).weights == (3,)
    assert matrix_rank(np.zeros((3, 3)), 0.0) == 0
    assert verify_chain(SIX, SIX_CHAIN, 0.0)


# [[0, 1e200], [0, 0]] with classes {1}, {2}: e_2 dies at A^2, where the
# power scale 1e200^2 saturates at inf.
SATURATED = np.array([[0, 1e200], [0, 0]], dtype=complex)
SATURATED_PART = CyclicPartition(2, ((1,), (2,)))


def test_zero_tol_with_saturated_power_scale():
    summary = zero_chains_all(SATURATED, SATURATED_PART, 0.0)
    assert summary.weyr.weights == (1, 1)
    assert summary.zero_block_sizes == (2,)
    assert summary.lengths_by_class() == {1: [1], 2: [2]}
    assert zero_chain_from_null_vector(SATURATED, SATURATED_PART, 2, [1.0], 0.0).length == 2


@pytest.fixture
def write(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_bad_tol_exits_2(capsys, write, tol):
    dense = write("dense.json", matrix_to_json(np.array([[1, 2], [3, 4]])))
    zeros = write("zeros.json", matrix_to_json(np.zeros((3, 3))))
    part = write("part.json", partition_to_json(SATURATED_PART))
    for argv in (
        ["circulant", "--recognize", dense],
        ["spectrum", "--matrix", dense, "--partition", part],
        ["weyr", "--matrix", zeros],
    ):
        assert run_cli(capsys, argv + ["--tol", tol]) == (2, ""), argv


def test_cli_zero_tol_is_valid(capsys, write):
    zeros = write("zeros.json", matrix_to_json(np.zeros((3, 3))))
    assert run_cli(capsys, ["weyr", "--matrix", zeros, "--tol", "0"]) == (0, '{"weyr": [3]}\n')


def test_cli_zero_tol_with_saturated_power_scale(capsys, write):
    matrix = write("a.json", matrix_to_json(SATURATED))
    part = write("part.json", partition_to_json(SATURATED_PART))
    code, out = run_cli(
        capsys, ["zero-chains", "--matrix", matrix, "--partition", part, "--tol", "0"]
    )
    assert code == 0
    result = json.loads(out)
    assert result["weyr"] == [1, 1]
    assert result["zero_block_sizes"] == [2]
