import numpy as np
import pytest

from cetsim.errors import PauliParseError
from cetsim.pauli import PauliString

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(letters):
    out = np.array([[1.0 + 0j]])
    for letter in letters:
        out = np.kron(out, MATS[letter])
    return out


@pytest.mark.parametrize(
    "text,expected",
    [
        ("ZIZ", ("Z", "I", "Z")),
        ("xyz", ("X", "Y", "Z")),
        ("III", ("I", "I", "I")),
        ("Z1Z3", ("Z", "I", "Z")),
        ("X2", ("I", "X")),
        ("Y3", ("I", "I", "Y")),
        ("Z3Z1", ("Z", "I", "Z")),
    ],
)
def test_parse_forms(text, expected):
    assert PauliString.parse(text).letters == expected


def test_parse_pads_to_num_qubits():
    assert PauliString.parse("X1", 3).letters == ("X", "I", "I")
    assert PauliString.parse("ZIZ", 3).letters == ("Z", "I", "Z")


@pytest.mark.parametrize(
    "text", ["", "Q1", "Z0", "Z1Z1", "Z1Q2", "1Z", "Z1.5", "ZIZQ"]
)
def test_parse_rejects_garbage(text):
    with pytest.raises(PauliParseError):
        PauliString.parse(text)


def test_parse_width_mismatch():
    with pytest.raises(PauliParseError):
        PauliString.parse("ZIZ", 4)
    with pytest.raises(PauliParseError):
        PauliString.parse("Z4", 3)


def test_labels():
    assert PauliString.parse("ZIZ").label() == "Z1Z3"
    assert PauliString.parse("Z1Z2Z3").label() == "Z1Z2Z3"
    assert PauliString.identity(3).label() == "I"
    assert PauliString.parse("Y2", 3).label() == "Y2"


def test_label_parse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(30):
        letters = tuple(rng.choice(list("IXYZ"), size=3))
        s = PauliString(letters)
        if s.label() == "I":
            continue
        assert PauliString.parse(s.label(), 3) == s


def test_is_diagonal():
    assert PauliString.parse("Z1Z3", 3).is_diagonal
    assert PauliString.identity(3).is_diagonal
    assert not PauliString.parse("X1", 3).is_diagonal


def test_apply_matches_dense_kron_two_qubits():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    for a in "IXYZ":
        for b in "IXYZ":
            s = PauliString((a, b))
            np.testing.assert_allclose(
                s.apply(psi), dense((a, b)) @ psi, atol=1e-14
            )


def test_apply_matches_dense_kron_random_three_qubit():
    rng = np.random.default_rng(12)
    for _ in range(25):
        letters = tuple(rng.choice(list("IXYZ"), size=3))
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        np.testing.assert_allclose(
            PauliString(letters).apply(psi), dense(letters) @ psi, atol=1e-14
        )


def test_apply_does_not_mutate_input():
    psi = np.ones(4, dtype=complex)
    PauliString(("X", "Z")).apply(psi)
    np.testing.assert_array_equal(psi, np.ones(4, dtype=complex))


def test_apply_shape_check():
    with pytest.raises(PauliParseError):
        PauliString(("Z", "Z")).apply(np.ones(3, dtype=complex))
