"""Pauli-string labels and their action on amplitude vectors.

Strings are accepted in two spellings: a bare letter per site ("ZIZ") or
site-indexed factors with 1-based positions ("Z1Z3", "X2").  Labels are
rendered back in the indexed form, which is also the form used by the
measurement tables elsewhere in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import PauliParseError

_LETTERS = "IXYZ"
_TOKEN = re.compile(r"([XYZ])(\d+)")


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-site Pauli operators."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise PauliParseError("empty Pauli string")
        for letter in self.letters:
            if letter not in _LETTERS:
                raise PauliParseError(f"invalid Pauli letter {letter!r}")

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(("I",) * num_qubits)

    @classmethod
    def parse(cls, text: str, num_qubits: int | None = None) -> "PauliString":
        """Parse either spelling; num_qubits pads/validates the indexed form."""
        cleaned = text.strip().upper()
        if not cleaned:
            raise PauliParseError("empty Pauli string")
        if not any(ch.isdigit() for ch in cleaned):
            if any(ch not in _LETTERS for ch in cleaned):
                raise PauliParseError(f"invalid Pauli string {text!r}")
            if num_qubits is not None and len(cleaned) != num_qubits:
                raise PauliParseError(
                    f"string {text!r} has {len(cleaned)} sites, expected {num_qubits}"
                )
            return cls(tuple(cleaned))
        pos = 0
        factors: dict[int, str] = {}
        for match in _TOKEN.finditer(cleaned):
            if match.start() != pos:
                raise PauliParseError(f"invalid Pauli string {text!r}")
            pos = match.end()
            site = int(match.group(2)) - 1
            if site < 0:
                raise PauliParseError(f"site indices are 1-based in {text!r}")
            if site in factors:
                raise PauliParseError(f"repeated site {site + 1} in {text!r}")
            factors[site] = match.group(1)
        if pos != len(cleaned):
            raise PauliParseError(f"invalid Pauli string {text!r}")
        width = num_qubits if num_qubits is not None else max(factors) + 1
        if max(factors) >= width:
            raise PauliParseError(
                f"string {text!r} touches site {max(factors) + 1}, model has {width}"
            )
        return cls(tuple(factors.get(i, "I") for i in range(width)))

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_diagonal(self) -> bool:
        return all(letter in "IZ" for letter in self.letters)

    def label(self) -> str:
        """Indexed-form label, e.g. "Z1Z3"; the identity renders as "I"."""
        parts = [
            f"{letter}{site + 1}"
            for site, letter in enumerate(self.letters)
            if letter != "I"
        ]
        return "".join(parts) if parts else "I"

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Return P |psi> for an amplitude vector of length 2**num_qubits.

        Site 0 is the most significant bit of the vector index.  X and Y flip
        their sites' bits, Y and Z sign them through `model.z_signs`, so
        (P psi)[j] = (-i)**#Y * z(j) * psi[j ^ flip].
        """
        n = self.num_qubits
        if amplitudes.shape != (2**n,):
            raise PauliParseError(
                f"amplitude vector has shape {amplitudes.shape}, expected ({2**n},)"
            )
        flip = sum(1 << (n - 1 - i) for i, c in enumerate(self.letters) if c in "XY")
        signed = [i for i, c in enumerate(self.letters) if c in "YZ"]
        phase = (-1j) ** self.letters.count("Y")
        return phase * model.z_signs(n, signed) * amplitudes[np.arange(2**n) ^ flip]
