"""Byte-identity of the CLI's outputs.

Each command runs through `cli.main` in an empty directory with a relative
`--out-dir o`.  Its exit code, stdout, stderr and every file it leaves
(relative name and bytes) hash into one SHA-256 digest, compared with a
literal recorded before the change under test.
"""

import hashlib
from pathlib import Path

import pytest

from cetsim import cli

GRID = ("sweep --beta 0.5:11:23 --h -5:5:101 --format csv,json,svg --eta 0.7 "
        "--recover auto --parallel 2 --out-dir o")

#: command line -> digest
GOLDEN = {
    GRID:
        "489654e206ad9f98f9e4799b1ac6d524202c851fedeb2ad5fefc6fefcbcd18d3",
    "point --beta 0.3 --h 0.2 --shots 4096 --seed 5 --eta 0.9 --recover auto "
    "--format csv,json,svg --out-dir o":
        "379d517b132ea72a48dc9ae9ab3cef2c6d5d5562f8f2434b414e5b54bd6ee500",
    "point --beta 2 --h 0.5 --decay-profile default --t1 3 --recover auto "
    "--format csv,json,svg --out-dir o":
        "988149675d7249e861e6ae7479bd0fde7302d9ab57e9f44d26178562882adfab",
    "point --beta 11 --h 1":
        "8f6e776b3a4e4b10a88e752168c8d2c3fe319973bed8de2b2570c82b2355e946",
    "sweep --beta 1:3:3 --h -1:1:4 --decay-profile default --t1 3 --recover auto "
    "--format csv,json --out-dir o":
        "7bafd4dda682c89d72aebf22fd6fac7d602ba74053cd64f6c07cd3f869351e67",
    "noise-study --beta 11 --h 1 --eta 0.5":
        "a5e691231bd0c551e6d9b3681908b08a0b51ee4fa51ac02d81408fc3b6e5286c",
    "circuit --topology chain --n 7 --beta 2 --h 0.3 --probe":
        "fd7e1e2199fde2664afaed9233d5e8c10cbac572984ecf9d600723ebeefdbf69",
    # a cold chain on the h = 2J boundary: degenerate levels, exact angles
    "circuit --topology chain --n 6 --beta 1e16 --h 2":
        "f19e8e1bb915e8f5ba906b4d31c14721ceee18b88489129d6ddc9385d85fe018",
    # the triangle's angles at 17 digits, on the h = 2J phase boundary
    "circuit --beta 1e12 --h 0.6 --J 0.3":
        "1cbca8015d1aa5a72c811902d03d685a737a0467107b9c9016bc4182c13b94fc",
    # cold zero-field limit: S = ln 6
    "point --beta 1e16 --h 0 --J 1":
        "35bf7e18c728505eb2d719740ff488ec54e218ba9871f88a2d8d401953d308bf",
    # a bad --beta is reported before a bad noise option ...
    "point --beta -1 --h 0 --eta 2":
        "ae6181a43434669e333318bda950ee265811ca8750cac9b75bb8e0040fd450a4",
    # ... and before an unwritable --out-dir (F is a regular file): exit 2, not 4
    "point --beta -1 --h 0 --out-dir F/x":
        "ae6181a43434669e333318bda950ee265811ca8750cac9b75bb8e0040fd450a4",
}


def _field(digest, data: bytes) -> None:
    digest.update(len(data).to_bytes(8, "big"))
    digest.update(data)


def _digest(command: str, capsys) -> str:
    code = cli.main(command.split())
    captured = capsys.readouterr()
    digest = hashlib.sha256()
    for text in (str(code), captured.out, captured.err):
        _field(digest, text.encode())
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        _field(digest, path.as_posix().encode())
        _field(digest, path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_is_byte_identical(command, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path("F").write_bytes(b"")  # a regular file, so F/x cannot be created
    assert _digest(command, capsys) == GOLDEN[command], (
        f"the outputs of `cetsim {command}` changed; a legitimate byte change "
        "must update this digest and be logged in CHANGES.md"
    )

