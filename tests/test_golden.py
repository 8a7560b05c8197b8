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
        "b547a81e447abfe10fe41d560d2a33a909f5de2cf4d543c078ebc494392552bf",
    "point --beta 0.3 --h 0.2 --shots 4096 --seed 5 --eta 0.9 --recover auto "
    "--format csv,json,svg --out-dir o":
        "379d517b132ea72a48dc9ae9ab3cef2c6d5d5562f8f2434b414e5b54bd6ee500",
    "point --beta 2 --h 0.5 --decay-profile default --t1 3 --recover auto "
    "--format csv,json,svg --out-dir o":
        "d990bbb17e45978cc8e13c1386b1f884a38c4bfbe5ea7537436364310108fb97",
    "point --beta 11 --h 1":
        "8f6e776b3a4e4b10a88e752168c8d2c3fe319973bed8de2b2570c82b2355e946",
    "sweep --beta 1:3:3 --h -1:1:4 --decay-profile default --t1 3 --recover auto "
    "--format csv,json --out-dir o":
        "784a8585b9b191d62fe831656ea5ce68739925e59980287ba0641217627b5653",
    "noise-study --beta 11 --h 1 --eta 0.5":
        "e04b166e1cf9366a815da5ba23c33716af2a8b9babf58919777fd85df5e94c7e",
    "circuit --topology chain --n 7 --beta 2 --h 0.3 --probe":
        "56665297922a26e6eee0875d2a76654aba239c1e1175b7ca0b6547ae93b37392",
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

