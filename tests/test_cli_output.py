"""A result that cannot be written exits 1, with a message that names the
output; exit 2 stays for input files that cannot be read or parsed."""

import json
import os

import pytest

from oplab import matrix_to_json
from oplab.cli import main


@pytest.fixture
def matrix(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json([[2, 0], [1, 2]])))
    return str(path)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_output_device_exits_one(capsys, matrix):
    assert main(["classify", "--matrix", matrix, "--output", "/dev/full"]) == 1
    assert capsys.readouterr().err == (
        "oplab: error: cannot write the result to /dev/full: [Errno 28] No space left on device\n")


def test_an_output_in_a_missing_directory_exits_one(capsys, tmp_path, matrix):
    out = tmp_path / "missing" / "out.json"
    assert main(["defect", "--matrix", matrix, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"oplab: error: cannot write the result to {out}: [Errno 2] No such file or directory: '{out}'\n")
    assert not out.parent.exists()


class _FullStdout:
    def write(self, text):
        raise OSError(28, "No space left on device")

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_a_stdout_that_fails_exits_one(capsys, monkeypatch, matrix):
    monkeypatch.setattr("sys.stdout", _FullStdout())
    assert main(["drazin", "--matrix", matrix]) == 1
    assert capsys.readouterr().err == "oplab: error: cannot write the result to stdout: [Errno 28] No space left on device\n"


def test_a_missing_input_file_still_exits_two(capsys, tmp_path, matrix):
    missing = tmp_path / "missing.json"
    out = tmp_path / "out.json"
    assert main(["classify", "--matrix", str(missing), "--output", str(out)]) == 2
    assert main(["classify", "--matrix", matrix, "--weight", str(missing), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"oplab: parse error: [Errno 2] No such file or directory: '{missing}'"] * 2
    assert not out.exists()
