"""File format round-trips and error reporting for the delimited readers."""

import os
import stat

import numpy as np
import pytest

from covspec import DataError
from covspec.io import (
    atomic_write_text,
    fmt_float,
    read_matrix,
    write_csv,
    write_matrix,
)


def test_fmt_float_round_trips_doubles():
    for x in (np.pi, 1 / 3, 1e-300, -2.5e17, 0.1):
        assert float(fmt_float(x)) == x
    assert fmt_float(2.0) == "2"


def test_atomic_write_creates_and_overwrites(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "first\n")
    assert target.read_text() == "first\n"
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    # No temp residue left behind.
    assert os.listdir(tmp_path) == ["out.txt"]
    # The file gets the mode open() would give it under the umask, not the temp file's 0600.
    for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
        old = os.umask(umask)
        try:
            atomic_write_text(str(target), "third\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == mode


def test_atomic_write_failure_propagates_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(str(target), "new\n")
    assert os.listdir(tmp_path) == ["out.txt"] and target.read_text() == "old\n"


def test_write_csv_layout(tmp_path):
    target = tmp_path / "table.csv"
    write_csv(
        str(target),
        ["a", "b", "c"],
        [[1, 0.5, True], [2, 0.25, False]],
        comments=["meta = 7"],
    )
    lines = target.read_text().splitlines()
    assert lines[0] == "# meta = 7"
    assert lines[1] == "a,b,c"
    assert lines[2] == "1,0.5,1"
    assert lines[3] == "2,0.25,0"


def test_write_csv_passes_strings_through(tmp_path):
    target = tmp_path / "table.csv"
    write_csv(str(target), ["name"], [["identity"]])
    assert target.read_text().splitlines()[1] == "identity"


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    M = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
    path = tmp_path / "m.csv"
    write_matrix(str(path), M)
    back = read_matrix(str(path))
    np.testing.assert_array_equal(back, M)


def test_matrix_round_trip_other_delimiter(tmp_path):
    path = tmp_path / "m.tsv"
    write_matrix(str(path), np.array([[1.0, 2.0]]), delimiter="\t")
    back = read_matrix(str(path), delimiter="\t")
    np.testing.assert_array_equal(back, [[1.0, 2.0]])


def test_write_matrix_promotes_vectors(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix(str(path), np.array([1.0, 2.0, 3.0]))
    assert read_matrix(str(path)).shape == (1, 3)


def test_read_matrix_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# header comment\n\n1,2\n  \n# mid comment\n3,4\n")
    np.testing.assert_array_equal(read_matrix(str(path)), [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_ragged_row_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataError, match=r"m\.csv:2"):
        read_matrix(str(path))


def test_read_matrix_non_numeric_names_line_and_cell(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"m\.csv:2.*oops"):
        read_matrix(str(path))


def test_read_matrix_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# only comments\n")
    with pytest.raises(DataError, match="no numeric rows"):
        read_matrix(str(path))


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_matrix(str(tmp_path / "absent.csv"))
