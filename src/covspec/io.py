"""Delimited matrix files and atomic CSV output.

Numbers are printed with 17 significant digits so a written file round-trips
the underlying doubles exactly; every writer goes through a temp file in the
target directory followed by an atomic rename, so readers never observe a
partially written file.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import DataError

__all__ = [
    "fmt_float",
    "atomic_write_text",
    "write_csv",
    "read_matrix",
    "write_matrix",
]


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename. The file gets the
    mode open() would give it, 0666 less the umask, rather than the temp file's 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0o022)  # reading the umask means setting it; put it back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows, comments=()) -> None:
    """CSV with a fixed header, optional leading comment lines, atomic."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (bool, np.bool_)):
                cells.append("1" if cell else "0")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(fmt_float(cell))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix(path: str, delimiter: str = ",") -> np.ndarray:
    """Delimited numeric matrix, one row per line.

    Ragged rows and non-numeric cells raise a DataError naming the file and
    the 1-based line number.
    """
    try:
        with open(path) as handle:
            raw = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = []
    width = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c for c in stripped.split(delimiter)]
        try:
            values = [float(c) for c in cells]
        except ValueError:
            bad = next(c for c in cells if not _is_number(c))
            raise DataError(
                f"{path}:{lineno}: non-numeric cell {bad.strip()!r}"
            ) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataError(
                f"{path}:{lineno}: row has {len(values)} cells, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no numeric rows found")
    return np.array(rows, dtype=float)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_matrix(path: str, matrix: np.ndarray, delimiter: str = ",") -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [delimiter.join(fmt_float(v) for v in row) for row in matrix]
    atomic_write_text(path, "\n".join(lines) + "\n")
