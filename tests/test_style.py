"""Source layout rules that hold for every module of the package."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "covspec"


def test_source_lines_fit_in_99_columns():
    long = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 99
    ]
    assert long == []


def test_source_stays_below_the_line_baseline():
    # ROADMAP aim 2: net source lines stay at or below the baseline of 2,776.
    total = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert total <= 2776
