import pytest

import accordion_tau.accordion as accordion
from accordion_tau.geometry import (
    Dissection,
    PointCycle,
    all_dissections,
    all_white_diagonal_pairs,
    noncrossing,
    validate_dissection,
)

# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def record_criterion(criterion: int, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {tag}" + (f"  {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def dissections_with_empty(m: int) -> list[Dissection]:
    """Every dissection of the m-gon, the empty one first."""
    return [Dissection(PointCycle(m), ()), *all_dissections(m)]


def flip_crossing(monkeypatch, pair: set[tuple[int, int]]) -> None:
    """Make the accordion side read the two black diagonals of pair, given
    by their label pairs, as crossing when they do not cross and as not
    crossing when they do: the real noncrossing table, with the pair's two
    bits flipped."""

    def table(m: int) -> tuple[int, ...]:
        rows = list(noncrossing(m))
        x, y = (all_white_diagonal_pairs(m).index(p) for p in pair)
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
        return tuple(rows)

    monkeypatch.setattr(accordion, "noncrossing", table)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def hexagon_fan():
    return validate_dissection(6, [(0, 2), (0, 3), (0, 4)])


@pytest.fixture
def heptagon_zigzag():
    # the three-diagonal heptagon dissection whose quiver is 1 -> 2 -> 3
    # with the composite killed
    return validate_dissection(7, [(0, 2), (2, 4), (4, 6)])
