"""Small exact linear algebra with one elimination engine.

RowSpace is an incremental row echelon form.  Its elimination is
division-free: a candidate row is cross-multiplied against each stored row,
so integer input stays integer.  Ranks, the hom-shift pairing and the
tops of kernels all go through it; nothing here divides.
"""

from __future__ import annotations

Matrix = list


class RowSpace:
    """Incremental row space with division-free elimination.

    add() reduces the candidate against the stored echelon rows and either
    absorbs it (returns True, rank grew) or rejects it as dependent.  Each
    stored row starts at its pivot and vanishes at the pivots stored before it.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                # v := row[piv] * v - v[piv] * row, cancels position piv
                c1, c2 = row[piv], v[piv]
                v = [c1 * a - c2 * b for a, b in zip(v, row)]
        for j in range(self.width):
            if v[j]:
                self.rows.append(v)
                self.pivots.append(j)
                return True
        return False


def rank(rows: Matrix) -> int:
    if not rows:
        return 0
    space = RowSpace(len(rows[0]))
    for row in rows:
        space.add(row)
    return space.rank

