"""Small exact linear algebra with one elimination engine.

RowSpace is an incremental row echelon form.  Its elimination is
division-free: a candidate row is cross-multiplied against each stored row,
so integer input stays integer.  Ranks, kernels and tops of modules all go
through it; nothing here divides.
"""

from __future__ import annotations

import operator

Vector = list
Matrix = list


def mat_vec(mat: Matrix, vec: Vector) -> Vector:
    return [sum(map(operator.mul, row, vec)) for row in mat]


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


def kernel(vectors: list[Vector], width: int) -> list[Vector]:
    """Basis of the relations {x : sum_k x[k] * vectors[k] == 0}.

    Eliminates the tagged rows [vectors[k] | e_k]: a stored row whose pivot
    falls in the tag part is zero on the first width entries, so its tag
    part is a relation, and those rows span every relation.
    """
    n = len(vectors)
    space = RowSpace(width + n)
    for k, vec in enumerate(vectors):
        space.add(list(vec) + [int(t == k) for t in range(n)])
    return [row[width:] for row, piv in zip(space.rows, space.pivots) if piv >= width]
