"""Exception types shared across the package.

Input errors (bad dissections, quivers, CLI data) derive from InputError so the
command line can map them to a common exit code.  Unsupported-algebra errors
(bands, infinite dimension) get their own branch for the same reason, and so
does InternalError, a broken invariant.
"""


class AccordionTauError(Exception):
    """Base class for every error raised by this package."""


class InputError(AccordionTauError):
    """Invalid combinatorial input."""


class AdjacentVerticesError(InputError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"vertices {self.pair} are adjacent or equal: not a diagonal")


class CrossingPairError(InputError):
    def __init__(self, first, second):
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(f"diagonals {self.first} and {self.second} cross")


class DuplicateDiagonalError(InputError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"diagonal {self.pair} listed twice")


class EmptyDissectionError(InputError):
    def __init__(self, msg="dissection has no diagonals"):
        super().__init__(msg)


class NotNestedError(InputError):
    def __init__(self, msg="first dissection is not contained in the second"):
        super().__init__(msg)


class EmptySubsetError(InputError):
    def __init__(self, msg="vertex subset is empty"):
        super().__init__(msg)


class NotAccordionError(AccordionTauError):
    """A black diagonal that misses the two-consecutive-sides condition in some cell."""

    def __init__(self, cell_vertices, crossed_sides):
        self.cell_vertices = tuple(cell_vertices)
        self.crossed_sides = tuple(crossed_sides)
        super().__init__(
            f"not an accordion diagonal: cell {self.cell_vertices} has crossed sides "
            f"{list(self.crossed_sides)}"
        )


class UnsupportedAlgebraError(AccordionTauError):
    """The algebra falls outside the finite-dimensional band-free scope."""


class BandDetectedError(UnsupportedAlgebraError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"relation-free cyclic walk detected (witness string {witness})")


class InfiniteDimensionalError(UnsupportedAlgebraError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"relation-free cycle detected (witness path {witness})")


class AlgebraMismatchError(AccordionTauError):
    def __init__(self, msg="complexes live over different algebra bases"):
        super().__init__(msg)


class NonPureComplexError(AccordionTauError):
    def __init__(self, msg):
        super().__init__(msg)


class LabelLengthMismatchError(AccordionTauError):
    def __init__(self, msg="g-vector labels have different lengths"):
        super().__init__(msg)


class InternalError(AccordionTauError):
    """An invariant of the computation failed: a bug, not bad input."""


class SizeLimitError(AccordionTauError):
    def __init__(self, size, limit):
        self.size = size
        self.limit = limit
        super().__init__(f"complex has {size} vertices, above the search limit {limit}")
