"""The column-deletion game on family grids.

Each matrix family (rectangular "rho", alternating "gamma", symmetric
"sigma") attaches to index sets (I, J) a grid of cells partitioned into
cell classes.  A colouring constant on cell classes is played on the
master's cells in H x cols: a colour stays while every class of that colour
meets the board, and a cell that is blank (or whose colour left) and the
only cell of its class on the board lets you delete its column.
`legal_moves` is that one rule, read straight off the master.  A colouring
is admissible of level l when for every non-empty row subset H some <= l
columns can be discarded so that moves delete all remaining columns.
Certificates are replayable move lists.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from typing import Mapping, Sequence

from .colouring import PartialColouring

Cell = tuple[int, int]

# is_admissible_game visits every non-empty row subset, so it refuses
# grids with more rows than this.
MAX_ROWS = 12


class Family(str, Enum):
    RHO = "rho"
    GAMMA = "gamma"
    SIGMA = "sigma"


class LevelTooLarge(Exception):
    pass


class OverlappingIndexSets(Exception):
    pass


@dataclass(frozen=True)
class GameGrid:
    family: Family
    I: tuple[int, ...]
    J: tuple[int, ...]
    cells: frozenset[Cell]
    class_of: Mapping[Cell, frozenset[Cell]]


def build_grid(family: Family, I: Sequence[int], J: Sequence[int]) -> GameGrid:
    """Cells and cell classes of the family grid on (I, J).

    rho: all of I x J, singleton classes.  gamma: off-diagonal cells of
    I x J, (i,j) paired with (j,i) when both are cells.  sigma: all of
    I x J, same pairing, diagonal cells singletons.
    """
    family = Family(family)
    I = tuple(sorted(set(I)))
    J = tuple(sorted(set(J)))
    if family is Family.RHO:
        cells = frozenset((i, j) for i in I for j in J)
    elif family is Family.GAMMA:
        cells = frozenset((i, j) for i in I for j in J if i != j)
    else:
        cells = frozenset((i, j) for i in I for j in J)
    class_of: dict[Cell, frozenset[Cell]] = {}
    for (i, j) in cells:
        if family is Family.RHO:
            cls = frozenset([(i, j)])
        else:
            cls = frozenset(c for c in ((i, j), (j, i)) if c in cells)
        class_of[(i, j)] = cls
    return GameGrid(family, I, J, cells, class_of)


@dataclass(frozen=True)
class GameColouring:
    grid: GameGrid
    colour_of: Mapping[Cell, str] = field(default_factory=dict)
    # colour -> the cell classes of that colour, filled in at construction
    classes_of: Mapping[str, set[frozenset[Cell]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        colour_of = dict(self.colour_of)
        object.__setattr__(self, "colour_of", colour_of)
        classes_of: dict[str, set[frozenset[Cell]]] = {}
        for cell, colour in colour_of.items():
            if cell not in self.grid.cells:
                raise ValueError(f"coloured cell {cell} not in grid")
            for mate in self.grid.class_of[cell]:
                if colour_of.get(mate) != colour:
                    raise ValueError(f"colour not constant on class of {cell}")
            classes_of.setdefault(colour, set()).add(self.grid.class_of[cell])
        object.__setattr__(self, "classes_of", classes_of)

    def colour(self, cell: Cell) -> str | None:
        return self.colour_of.get(cell)


def master_rho(beta: PartialColouring) -> GameColouring:
    """Rectangular colouring as a game colouring on ([d], [e])."""
    grid = build_grid(Family.RHO, range(1, beta.d + 1), range(1, beta.e + 1))
    return GameColouring(grid, dict(beta.colour_of))


def master_symmetric(family: Family, beta: PartialColouring) -> GameColouring:
    """Symmetric d x d colouring as a gamma/sigma game colouring on ([d], [d]).

    Entries must satisfy beta(i,j) = beta(j,i); colours on non-cells
    (the diagonal, for gamma) are rejected.
    """
    family = Family(family)
    if family is Family.RHO:
        return master_rho(beta)
    if beta.d != beta.e:
        raise ValueError("symmetric families need a square grid")
    for (i, j), c in beta.colour_of.items():
        if beta.colour_of.get((j, i)) != c:
            raise ValueError(f"colouring not symmetric at {(i, j)}")
    if family is Family.GAMMA and any(i == j for (i, j) in beta.colour_of):
        raise ValueError("gamma grids have no diagonal cells")
    grid = build_grid(family, range(1, beta.d + 1), range(1, beta.d + 1))
    return GameColouring(grid, beta.colour_of)


def legal_moves(master: GameColouring, H: Sequence[int],
                cols: Sequence[int]) -> list[Cell]:
    """Moves at position (H, cols), row-major: the isolated blank cells of
    the colouring induced on the master's cells in H x cols.

    A colour stays iff every master class of that colour meets the board.
    A move is a board cell that is blank or whose colour did not stay, and
    whose class has no other cell on the board.
    """
    grid = master.grid
    board = [cell for cell in itertools.product(sorted(set(H)), sorted(set(cols)))
             if cell in grid.cells]
    on_board = set(board)
    stayed = {colour for colour, classes in master.classes_of.items()
              if all(not cls.isdisjoint(on_board) for cls in classes)}
    return [cell for cell in board if master.colour(cell) not in stayed
            and len(grid.class_of[cell] & on_board) == 1]


def greedy_reduce(master: GameColouring,
                  I: Sequence[int] | None = None,
                  J: Sequence[int] | None = None,
                  ) -> tuple[tuple[int, ...], list[tuple[Cell, int]]]:
    """Play moves greedily from position (I, J); defaults to the full grid.

    Repeatedly deletes the column of the least legal move, until no move
    remains.  Returns the surviving columns and the move log
    [(cell, deleted column), ...].
    """
    I = master.grid.I if I is None else I
    cols = sorted(set(master.grid.J if J is None else J))
    log: list[tuple[Cell, int]] = []
    while cols:
        moves = legal_moves(master, I, cols)
        if not moves:
            break
        cell = moves[0]
        cols.remove(cell[1])
        log.append((cell, cell[1]))
    return tuple(cols), log


@dataclass(frozen=True)
class MoveCertificate:
    H: tuple[int, ...]
    D: tuple[int, ...]
    moves: tuple[tuple[Cell, int], ...]


@dataclass(frozen=True)
class GameVerdict:
    admissible: bool
    level: int
    certificates: tuple[MoveCertificate, ...] = ()
    witness: dict | None = None


def replay_certificate(master: GameColouring, cert: MoveCertificate) -> bool:
    """Check that the recorded moves are legal and clear all columns."""
    cols = [j for j in master.grid.J if j not in set(cert.D)]
    for cell, col in cert.moves:
        if cell != (cell[0], col) or cell not in legal_moves(master, cert.H, cols):
            return False
        cols.remove(col)
    return not cols


def is_admissible_game(master: GameColouring, level: int,
                       subset_budget: int = 10**6) -> GameVerdict:
    """Level-l admissibility with one replayable certificate per row subset H.

    For each non-empty H, candidate discard sets D are tried by size then
    lexicographically; greedy play decides whether (H, J without D) clears.
    Raises LevelTooLarge above MAX_ROWS rows or when C(|J|, level) exceeds
    subset_budget.
    """
    grid = master.grid
    J = grid.J
    if comb(len(J), level) > subset_budget:
        raise LevelTooLarge(f"C({len(J)}, {level}) exceeds budget")
    I = grid.I
    if len(I) > MAX_ROWS:
        raise LevelTooLarge(f"|I| = {len(I)} > {MAX_ROWS} rows")
    subsets = []
    for r in range(1, len(I) + 1):
        subsets.extend(itertools.combinations(I, r))
    certificates = []
    for H in subsets:
        found = None
        for size in range(level + 1):
            for D in itertools.combinations(J, size):
                final, log = greedy_reduce(master, H, [j for j in J if j not in D])
                if not final:
                    found = MoveCertificate(tuple(H), D, tuple(log))
                    break
            if found:
                break
        if found is None:
            final, log = greedy_reduce(master, H, J)
            return GameVerdict(False, level, tuple(certificates),
                               witness={"H": list(H), "surviving_columns": list(final)})
        certificates.append(found)
    return GameVerdict(True, level, tuple(certificates))


def hat_colouring(beta: PartialColouring, I: Sequence[int], J: Sequence[int],
                  family: Family) -> GameColouring:
    """Symmetrised colouring on (I u J, I u J) from a rectangular one on I x J.

    Requires I and J disjoint, |I| = d rows and |J| = e columns of beta.
    The class {(i,j),(j,i)} for i in I, j in J gets beta's colour at the
    corresponding position; every other cell (diagonal included) is blank.
    """
    family = Family(family)
    if family is Family.RHO:
        raise ValueError("the symmetrised colouring lives in gamma or sigma")
    I = tuple(sorted(set(I)))
    J = tuple(sorted(set(J)))
    if set(I) & set(J):
        raise OverlappingIndexSets(f"{set(I) & set(J)}")
    if len(I) != beta.d or len(J) != beta.e:
        raise ValueError("index sets do not match the colouring shape")
    V = tuple(sorted(I + J))
    grid = build_grid(family, V, V)
    colour_of: dict[Cell, str] = {}
    for (a, b), colour in beta.colour_of.items():
        i, j = I[a - 1], J[b - 1]
        colour_of[(i, j)] = colour
        colour_of[(j, i)] = colour
    return GameColouring(grid, colour_of)


def rainbow_colouring(b: int, d: int) -> PartialColouring:
    """Symmetric d x d colouring with colour "c{a}" on the pairs {i, i+a},
    1 <= a <= b, i + a <= d (off-diagonal bands, one colour per offset)."""
    colour_of: dict[Cell, str] = {}
    for a in range(1, b + 1):
        for i in range(1, d - a + 1):
            colour_of[(i, i + a)] = f"c{a}"
            colour_of[(i + a, i)] = f"c{a}"
    return PartialColouring(d, d, colour_of)
