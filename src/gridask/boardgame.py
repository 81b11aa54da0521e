"""The column-deletion game on family grids.

Each matrix family (rectangular "rho", alternating "gamma", symmetric
"sigma") attaches to index sets (I, J) a grid of cells partitioned into
cell classes.  A colouring constant on cell classes is played on the
master's cells in H x cols: a colour stays while every class of that colour
meets the board, and a cell that is blank (or whose colour left) and the
only cell of its class on the board lets you delete its column.
`_moves` is that one rule, played on the master's cell bitmasks.  A
colouring is admissible of level l when for every non-empty row subset H
some <= l columns can be discarded so that moves delete all remaining
columns.  Certificates are move lists, which the tests' oracle replays.
The same grids and cell classes carry the modules: modrep.relation_rep
builds every relation module on a master colouring.  A board's hat
(hat_colouring) puts its rows on 1..d and its columns on d+1..d+e.
"""
from __future__ import annotations

import itertools
from enum import Enum
from functools import cache, cached_property
from math import comb
from typing import Mapping, NamedTuple, Sequence

from .colouring import Cell, PartialColouring

# is_admissible_game visits every non-empty row subset, so it refuses
# grids with more rows than this.
MAX_ROWS = 12


class Family(str, Enum):
    RHO = "rho"
    GAMMA = "gamma"
    SIGMA = "sigma"


class LevelTooLarge(Exception):
    pass


class GameGrid(NamedTuple):
    family: Family
    I: tuple[int, ...]
    J: tuple[int, ...]
    cells: frozenset[Cell]
    class_of: Mapping[Cell, frozenset[Cell]]


def build_grid(family: Family, I: Sequence[int], J: Sequence[int]) -> GameGrid:
    """Cells and cell classes of the family grid on (I, J).

    rho: all of I x J, singleton classes.  gamma: off-diagonal cells of
    I x J, (i,j) paired with (j,i) when both are cells.  sigma: all of
    I x J, same pairing, diagonal cells singletons.  An index set that
    repeats an index is refused (ValueError).
    """
    family = Family(family)
    I, J = tuple(sorted(I)), tuple(sorted(J))
    for name, index in (("I", I), ("J", J)):
        if len(set(index)) != len(index):
            raise ValueError(f"index set {name} repeats an index: {index}")
    return _shape(family, I, J)[0]


@cache
def _shape(family: Family, I: tuple[int, ...], J: tuple[int, ...]):
    """(grid, cells, bit, row, col, pairs), built once per shape: the family
    grid on sorted, repeat-free (I, J), its cells row-major, bit k =
    cells[k], and as masks the cells of each row and column and each
    two-cell class."""
    cells = frozenset((i, j) for i in I for j in J if family is not Family.GAMMA or i != j)
    class_of = {(i, j): frozenset({(i, j)} if family is Family.RHO
                                  else {(i, j), (j, i)} & cells) for (i, j) in cells}
    order = tuple(sorted(cells))
    bit = {cell: 1 << k for k, cell in enumerate(order)}
    row, col = dict.fromkeys(I, 0), dict.fromkeys(J, 0)
    for (i, j), b in bit.items():
        row[i] |= b
        col[j] |= b
    pairs = {sum(map(bit.__getitem__, cls)) for cls in class_of.values() if len(cls) == 2}
    return GameGrid(family, I, J, cells, class_of), order, bit, row, col, tuple(pairs)


class Masks(NamedTuple):
    """A master's cells as bits: bit k is cells[k], cells row-major."""
    cells: tuple[Cell, ...]
    row: dict[int, int]
    col: dict[int, int]
    colours: tuple[tuple[int, tuple[int, ...]], ...]  # (cells, classes) per colour
    pairs: tuple[int, ...]  # the two-cell classes


class GameColouring:
    """A colouring of a grid's cells, copied at construction and constant on
    cell classes; classes_of maps each colour to its cell classes."""

    def __init__(self, grid: GameGrid, colour_of: Mapping[Cell, str] = {}) -> None:
        self.grid, self.colour_of = grid, dict(colour_of)
        self.classes_of: dict[str, set[frozenset[Cell]]] = {}
        for cell, colour in self.colour_of.items():
            if cell not in grid.cells:
                raise ValueError(f"coloured cell {cell} not in grid")
            for mate in grid.class_of[cell]:
                if self.colour_of.get(mate) != colour:
                    raise ValueError(f"colour not constant on class of {cell}")
            self.classes_of.setdefault(colour, set()).add(grid.class_of[cell])

    def colour(self, cell: Cell) -> str | None:
        return self.colour_of.get(cell)

    @cached_property
    def masks(self) -> Masks:
        """The bit table the game is played on, built on first play: the
        colours' masks, and the grid's, which every colouring of its shape
        shares."""
        _, cells, bit, row, col, pairs = _shape(self.grid.family, self.grid.I, self.grid.J)

        def union(cs) -> int:
            return sum(map(bit.__getitem__, cs))

        colours = tuple((union(itertools.chain(*classes)), tuple(map(union, classes)))
                        for classes in self.classes_of.values())
        return Masks(cells, row, col, colours, pairs)


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


def _board(masks: Masks, H: Sequence[int], cols: Sequence[int]) -> int:
    """The master's cells in H x cols, as a mask."""
    return (sum(masks.row.get(i, 0) for i in set(H))
            & sum(masks.col.get(j, 0) for j in set(cols)))


def _moves(masks: Masks, board: int) -> int:
    """The moves on a board, as a mask: the board, less the cells of every
    colour whose classes all meet it and every two-cell class lying on it."""
    moves = board
    for cells, classes in masks.colours:
        if all(map(board.__and__, classes)):
            moves &= ~cells
    for pair in masks.pairs:
        if pair & board == pair:
            moves &= ~pair
    return moves


def greedy_reduce(master: GameColouring,
                  I: Sequence[int] | None = None,
                  J: Sequence[int] | None = None,
                  ) -> tuple[tuple[int, ...], list[tuple[Cell, int]]]:
    """Play moves greedily from position (I, J); defaults to the full grid.

    Repeatedly deletes the column of the least legal move (the lowest set
    bit of the moves), until no move remains.  Returns the surviving
    columns and the move log [(cell, deleted column), ...].
    """
    masks = master.masks
    I = master.grid.I if I is None else I
    cols = sorted(set(master.grid.J if J is None else J))
    board = _board(masks, I, cols)
    log: list[tuple[Cell, int]] = []
    while moves := _moves(masks, board):
        cell = masks.cells[(moves & -moves).bit_length() - 1]
        board &= ~masks.col[cell[1]]
        cols.remove(cell[1])
        log.append((cell, cell[1]))
    return tuple(cols), log


class MoveCertificate(NamedTuple):
    H: tuple[int, ...]
    D: tuple[int, ...]
    moves: tuple[tuple[Cell, int], ...]


class GameVerdict(NamedTuple):
    admissible: bool
    level: int
    certificates: tuple[MoveCertificate, ...] = ()
    witness: dict | None = None


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
        for D in itertools.chain.from_iterable(
                itertools.combinations(J, size) for size in range(level + 1)):
            final, log = greedy_reduce(master, H, [j for j in J if j not in D])
            if not D:  # the first play; its survivors witness a failure at H
                survivors = final
            if not final:
                certificates.append(MoveCertificate(tuple(H), D, tuple(log)))
                break
        else:
            return GameVerdict(False, level, tuple(certificates),
                               witness={"H": list(H), "surviving_columns": list(survivors)})
    return GameVerdict(True, level, tuple(certificates))


def hat_colouring(beta: PartialColouring, family: Family) -> GameColouring:
    """Symmetrised colouring on ([d + e], [d + e]) from a rectangular one on
    [d] x [e]: rows on 1..d, columns on d+1..d+e.

    The class {(i, d + j), (d + j, i)} gets beta's colour at (i, j); every
    other cell (diagonal included) is blank.
    """
    family = Family(family)
    if family is Family.RHO:
        raise ValueError("the symmetrised colouring lives in gamma or sigma")
    V = range(1, beta.d + beta.e + 1)
    colour_of: dict[Cell, str] = {}
    for (i, j), colour in beta.colour_of.items():
        colour_of[(i, beta.d + j)] = colour_of[(beta.d + j, i)] = colour
    return GameColouring(build_grid(family, V, V), colour_of)
