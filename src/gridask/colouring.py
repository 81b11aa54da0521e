"""Partial colourings of rectangular grids and the grid file parser.

A partial colouring assigns colours to some cells of [d] x [e] (1-based);
uncoloured cells are blank.  Each colour's fibre encodes one linear
relation among matrix entries; its coefficients are the units of the
coloured cells, a plain mapping from cell to integer (ParsedGrid.units).
A colouring is admissible when every non-empty colour-closed product
subgrid contains a blank cell; gridask.boardgame decides it by the
column-deletion game.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple


Cell = tuple[int, int]


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class NonUnitCoefficient(Exception):
    pass


class PartialColouring:
    """Colours of some cells of [d] x [e], copied at construction."""

    __slots__ = ("d", "e", "colour_of")

    def __init__(self, d: int, e: int, colour_of: Mapping[Cell, str] = {}) -> None:
        self.d, self.e, self.colour_of = d, e, dict(colour_of)
        for (i, j) in self.colour_of:
            if not (1 <= i <= d and 1 <= j <= e):
                raise ValueError(f"cell {(i, j)} outside {d}x{e}")

    def colour(self, cell: Cell) -> str | None:
        return self.colour_of.get(cell)

    def colours(self) -> list[str]:
        seen: dict[str, None] = {}
        for c in self.colour_of.values():
            seen.setdefault(c)
        return list(seen)


class ParsedGrid(NamedTuple):
    family: str | None
    colouring: PartialColouring
    units: dict[Cell, int]  # the unit of each coloured cell


def parse_grid(text: str) -> ParsedGrid:
    """Parse the grid file format.

    Optional "family: rho|gamma|sigma" header, then "grid:" followed by d
    rows of whitespace-separated tokens ("." = blank), then an optional
    "units:" block of d rows of integers, non-zero on the coloured cells.
    "#" starts a comment.  units maps each coloured cell to its unit (1
    without a units block); the entries on blank cells are read and
    shape-checked, then dropped.
    """
    family: str | None = None
    grid_rows: list[list[str]] = []
    unit_rows: list[list[int]] = []
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("family:"):
            family = line.split(":", 1)[1].strip().lower()
            if family not in ("rho", "gamma", "sigma"):
                raise ParseError(f"unknown family {family!r}", lineno)
            continue
        if line.lower() == "grid:":
            section = "grid"
            continue
        if line.lower() == "units:":
            section = "units"
            continue
        if section == "grid":
            grid_rows.append(line.split())
        elif section == "units":
            try:
                unit_rows.append([int(tok) for tok in line.split()])
            except ValueError as exc:
                raise ParseError(f"bad unit entry: {exc}", lineno) from None
        else:
            # headerless files: bare rows are the grid body
            section = "grid"
            grid_rows.append(line.split())
    if not grid_rows:
        raise ParseError("no grid rows")
    d = len(grid_rows)
    e = len(grid_rows[0])
    for idx, row in enumerate(grid_rows):
        if len(row) != e:
            raise ParseError(f"grid row {idx + 1} has {len(row)} tokens, expected {e}")
    if unit_rows and (len(unit_rows) != d or any(len(r) != e for r in unit_rows)):
        raise ParseError("units block shape does not match grid")
    colour_of, units = {}, {}  # the modules read the units of the coloured cells only
    for i, row in enumerate(grid_rows, start=1):
        for j, tok in enumerate(row, start=1):
            if tok != ".":
                colour_of[(i, j)] = tok
                units[(i, j)] = unit_rows[i - 1][j - 1] if unit_rows else 1
                if units[(i, j)] == 0:
                    raise NonUnitCoefficient(f"u{(i, j)} = 0")
    return ParsedGrid(family, PartialColouring(d, e, colour_of), units)


def sl_colouring(d: int) -> PartialColouring:
    """One colour on the main diagonal of [d] x [d] (trace-zero relation)."""
    return PartialColouring(d, d, {(i, i): "t" for i in range(1, d + 1)})
