import itertools
import random
from pathlib import Path

import pytest

from gridask.colouring import ParseError, PartialColouring, parse_grid, sl_colouring

from oracles import (colour_closure, exhaustive_rect_admissible, fibre, is_admissible_rect,
                     is_blank, is_colour_closed, random_colouring, transpose_colouring)

GRIDS = Path(__file__).resolve().parent.parent / "grids"


def load(name: str) -> PartialColouring:
    return parse_grid((GRIDS / f"{name}.grid").read_text()).colouring


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

def test_parse_three_by_three():
    parsed = parse_grid("a b .\nb a .\n. . a\n")
    beta, units = parsed.colouring, parsed.units
    assert (beta.d, beta.e) == (3, 3)
    assert beta.colour((1, 1)) == "a"
    assert is_blank(beta, (1, 3))
    assert units[(2, 2)] == 1  # 1 on every coloured cell without a units block


def test_parse_single_blank():
    beta = parse_grid(".").colouring
    assert (beta.d, beta.e) == (1, 1)
    assert beta.colours() == []


def test_parse_ragged_rows_rejected():
    with pytest.raises(ParseError):
        parse_grid("a b\nc\n")


def test_parse_zero_unit_rejected():
    # refused on a coloured cell; a blank cell's unit is never read
    from gridask.colouring import NonUnitCoefficient
    with pytest.raises(NonUnitCoefficient, match=r"u\(2, 2\) = 0"):
        parse_grid("grid:\na .\n. a\nunits:\n1 1\n1 0\n")
    assert parse_grid("grid:\na .\n. a\nunits:\n1 0\n1 1\n").units == {(1, 1): 1, (2, 2): 1}


def test_parse_units_and_family_sections():
    g = parse_grid("family: sigma\ngrid:\na .\n. a\nunits:\n-2 5\n3 1\n# end\n")
    assert g.family == "sigma"
    assert g.units[(1, 1)] == -2


def test_parse_comments_and_blank_lines():
    beta = parse_grid("# header\n\na .\n. a\n").colouring
    assert (beta.d, beta.e) == (2, 2)


# ---------------------------------------------------------------------------
# Closure.
# ---------------------------------------------------------------------------

def test_closure_all_blank_is_identity():
    beta = PartialColouring(3, 3)
    assert colour_closure(beta, ((1,), (1,))) == ((1,), (1,))


def test_closure_full_spread():
    # every cell coloured, each colour meeting all rows and columns
    beta = load("sample_d")
    assert colour_closure(beta, ((1,), (1,))) == ((1, 2, 3), (1, 2, 3))


def test_closure_single_step():
    beta = PartialColouring(3, 3, {(1, 1): "c", (2, 2): "c"})
    assert colour_closure(beta, ((1,), (1,))) == ((1, 2), (1, 2))


def test_closure_properties_random():
    rng = random.Random(5)
    for _ in range(60):
        beta = random_colouring(4, 4, 3, rng)
        i = rng.randrange(1, 5)
        j = rng.randrange(1, 5)
        c1 = colour_closure(beta, ((i,), (j,)))
        # idempotent and extensive
        assert colour_closure(beta, c1) == c1
        assert i in c1[0] and j in c1[1]
        assert is_colour_closed(beta, c1)
        # monotone: enlarging the seed enlarges the closure
        c2 = colour_closure(beta, ((i,), tuple(sorted({j, rng.randrange(1, 5)}))))
        assert set(c1[0]) <= set(c2[0]) and set(c1[1]) <= set(c2[1])


def test_intersection_of_closed_is_closed():
    rng = random.Random(17)
    for _ in range(60):
        beta = random_colouring(4, 4, 2, rng)
        a = colour_closure(beta, ((rng.randrange(1, 5),), (rng.randrange(1, 5),)))
        b = colour_closure(beta, ((rng.randrange(1, 5),), (rng.randrange(1, 5),)))
        inter = (tuple(sorted(set(a[0]) & set(b[0]))),
                 tuple(sorted(set(a[1]) & set(b[1]))))
        assert is_colour_closed(beta, inter)


# ---------------------------------------------------------------------------
# Admissibility.
# ---------------------------------------------------------------------------

def test_sample_verdicts():
    assert is_admissible_rect(load("sample_a")).admissible
    assert is_admissible_rect(load("sample_b")).admissible
    assert not is_admissible_rect(load("sample_c")).admissible
    assert not is_admissible_rect(load("sample_d")).admissible


def test_quartic_quintic_verdicts():
    assert is_admissible_rect(load("quartic")).admissible
    assert not is_admissible_rect(load("quintic")).admissible


def test_traceless_iff_dimension_above_one():
    assert not is_admissible_rect(sl_colouring(1)).admissible
    for d in (2, 3, 4):
        assert is_admissible_rect(sl_colouring(d)).admissible


def test_witness_is_closed_and_blank_free():
    v = is_admissible_rect(load("sample_c"))
    assert not v.admissible
    I, J = v.witness
    beta = load("sample_c")
    assert is_colour_closed(beta, v.witness)
    assert all(not is_blank(beta, (i, j)) for i in I for j in J)


def test_transpose_preserves_admissibility():
    for name in ("sample_a", "sample_b", "sample_c", "sample_d", "quartic"):
        beta = load(name)
        assert is_admissible_rect(beta).admissible == \
            is_admissible_rect(transpose_colouring(beta)).admissible


def test_transpose_moves_cells():
    beta = PartialColouring(2, 3, {(1, 2): "x"})
    t = transpose_colouring(beta)
    assert (t.d, t.e) == (3, 2)
    assert t.colour((2, 1)) == "x" and len(t.colour_of) == 1


def test_admissibility_invariant_under_symmetry():
    rng = random.Random(29)
    for _ in range(40):
        beta = random_colouring(3, 3, 2, rng)
        base = is_admissible_rect(beta).admissible
        rows = list(range(1, 4))
        cols = list(range(1, 4))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = PartialColouring(3, 3, {
            (rows[i - 1], cols[j - 1]): c for (i, j), c in beta.colour_of.items()})
        renamed = PartialColouring(3, 3, {
            cell: "renamed_" + c for cell, c in beta.colour_of.items()})
        assert is_admissible_rect(permuted).admissible == base
        assert is_admissible_rect(renamed).admissible == base


def test_restriction_stability():
    # sub-colourings of admissible colourings stay admissible
    for name in ("sample_a", "sample_b", "quartic"):
        beta = load(name)
        for I in itertools.combinations(range(1, beta.d + 1), 2):
            for J in itertools.combinations(range(1, beta.e + 1), 2):
                # induced colouring: a colour survives only if its whole
                # fibre lies inside the subgrid, otherwise its cells blank
                surviving = {c for c in beta.colours()
                             if all(i in I and j in J
                                    for (i, j) in fibre(beta, c))}
                sub = PartialColouring(
                    len(I), len(J),
                    {(I.index(i) + 1, J.index(j) + 1): c
                     for (i, j), c in beta.colour_of.items()
                     if i in I and j in J and c in surviving})
                assert is_admissible_rect(sub).admissible


def test_matches_exhaustive_definition_small():
    rng = random.Random(31)
    for _ in range(150):
        beta = random_colouring(3, 3, 3, rng)
        assert is_admissible_rect(beta).admissible == \
            exhaustive_rect_admissible(beta)


def test_partial_colouring_refuses_a_cell_off_the_grid():
    with pytest.raises(ValueError):
        PartialColouring(2, 3, {(3, 1): "x"})
    with pytest.raises(ValueError):
        PartialColouring(2, 3, {(1, 0): "x"})


def test_units_hold_exactly_the_coloured_cells():
    # 1 on each coloured cell without a units block; the entries on blank
    # cells are parsed as integers and shape-checked, then dropped
    assert parse_grid("a . b\n. a .\n").units == {(1, 1): 1, (1, 3): 1, (2, 2): 1}
    text = "grid:\na . b\n. a .\nunits:\n2 0 -3\n9 4 7\n"
    assert parse_grid(text).units == {(1, 1): 2, (1, 3): -3, (2, 2): 4}
    for bad in ("9 4", "x 4 7"):  # a short row; a non-integer on the blank (2, 1)
        with pytest.raises(ParseError):
            parse_grid(text.replace("9 4 7", bad))
