import itertools
import random
from pathlib import Path

import pytest

from gridask.boardgame import (Family, LevelTooLarge, OverlappingIndexSets,
                               build_grid, greedy_reduce, hat_colouring,
                               is_admissible_game, legal_moves, master_rho,
                               master_symmetric, rainbow_colouring,
                               replay_certificate)
from gridask.colouring import PartialColouring, all_blank, parse_grid

from oracles import (exhaustive_game_clearable, oracle_moves, random_colouring,
                     random_symmetric_colouring)

GRIDS = Path(__file__).resolve().parent.parent / "grids"


def load(name: str):
    return parse_grid((GRIDS / f"{name}.grid").read_text())


# ---------------------------------------------------------------------------
# Grids and cell classes.
# ---------------------------------------------------------------------------

def test_gamma_two_by_two_single_pair_class():
    g = build_grid(Family.GAMMA, (1, 2), (1, 2))
    assert g.cells == frozenset({(1, 2), (2, 1)})
    assert g.class_of[(1, 2)] == frozenset({(1, 2), (2, 1)})


def test_rho_grid_all_singletons():
    g = build_grid(Family.RHO, (1, 2), (1, 2, 3))
    assert len(g.cells) == 6
    assert all(len(cls) == 1 for cls in g.class_of.values())


def test_sigma_offset_index_sets():
    g = build_grid(Family.SIGMA, (1, 2), (2, 3))
    assert g.cells == frozenset({(1, 2), (1, 3), (2, 2), (2, 3)})
    # (2,1) and (3,1)/(3,2) fall outside, so every class is a singleton here
    assert all(len(cls) == 1 for cls in g.class_of.values())


def test_sigma_square_pairs_off_diagonal():
    g = build_grid(Family.SIGMA, (1, 2), (1, 2))
    assert g.class_of[(1, 2)] == frozenset({(1, 2), (2, 1)})
    assert g.class_of[(1, 1)] == frozenset({(1, 1)})


def test_master_symmetric_refusals():
    with pytest.raises(ValueError, match="no diagonal"):
        master_symmetric(Family.GAMMA, PartialColouring(2, 2, {(1, 1): "x"}))
    with pytest.raises(ValueError, match="not symmetric"):
        master_symmetric(Family.SIGMA, PartialColouring(2, 2, {(1, 2): "x"}))
    sigma = master_symmetric(Family.SIGMA, PartialColouring(2, 2, {(1, 1): "x"}))
    assert sigma.classes_of == {"x": {frozenset({(1, 1)})}}


# ---------------------------------------------------------------------------
# Induced colourings, read through the move rule: a cell alone in its class
# on the board is a move exactly when its colour did not stay.
# ---------------------------------------------------------------------------

def test_induce_rho_partial_colour_goes_blank():
    master = master_rho(load("sample_a").colouring)
    # column 3 of sample_a is blank in rows 1 and 2 already; colours whose
    # classes leave the subgrid are dropped entirely
    assert legal_moves(master, (1, 2), (3,)) == [(1, 3), (2, 3)]


def test_induce_sigma_survives_when_all_classes_meet():
    master = master_symmetric(Family.SIGMA, load("snake_sym4").colouring)
    # every class of "b" meets (2,3) x [4], so (2,1) and (3,4), alone in
    # their classes, keep "b" and are no moves; (2,3)/(3,2) share a class
    assert legal_moves(master, (2, 3), (1, 2, 3, 4)) == [
        (2, 2), (2, 4), (3, 1), (3, 3)]
    # dropping column 4 loses the class {(3,4),(4,3)}, so "b" goes blank
    assert (2, 1) in legal_moves(master, (2, 3), (1, 2, 3))


def test_induce_full_grid_is_identity():
    master = master_rho(load("sample_b").colouring)
    blank = sorted(set(master.grid.cells) - set(master.colour_of))
    assert legal_moves(master, master.grid.I, master.grid.J) == blank


def test_legal_moves_match_oracle_at_every_position():
    rng = random.Random(83)
    masters = []
    for _ in range(8):
        masters.append(master_rho(random_colouring(3, rng.randrange(1, 4), 3, rng)))
        beta = random_symmetric_colouring(4, 3, rng)
        masters.append(master_symmetric(Family.SIGMA, beta))
        masters.append(master_symmetric(Family.GAMMA, PartialColouring(4, 4, {
            c: v for c, v in beta.colour_of.items() if c[0] != c[1]})))
        rect = random_colouring(2, 2, 2, rng)
        masters.append(hat_colouring(rect, (1, 3), (2, 4), Family.SIGMA))
        masters.append(hat_colouring(rect, (1, 4), (2, 3), Family.GAMMA))

    def subsets(xs):
        return [s for r in range(len(xs) + 1) for s in itertools.combinations(xs, r)]

    for master in masters:
        for H in subsets(master.grid.I):
            for cols in subsets(master.grid.J):
                assert legal_moves(master, H, cols) == oracle_moves(master, H, cols)


# ---------------------------------------------------------------------------
# Isolated cells and greedy play.
# ---------------------------------------------------------------------------

def test_isolated_rho_all_blank():
    gc = master_rho(all_blank(2, 2))
    assert len(legal_moves(gc, gc.grid.I, gc.grid.J)) == 4


def test_isolated_gamma_all_blank_none():
    gc = master_symmetric(Family.GAMMA, all_blank(2, 2))
    assert legal_moves(gc, gc.grid.I, gc.grid.J) == []


def test_isolated_sigma_all_blank_diagonal():
    gc = master_symmetric(Family.SIGMA, all_blank(2, 2))
    assert legal_moves(gc, gc.grid.I, gc.grid.J) == [(1, 1), (2, 2)]


def test_greedy_rho_all_blank_clears():
    gc = master_rho(all_blank(3, 4))
    final, log = greedy_reduce(gc)
    assert final == ()
    assert len(log) == 4


def test_greedy_gamma_square_stuck():
    gc = master_symmetric(Family.GAMMA, all_blank(3, 3))
    final, log = greedy_reduce(gc)
    assert final == (1, 2, 3) and log == []


def test_greedy_snake_restricted_clears():
    # restricting the symmetric chain colouring to rows {2,3} frees (2,4)
    master = master_symmetric(Family.SIGMA, load("snake_sym4").colouring)
    final, log = greedy_reduce(master, (2, 3), (1, 2, 3, 4))
    assert final == ()
    assert sorted(col for _, col in log) == [1, 2, 3, 4]
    # column 4's deletion is unlocked by the isolated blank cell (2,4)
    assert ((2, 4), 4) in log


# ---------------------------------------------------------------------------
# Admissibility and certificates.
# ---------------------------------------------------------------------------

def test_rho_game_matches_rect_on_samples():
    for name, expected in [("sample_a", True), ("sample_b", True),
                           ("sample_c", False), ("sample_d", False)]:
        master = master_rho(load(name).colouring)
        assert is_admissible_game(master, 0).admissible == expected


def test_gamma_all_blank_level_one():
    gc = master_symmetric(Family.GAMMA, all_blank(4, 4))
    assert not is_admissible_game(gc, 0).admissible
    assert is_admissible_game(gc, 1).admissible


def test_gamma_square_never_level_zero():
    rng = random.Random(3)
    for _ in range(20):
        beta = random_symmetric_colouring(3, 2, rng)
        beta = PartialColouring(3, 3, {(i, j): c
                                       for (i, j), c in beta.colour_of.items()
                                       if i != j})
        gc = master_symmetric(Family.GAMMA, beta)
        assert not is_admissible_game(gc, 0).admissible


def test_rainbow_verdicts():
    m47 = master_symmetric(Family.GAMMA, rainbow_colouring(4, 7))
    assert is_admissible_game(m47, 1).admissible
    m67 = master_symmetric(Family.GAMMA, rainbow_colouring(6, 7))
    assert not is_admissible_game(m67, 1).admissible


def test_rainbow_matches_grid_files():
    assert rainbow_colouring(4, 7).colour_of == load("rainbow_4_7").colouring.colour_of
    assert rainbow_colouring(6, 7).colour_of == load("rainbow_6_7").colouring.colour_of


def test_certificates_replay():
    master = master_symmetric(Family.SIGMA, load("snake_sym4").colouring)
    verdict = is_admissible_game(master, 0)
    assert verdict.admissible
    assert len(verdict.certificates) == 2 ** 4 - 1
    for cert in verdict.certificates:
        assert replay_certificate(master, cert)


def test_certificate_tampering_detected():
    master = master_rho(all_blank(2, 2))
    verdict = is_admissible_game(master, 0)
    cert = verdict.certificates[0]
    bad = type(cert)(cert.H, cert.D, cert.moves[:-1])
    assert not replay_certificate(master, bad)


def test_level_too_large():
    gc = master_symmetric(Family.GAMMA, all_blank(3, 3))
    with pytest.raises(LevelTooLarge):
        is_admissible_game(gc, 2, subset_budget=1)


# ---------------------------------------------------------------------------
# Greedy play against exhaustive move-tree search.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", [Family.RHO, Family.GAMMA, Family.SIGMA])
def test_greedy_matches_exhaustive_random(family):
    rng = random.Random(41)
    for _ in range(60):
        if family is Family.RHO:
            beta = random_colouring(3, 3, 2, rng)
            master = master_rho(beta)
        else:
            beta = random_symmetric_colouring(3, 2, rng)
            if family is Family.GAMMA:
                beta = PartialColouring(3, 3, {
                    c: v for c, v in beta.colour_of.items() if c[0] != c[1]})
            master = master_symmetric(family, beta)
        I = tuple(sorted(rng.sample(range(1, 4), rng.randrange(1, 4))))
        J = tuple(sorted(rng.sample(range(1, 4), rng.randrange(1, 4))))
        final, _ = greedy_reduce(master, I, J)
        assert (final == ()) == exhaustive_game_clearable(master, I, J)


def test_greedy_final_set_order_independent():
    # play with random move order instead of least-cell-first
    rng = random.Random(59)
    for _ in range(15):
        beta = random_symmetric_colouring(4, 2, rng)
        master = master_symmetric(Family.SIGMA, beta)
        reference, _ = greedy_reduce(master)
        for _ in range(10):
            cols = list(master.grid.J)
            while cols:
                moves = legal_moves(master, master.grid.I, cols)
                if not moves:
                    break
                cols.remove(rng.choice(moves)[1])
            assert tuple(cols) == reference


def test_move_persistence():
    # an isolated blank cell stays isolated and blank after other columns leave
    rng = random.Random(67)
    for _ in range(40):
        beta = random_symmetric_colouring(4, 2, rng)
        master = master_symmetric(Family.SIGMA, beta)
        J1 = tuple(sorted(rng.sample(range(1, 5), rng.randrange(1, 5))))
        iso1 = set(legal_moves(master, master.grid.I, J1))
        J2 = tuple(sorted(rng.sample(J1, rng.randrange(1, len(J1) + 1))))
        iso2 = set(legal_moves(master, master.grid.I, J2))
        for cell in iso1:
            if cell[1] in J2:
                assert cell in iso2


# ---------------------------------------------------------------------------
# The symmetrised colouring on I u J.
# ---------------------------------------------------------------------------

def test_hat_all_blank():
    gc = hat_colouring(all_blank(2, 3), (1, 2), (3, 4, 5), Family.SIGMA)
    assert gc.colour_of == {}
    assert gc.grid.I == (1, 2, 3, 4, 5)


def test_hat_copies_pair_colours():
    beta = PartialColouring(2, 2, {(1, 2): "x", (2, 1): "y"})
    gc = hat_colouring(beta, (1, 2), (3, 4), Family.GAMMA)
    assert gc.colour((1, 4)) == "x" and gc.colour((4, 1)) == "x"
    assert gc.colour((2, 3)) == "y" and gc.colour((3, 2)) == "y"
    assert gc.colour((1, 2)) is None


def test_hat_requires_disjoint_sets():
    with pytest.raises(OverlappingIndexSets):
        hat_colouring(all_blank(2, 2), (1, 2), (2, 3), Family.SIGMA)


@pytest.mark.parametrize("name,adm", [("sample_a", True), ("sample_b", True),
                                      ("sample_c", False), ("sample_d", False)])
def test_hat_transfer(name, adm):
    # admissible rectangular colouring <=> sigma level 0; and it gives
    # gamma level 1
    beta = load(name).colouring
    I, J = (1, 2, 3), (4, 5, 6)
    sig = hat_colouring(beta, I, J, Family.SIGMA)
    assert is_admissible_game(sig, 0).admissible == adm
    if adm:
        gam = hat_colouring(beta, I, J, Family.GAMMA)
        assert is_admissible_game(gam, 1).admissible
