import re
from fractions import Fraction
from math import comb

import pytest

from gridask.predictions import Prediction, UnknownPrediction, _expand, one_minus, predict

from oracles import class_number_F3d, geometric_series

F = Fraction

# every name in predict's docstring, with the parameters it lists; a name
# with several sets is checked at each
CATALOG = [("classical_mat", {"d": 2, "e": 3}), ("classical_mat", {"d": 3, "e": 3}),
           ("classical_alt", {"d": 3}), ("classical_sym", {"d": 2}),
           ("classical_sl", {"d": 3}), ("zero_module", {"d": 2}),
           ("constant_rank", {"d": 2, "e": 3, "l": 1}), ("cor_C", {"d": 2, "e": 3}),
           ("cor_D", {"d": 2, "e": 2}), ("F3d_cc", {"d": 2}), ("F3d_cc", {"d": 3}),
           ("F3d_cc", {"d": 4}), ("F2d_cc", {"d": 2}), ("F2d_cc", {"d": 3}),
           ("F42_cc", {}), ("ex14_L", {"d": 2}), ("nfamily", {"N": 0}),
           ("nfamily", {"N": 2}), ("ex19", {}), ("kite", {"m": 3, "n": 2}),
           ("kite", {"m": 1, "n": 1}), ("baer_cc", {"d": 2, "e": 2, "b": 1})]


def test_catalog_covers_the_docstring():
    listed = predict.__doc__.split("Names:")[1]
    names = dict(re.findall(r"(\w+)(?:\(([\w,]*)\))?[,.]", listed))
    assert names == {name: ",".join(params) for name, params in CATALOG}


def test_series_against_geometric_expansion():
    # the library long-divides; the oracle expands each denominator factor
    # as a geometric series and never divides
    for name, params in CATALOG:
        pred = predict(name, **params)
        for q in (2, 3, 4, 5, 7, 9):
            assert pred.series(q, 6) == geometric_series(pred, q, 6), (name, params, q)


def test_classical_mat_first_coefficient():
    # 2 - q^{-d} for square matrices
    for d in (1, 2, 3):
        for q in (2, 3, 5):
            assert predict("classical_mat", d=d, e=d).coefficient(q, 1) == \
                2 - F(1, q**d)


def test_classical_alt_first_coefficient():
    # 1 + q - q^{1-d}
    for d in (2, 3, 4):
        for q in (3, 5):
            c1 = predict("classical_alt", d=d).coefficient(q, 1)
            assert c1 == 1 + q - F(q, q**d)


def test_series_starts_at_one():
    for name, params in [("classical_mat", {"d": 2, "e": 3}),
                         ("cor_C", {"d": 2, "e": 2}),
                         ("F3d_cc", {"d": 2}),
                         ("nfamily", {"N": 2}),
                         ("kite", {"m": 3, "n": 2}),
                         ("ex19", {}), ("F42_cc", {}),
                         ("ex14_L", {"d": 2})]:
        assert predict(name, **params).coefficient(5, 0) == 1


def test_alt_equals_rectangular_mat():
    for d in (2, 3, 4):
        alt = predict("classical_alt", d=d)
        mat = predict("classical_mat", d=d, e=d - 1)
        for q in (2, 5):
            assert alt.series(q, 4) == mat.series(q, 4)


def test_sym_and_sl_equal_square_mat():
    for d in (2, 3):
        mat = predict("classical_mat", d=d, e=d)
        for q in (3, 7):
            assert predict("classical_sym", d=d).series(q, 4) == mat.series(q, 4)
            assert predict("classical_sl", d=d).series(q, 4) == mat.series(q, 4)


def test_sl1_rejected():
    with pytest.raises(UnknownPrediction):
        predict("classical_sl", d=1)
    with pytest.raises(UnknownPrediction):
        predict("no_such_formula")


def test_missing_parameter_is_an_unknown_prediction():
    with pytest.raises(UnknownPrediction, match="classical_mat needs parameter d"):
        predict("classical_mat", e=3)
    with pytest.raises(UnknownPrediction, match="kite needs parameter n"):
        predict("kite", m=1)


def test_zero_module_series_is_geometric():
    pred = predict("zero_module", d=2)
    assert pred.series(3, 3) == [1, 9, 81, 729]


def test_f3d_cc_d2_shape():
    # the d=2 closed form cancels to (1-T)/((1-q^2 T)(1-q^3 T))
    pred = predict("F3d_cc", d=2)
    target = Prediction("target", (one_minus(0),), (one_minus(2), one_minus(3)))
    for q in (3, 5, 7):
        assert pred.series(q, 4) == target.series(q, 4)


def test_class_number_formula():
    assert class_number_F3d(2, 5) == 149
    assert class_number_F3d(2, 7) == 391
    for d in (2, 3, 4):
        for q in (3, 5):
            assert class_number_F3d(d, q) == predict("F3d_cc", d=d).coefficient(q, 1)


def test_f2d_cc_heisenberg():
    # d=2: (1-T)/((1-qT)(1-q^2 T)); first coefficient q^2+q-1
    pred = predict("F2d_cc", d=2)
    assert pred.coefficient(5, 1) == 29
    assert pred.coefficient(7, 1) == 55


def test_nfamily_first_coefficient():
    for N in (0, 1, 2):
        for q in (5, 7):
            expect = 2 + F(N + 1, q) - F(2 * (N + 1), q**2) + F(N, q**3)
            assert predict("nfamily", N=N).coefficient(q, 1) == expect


def test_constant_rank_generalizes_classical_mat():
    # rank-0 constant case reduces to the rectangular formula
    for d, e in [(2, 3), (1, 2)]:
        a = predict("constant_rank", d=d, e=e, l=0)
        b = predict("classical_mat", d=d, e=e)
        assert a.series(5, 4) == b.series(5, 4)


def test_cor_C_and_D_first_coefficients():
    for d, e in [(2, 2), (2, 3)]:
        for q in (3, 5):
            assert predict("cor_C", d=d, e=e).coefficient(q, 1) == \
                1 + q - F(q, q**(d + e))
            assert predict("cor_D", d=d, e=e).coefficient(q, 1) == \
                2 - F(1, q**(d + e))


def test_baer_cc_is_shifted_cor_C():
    # T -> q^l T applied to the alternating-board ask series, l = C(d+e,2)-b
    pred = predict("baer_cc", d=2, e=2, b=1)
    cor = predict("cor_C", d=2, e=2)
    for q in (3, 5):
        assert pred.coefficient(q, 1) == cor.coefficient(q, 1) * q**5
    assert pred.coefficient(3, 1) == 963
    assert pred.coefficient(5, 1) == 18725
    # the shift at every coefficient: c_k(baer_cc) = q^(l k) c_k(cor_C)
    for d, e, b in [(2, 2, 1), (2, 3, 0), (1, 2, 2)]:
        l = comb(d + e, 2) - b
        pred = predict("baer_cc", d=d, e=e, b=b)
        cor = predict("cor_C", d=d, e=e)
        for q in (3, 5, 7):
            assert pred.series(q, 3) == [c * F(q) ** (l * k)
                                         for k, c in enumerate(cor.series(q, 3))]


def test_ex14_first_coefficient():
    # (1-q^{-1}T)^{2d}/(1-T)^{2d+1} at T^1: (2d+1) - 2d/q
    for d in (1, 2):
        for q in (3, 5):
            assert predict("ex14_L", d=d).coefficient(q, 1) == \
                2 * d + 1 - F(2 * d, q)


def test_kite_first_coefficient():
    # (1-q^{1-n}T)(1-q^{-n}T)/((1-T)(1-qT)(1-q^{m-n}T))
    for m, n in [(1, 1), (3, 2), (3, 3)]:
        for q in (3, 5):
            c1 = predict("kite", m=m, n=n).coefficient(q, 1)
            expect = 1 + q + F(q**m, q**n) - F(q, q**n) - F(1, q**n)
            assert c1 == expect


def test_series_is_exact_rational_division():
    # clearing the denominator: den * series == num, term by term
    for name, params in CATALOG:
        pred = predict(name, **params)
        for q in (2, 7):
            s = pred.series(q, 6)
            assert all(type(c) is Fraction for c in s)
            numq, denq = _expand(pred.num, q, 6), _expand(pred.den, q, 6)
            for n in range(7):
                conv = sum(denq[k] * s[n - k] for k in range(n + 1))
                assert conv == numq[n], (name, params, q, n)


def test_f42_cc_class_numbers():
    # c_1 at p = 5, 7, 11: the class numbers of the free class-4 group on 2
    # generators from an independent class-4 computation
    pred = predict("F42_cc")
    assert [pred.coefficient(p, 1) for p in (5, 7, 11)] == [1345, 5089, 30481]
