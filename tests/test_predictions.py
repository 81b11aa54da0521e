from fractions import Fraction
from math import comb

import pytest

from gridask.predictions import Prediction, UnknownPrediction, one_minus, predict, qt_mul

from oracles import class_number_F3d

F = Fraction


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
    target = Prediction("target", (), one_minus(0),
                        qt_mul(one_minus(2), one_minus(3)))
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
    # spot check by clearing the denominator: den * series == num
    pred = predict("cor_C", d=2, e=3)
    q = 7
    s = pred.series(q, 6)
    den = {1: {}, }
    # evaluate num and den at q as polynomials in T
    from gridask.predictions import qt_at_q
    numq = qt_at_q(pred.num, q)
    denq = qt_at_q(pred.den, q)
    for n in range(4):
        conv = sum(denq.get(k, F(0)) * s[n - k] for k in range(n + 1))
        assert conv == numq.get(n, F(0))
