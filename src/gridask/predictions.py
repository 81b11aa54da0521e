"""Closed-form generating functions in (q, T) and their exact expansions.

A prediction is a rational function num/den where both are integer-coefficient
polynomials in T whose coefficients are Laurent polynomials in q, stored as
{(q_exponent, T_exponent): int}.  Expansion at a concrete prime power q
produces exact Fraction series coefficients by power-series long division.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb


QT = dict[tuple[int, int], int]


class UnknownPrediction(Exception):
    pass


class _Params(dict):
    """The parameters of one prediction; a missing one is an UnknownPrediction."""

    def __init__(self, name: str, params: dict[str, int]) -> None:
        super().__init__(params)
        self.name = name

    def __missing__(self, key: str) -> int:
        raise UnknownPrediction(f"{self.name} needs parameter {key}")


def qt_one() -> QT:
    return {(0, 0): 1}


def qt_term(coef: int, q_exp: int, t_exp: int) -> QT:
    return {(q_exp, t_exp): coef} if coef else {}


def qt_add(a: QT, b: QT) -> QT:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def qt_mul(a: QT, b: QT) -> QT:
    out: QT = {}
    for (qa, ta), ca in a.items():
        for (qb, tb), cb in b.items():
            k = (qa + qb, ta + tb)
            out[k] = out.get(k, 0) + ca * cb
            if out[k] == 0:
                del out[k]
    return out


def qt_pow(a: QT, n: int) -> QT:
    out = qt_one()
    for _ in range(n):
        out = qt_mul(out, a)
    return out


def one_minus(q_exp: int, t_exp: int = 1) -> QT:
    """The factor 1 - q^a T^k."""
    return qt_add(qt_one(), qt_term(-1, q_exp, t_exp))


def qt_at_q(a: QT, q: int) -> dict[int, Fraction]:
    """Collapse the q variable at a concrete value; keys are T-exponents."""
    out: dict[int, Fraction] = {}
    for (qe, te), c in a.items():
        out[te] = out.get(te, Fraction(0)) + c * Fraction(q) ** qe
    return out


class Prediction:
    """A named rational function num/den in (q, T); num and den default to 1."""

    __slots__ = ("name", "params", "num", "den")

    def __init__(self, name: str, params: tuple = (), num: QT | None = None,
                 den: QT | None = None) -> None:
        self.name, self.params = name, params
        self.num = qt_one() if num is None else num
        self.den = qt_one() if den is None else den

    def series(self, q: int, n_terms: int) -> list[Fraction]:
        """Exact T-series coefficients [c_0, ..., c_{n_terms}] at this q."""
        num = qt_at_q(self.num, q)
        den = qt_at_q(self.den, q)
        b0 = den.get(0, Fraction(0))
        if b0 == 0:
            raise ZeroDivisionError("denominator has no constant term")
        coeffs: list[Fraction] = []
        for k in range(n_terms + 1):
            acc = num.get(k, Fraction(0))
            for i in range(1, k + 1):
                acc -= den.get(i, Fraction(0)) * coeffs[k - i]
            coeffs.append(acc / b0)
        return coeffs

    def coefficient(self, q: int, n: int) -> Fraction:
        return self.series(q, n)[n]


def _classical_mat(d: int, e: int) -> Prediction:
    num = one_minus(-e)
    den = qt_mul(one_minus(0), one_minus(d - e))
    return Prediction("classical_mat", (d, e), num, den)


def predict(name: str, **params: int) -> Prediction:
    """The catalog of closed-form generating functions.

    Names: classical_mat(d,e), classical_alt(d), classical_sym(d),
    classical_sl(d), zero_module(d), constant_rank(d,e,l), cor_C(d,e),
    cor_D(d,e), F3d_cc(d), F2d_cc(d), F42_cc, ex14_L(d), nfamily(N),
    ex19, kite(m,n), baer_cc(d,e,b).
    """
    p = _Params(name, params)
    if name == "classical_mat":
        return _classical_mat(p["d"], p["e"])
    if name == "classical_alt":
        d = p["d"]
        return Prediction("classical_alt", (d,), one_minus(1 - d),
                          qt_mul(one_minus(0), one_minus(1)))
    if name == "classical_sym":
        d = p["d"]
        return Prediction("classical_sym", (d,), one_minus(-d),
                          qt_pow(one_minus(0), 2))
    if name == "classical_sl":
        d = p["d"]
        if d < 2:
            raise UnknownPrediction("sl_1 is the zero module; use zero_module")
        q = _classical_mat(d, d)
        return Prediction("classical_sl", (d,), q.num, q.den)
    if name == "zero_module":
        d = p["d"]
        return Prediction("zero_module", (d,), qt_one(), one_minus(d))
    if name == "constant_rank":
        d, e, l = p["d"], p["e"], p["l"]
        return Prediction("constant_rank", (d, e, l), one_minus(l - e),
                          qt_mul(one_minus(0), one_minus(l + d - e)))
    if name == "cor_C":
        d, e = p["d"], p["e"]
        return Prediction("cor_C", (d, e), one_minus(1 - d - e),
                          qt_mul(one_minus(0), one_minus(1)))
    if name == "cor_D":
        d, e = p["d"], p["e"]
        return Prediction("cor_D", (d, e), one_minus(-d - e),
                          qt_pow(one_minus(0), 2))
    if name == "F3d_cc":
        d = p["d"]
        e1 = (d - 1) * (d * d + d - 3) // 3
        e2 = (d - 2) * d * (d + 2) // 3
        g1 = (d - 1) * d * (d + 1) // 3
        g2 = (d**3 - d + 3) // 3
        g3 = (2 * d * d + 3 * d - 11) * d // 6
        num = qt_mul(one_minus(e1), one_minus(e2))
        den = qt_mul(qt_mul(one_minus(g1), one_minus(g2)), one_minus(g3))
        return Prediction("F3d_cc", (d,), num, den)
    if name == "F2d_cc":
        d = p["d"]
        num = one_minus(comb(d - 1, 2))
        den = qt_mul(one_minus(comb(d, 2)), one_minus(comb(d, 2) + 1))
        return Prediction("F2d_cc", (d,), num, den)
    if name == "F42_cc":
        num: QT = {}
        for c, qe, te in [(1, 7, 3), (-1, 6, 2), (-1, 5, 2), (1, 4, 2),
                          (1, 3, 1), (-1, 2, 1), (-1, 1, 1), (1, 0, 0)]:
            num = qt_add(num, qt_term(c, qe, te))
        den = qt_mul(one_minus(7, 2), qt_pow(one_minus(4), 2))
        return Prediction("F42_cc", (), num, den)
    if name == "ex14_L":
        d = p["d"]
        return Prediction("ex14_L", (d,), qt_pow(one_minus(-1), 2 * d),
                          qt_pow(one_minus(0), 2 * d + 1))
    if name == "nfamily":
        N = p["N"]
        num = qt_one()
        num = qt_add(num, qt_term(N, -1, 1))
        num = qt_add(num, qt_term(-2 * (N + 1), -2, 1))
        num = qt_add(num, qt_term(N, -3, 1))
        num = qt_add(num, qt_term(1, -4, 2))
        den = qt_mul(one_minus(-1), qt_pow(one_minus(0), 2))
        return Prediction("nfamily", (N,), num, den)
    if name == "ex19":
        num = qt_pow(one_minus(-2), 2)
        den = qt_mul(one_minus(-1), qt_pow(one_minus(0), 2))
        return Prediction("ex19", (), num, den)
    if name == "kite":
        m, n = p["m"], p["n"]
        num = qt_mul(one_minus(1 - n), one_minus(-n))
        den = qt_mul(qt_mul(one_minus(0), one_minus(1)), one_minus(m - n))
        return Prediction("kite", (m, n), num, den)
    if name == "baer_cc":
        # class-counting series of the class-2 group attached to the
        # alternating block module on an admissible d x e colouring with
        # b colours: the module's ask series with T replaced by q^l T,
        # l = C(d+e,2) - b, giving
        # (1 - q^{l-d-e+1} T)/((1 - q^l T)(1 - q^{l+1} T)).
        d, e, b = p["d"], p["e"], p["b"]
        l = comb(d + e, 2) - b
        return Prediction("baer_cc", (d, e, b), one_minus(l - d - e + 1),
                          qt_mul(one_minus(l), one_minus(l + 1)))
    raise UnknownPrediction(f"unknown prediction {name!r}")
