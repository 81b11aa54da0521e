"""Closed-form generating functions in (q, T) and their exact expansions.

A prediction is a rational function whose numerator and denominator are
each a tuple of factors, the empty tuple being 1.  A factor is a tuple of
terms (c, a, k), each meaning c q^a T^k; most are one_minus(a, k) =
1 - q^a T^k, as in the paper's formulas.  At a concrete prime power q each
side is multiplied out, truncated at the wanted power of T, and power-series
long division gives exact Fraction coefficients.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb


class UnknownPrediction(Exception):
    pass


class _Params(dict):
    """The parameters of one prediction; a missing one is an UnknownPrediction."""

    def __init__(self, name: str, params: dict[str, int]) -> None:
        super().__init__(params)
        self.name = name

    def __missing__(self, key: str) -> int:
        raise UnknownPrediction(f"{self.name} needs parameter {key}")


def one_minus(a: int, k: int = 1) -> tuple:
    """The factor 1 - q^a T^k."""
    return ((1, 0, 0), (-1, a, k))


def _expand(factors: tuple, q: int, n: int) -> list:
    """T-coefficients 0..n of the product of the factors at q."""
    out = [1] + [0] * n
    for factor in factors:
        terms = [(k, c * q**a if a >= 0 else Fraction(c, q**-a)) for c, a, k in factor]
        new = [0] * (n + 1)
        for i, x in enumerate(out):
            for k, v in terms:
                if i + k <= n:
                    new[i + k] += x * v
        out = new
    return out


class Prediction:
    """A named rational function num/den in (q, T), each a tuple of factors."""

    __slots__ = ("name", "num", "den")

    def __init__(self, name: str, num: tuple = (), den: tuple = ()) -> None:
        self.name, self.num, self.den = name, num, den

    def series(self, q: int, n_terms: int) -> list[Fraction]:
        """Exact T-series coefficients [c_0, ..., c_{n_terms}] at this q."""
        num = _expand(self.num, q, n_terms)
        den = _expand(self.den, q, n_terms)
        if den[0] == 0:
            raise ZeroDivisionError("denominator has no constant term")
        b0 = Fraction(den[0])
        coeffs: list[Fraction] = []
        for k in range(n_terms + 1):
            acc = num[k]
            for i in range(1, k + 1):
                acc -= den[i] * coeffs[k - i]
            coeffs.append(acc / b0)
        return coeffs

    def coefficient(self, q: int, n: int) -> Fraction:
        return self.series(q, n)[n]


def predict(name: str, **params: int) -> Prediction:
    """The catalog of closed-form generating functions.

    Names: classical_mat(d,e), classical_alt(d), classical_sym(d),
    classical_sl(d), zero_module(d), constant_rank(d,e,l), cor_C(d,e),
    cor_D(d,e), F3d_cc(d), F2d_cc(d), F42_cc, ex14_L(d), nfamily(N),
    ex19, kite(m,n), baer_cc(d,e,b).
    """
    p = _Params(name, params)
    if name == "classical_mat":
        d, e = p["d"], p["e"]
        return Prediction(name, (one_minus(-e),), (one_minus(0), one_minus(d - e)))
    if name == "classical_alt":
        d = p["d"]
        return Prediction(name, (one_minus(1 - d),), (one_minus(0), one_minus(1)))
    if name in ("classical_sym", "classical_sl"):
        d = p["d"]
        if d < 2 and name == "classical_sl":
            raise UnknownPrediction("sl_1 is the zero module; use zero_module")
        return Prediction(name, (one_minus(-d),), (one_minus(0), one_minus(0)))
    if name == "zero_module":
        return Prediction(name, (), (one_minus(p["d"]),))
    if name == "constant_rank":
        d, e, l = p["d"], p["e"], p["l"]
        return Prediction(name, (one_minus(l - e),), (one_minus(0), one_minus(l + d - e)))
    if name == "cor_C":
        d, e = p["d"], p["e"]
        return Prediction(name, (one_minus(1 - d - e),), (one_minus(0), one_minus(1)))
    if name == "cor_D":
        d, e = p["d"], p["e"]
        return Prediction(name, (one_minus(-d - e),), (one_minus(0), one_minus(0)))
    if name == "F3d_cc":
        d = p["d"]
        e1 = (d - 1) * (d * d + d - 3) // 3
        e2 = (d - 2) * d * (d + 2) // 3
        g1 = (d - 1) * d * (d + 1) // 3
        g2 = (d**3 - d + 3) // 3
        g3 = (2 * d * d + 3 * d - 11) * d // 6
        return Prediction(name, (one_minus(e1), one_minus(e2)),
                          (one_minus(g1), one_minus(g2), one_minus(g3)))
    if name == "F2d_cc":
        d = p["d"]
        c = comb(d, 2)
        return Prediction(name, (one_minus(comb(d - 1, 2)),), (one_minus(c), one_minus(c + 1)))
    if name == "F42_cc":
        num = ((1, 7, 3), (-1, 6, 2), (-1, 5, 2), (1, 4, 2),
               (1, 3, 1), (-1, 2, 1), (-1, 1, 1), (1, 0, 0))
        return Prediction(name, (num,), (one_minus(7, 2), one_minus(4), one_minus(4)))
    if name == "ex14_L":
        d = p["d"]
        return Prediction(name, (one_minus(-1),) * (2 * d), (one_minus(0),) * (2 * d + 1))
    if name == "nfamily":
        N = p["N"]
        num = ((1, 0, 0), (N, -1, 1), (-2 * (N + 1), -2, 1), (N, -3, 1), (1, -4, 2))
        return Prediction(name, (num,), (one_minus(-1), one_minus(0), one_minus(0)))
    if name == "ex19":
        return Prediction(name, (one_minus(-2), one_minus(-2)),
                          (one_minus(-1), one_minus(0), one_minus(0)))
    if name == "kite":
        m, n = p["m"], p["n"]
        return Prediction(name, (one_minus(1 - n), one_minus(-n)),
                          (one_minus(0), one_minus(1), one_minus(m - n)))
    if name == "baer_cc":
        # the class numbers of the class-2 group on an admissible d x e
        # alternating board with b colours: cor_C with T replaced by q^l T,
        # l = C(d+e,2) - b
        d, e, b = p["d"], p["e"], p["b"]
        l = comb(d + e, 2) - b
        return Prediction(name, (one_minus(l - d - e + 1),), (one_minus(l), one_minus(l + 1)))
    raise UnknownPrediction(f"unknown prediction {name!r}")
