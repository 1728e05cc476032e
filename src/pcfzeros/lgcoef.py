"""Exact-rational coefficient polynomials for the Liouville-Green expansions.

Two families of polynomials in the variable b (the scaled LG variable,
written beta-bar elsewhere) are built with `fractions.Fraction`
arithmetic: the base family used for the function expansions and a
tilde family used for the derivative expansions.  Both satisfy an
integro-differential recurrence that keeps every coefficient an exact
rational; floats only appear when a polynomial is evaluated.

A polynomial is stored as a list of Fractions in ascending powers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Poly = list[Fraction]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [_ZERO] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return _trim(out)


def poly_scale(p: Poly, c: Fraction) -> Poly:
    return _trim([c * a for a in p])


def poly_diff(p: Poly) -> Poly:
    return _trim([k * p[k] for k in range(1, len(p))])


def poly_antideriv(p: Poly) -> Poly:
    """Antiderivative with zero constant term."""
    return _trim([_ZERO] + [p[k] / (k + 1) for k in range(len(p))])


def poly_eval_exact(p: Poly, x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_integral_from(p: Poly, lower: Fraction) -> Poly:
    """Definite integral of p from `lower` to the variable, as a polynomial."""
    F = poly_antideriv(p)
    return poly_add(F, [-poly_eval_exact(F, lower)])


# (b^2 - 1)^2, shared by both recurrences.
_W = [Fraction(1), _ZERO, Fraction(-2), _ZERO, Fraction(1)]


def _sigma(s: int) -> Fraction:
    # lower integration limit: 1 for s odd, 0 for s even
    return Fraction(1) if s % 2 == 1 else _ZERO


def build_tables(S: int, tilde: bool = False) -> list[Poly]:
    """Polynomials of one family for s = 1..S.

    The base family (function expansions) is seeded with the printed
    closed forms E_1 = (5 b^3 - 6 b)/24 and E_2 = (1/16) (b^2-1)^2 (5 b^2 - 2),
    the tilde family (derivative expansions, ``tilde=True``) with
    Et_1 = (7 b^3 - 6 b)/24 and Et_2 = (1/16) (b^2-1)^2 (2 - 7 b^2).
    Higher orders come from the recurrence
        F_{s+1} = +-(1/2) (b^2-1)^2 F_s' +- (1/2) Int_{sigma(s)}^{b} (p^2-1)^2
                  sum_{j=1}^{s-1} F_j'(p) F_{s-j}'(p) dp,
    with the upper signs for the base family and the lower ones for the
    tilde family.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    if tilde:
        half, c3 = -_HALF, Fraction(7, 24)
        inner = [Fraction(2), _ZERO, Fraction(-7)]
    else:
        half, c3 = _HALF, Fraction(5, 24)
        inner = [Fraction(-2), _ZERO, Fraction(5)]
    F: list[Poly] = [[_ZERO, Fraction(-1, 4), _ZERO, c3]]
    if S >= 2:
        F.append(poly_scale(poly_mul(_W, inner), Fraction(1, 16)))
    dF = [poly_diff(p) for p in F]
    for s in range(2, S):
        # builds F_{s+1} (index s in the 0-based list)
        term = poly_scale(poly_mul(_W, dF[s - 1]), half)
        # the convolution is symmetric in j <-> s - j: each pair once, doubled
        conv: Poly = []
        for j in range(1, s // 2 + 1):
            prod = poly_mul(dF[j - 1], dF[s - j - 1])
            conv = poly_add(conv, prod if 2 * j == s else poly_add(prod, prod))
        if conv:
            integrand = poly_mul(_W, conv)
            term = poly_add(term, poly_scale(
                poly_integral_from(integrand, _sigma(s)), half))
        F.append(term)
        dF.append(poly_diff(term))
    return F[:S]


@dataclass(frozen=True)
class LGCoeffTables:
    """Immutable coefficient tables up to truncation order S, in floats.

    `E_float[s-1]` / `Etilde_float[s-1]` hold the coefficients of the
    order-s polynomials of the base and tilde families, and `E_at_m1`,
    `Etilde_at_p1` the constant anchors E_s(-1), Et_s(1), so evaluation
    never touches Fractions.
    """
    S: int
    E_float: tuple[tuple[float, ...], ...]
    Etilde_float: tuple[tuple[float, ...], ...]
    E_at_m1: tuple[float, ...]
    Etilde_at_p1: tuple[float, ...]

    def eval(self, s: int, x: complex, tilde: bool) -> complex:
        """E_s(x), or Et_s(x) with ``tilde``, in double precision, s = 1..S."""
        acc = 0j
        coeffs = (self.Etilde_float if tilde else self.E_float)[s - 1]
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc


@lru_cache(maxsize=8)
def make_tables(S: int) -> LGCoeffTables:
    E = build_tables(S)
    Et = build_tables(S, tilde=True)
    return LGCoeffTables(
        S=S,
        E_float=tuple(tuple(float(c) for c in p) for p in E),
        Etilde_float=tuple(tuple(float(c) for c in p) for p in Et),
        E_at_m1=tuple(float(poly_eval_exact(p, Fraction(-1))) for p in E),
        Etilde_at_p1=tuple(float(poly_eval_exact(p, Fraction(1))) for p in Et),
    )
