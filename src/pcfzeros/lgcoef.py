"""Exact-rational coefficient polynomials for the Liouville-Green expansions.

Two families of polynomials in the variable b (the scaled LG variable,
written beta-bar elsewhere) are built in exact rational arithmetic: the
base family used for the function expansions and a tilde family used
for the derivative expansions.  Both satisfy an integro-differential
recurrence that keeps every coefficient an exact rational; floats only
appear when a polynomial is evaluated.

A polynomial is held in integers alone, as a pair (numerators,
denominator): its coefficients in ascending powers are n / denominator
for n in numerators, over one positive common denominator, reduced so
that no integer greater than 1 divides the denominator and every
numerator.  A coefficient's float is n / denominator, which Python
rounds correctly, as it rounds float(Fraction(n, denominator)); the
evaluators read only these floats, the pair (base, tilde) of tables of
:func:`make_tables`.
"""
from __future__ import annotations

import math
from functools import lru_cache

Poly = tuple[list[int], int]
Table = tuple[tuple[float, ...], ...]  # one family's floats, order by order


def _reduce(nums: list[int], den: int) -> Poly:
    """(nums, den) with trailing zero numerators dropped and the common
    factor of den and the numerators divided out; den must be positive."""
    while nums and nums[-1] == 0:
        nums.pop()
    g = math.gcd(den, *nums)
    return [n // g for n in nums], den // g


def poly_add(p: Poly, q: Poly) -> Poly:
    (pn, pd), (qn, qd) = p, q
    den = math.lcm(pd, qd)
    out = [0] * max(len(pn), len(qn))
    for nums, d in ((pn, pd), (qn, qd)):
        f = den // d
        for i, c in enumerate(nums):
            out[i] += c * f
    return _reduce(out, den)


def poly_mul(p: Poly, q: Poly) -> Poly:
    (pn, pd), (qn, qd) = p, q
    out = [0] * max(len(pn) + len(qn) - 1, 0)
    for i, a in enumerate(pn):
        if a:
            for j, b in enumerate(qn):
                out[i + j] += a * b
    return _reduce(out, pd * qd)


def poly_diff(p: Poly) -> Poly:
    nums, den = p
    return _reduce([k * nums[k] for k in range(1, len(nums))], den)


def poly_integral_from(p: Poly, lower: int) -> Poly:
    """Definite integral of p from `lower`, which is 0 or 1, to the
    variable, as a polynomial."""
    nums, den = p
    m = math.lcm(*range(1, len(nums) + 1))
    out = [0] + [c * (m // (k + 1)) for k, c in enumerate(nums)]
    if lower:
        out[0] = -sum(out)
    return _reduce(out, den * m)


# (b^2 - 1)^2, shared by both recurrences.
_W: Poly = ([1, 0, -2, 0, 1], 1)


def build_tables(S: int, tilde: bool = False) -> list[Poly]:
    """Polynomials of one family for s = 1..S.

    Each family is seeded with its printed first order alone: the base
    family (function expansions) with E_1 = (5 b^3 - 6 b)/24, the tilde
    family (derivative expansions, ``tilde=True``) with
    Et_1 = (7 b^3 - 6 b)/24.  Every higher order comes from the recurrence
        F_{s+1} = +-(1/2) [(b^2-1)^2 F_s' + Int_{sigma(s)}^{b} (p^2-1)^2
                  sum_{j=1}^{s-1} F_j'(p) F_{s-j}'(p) dp],
    with the upper sign for the base family and the lower one for the
    tilde family, and the lower limit sigma(s) = 1 for s odd, 0 for s
    even.  At s = 1 the sum is empty, so F_2 = +-(1/2) (b^2-1)^2 F_1',
    which is the printed E_2 = (1/16) (b^2-1)^2 (5 b^2 - 2) and
    Et_2 = (1/16) (b^2-1)^2 (2 - 7 b^2).
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    sign, c3 = (-1, 7) if tilde else (1, 5)
    F: list[Poly] = [([0, -6, 0, c3], 24)]
    dF = [poly_diff(F[0])]
    for s in range(1, S):   # builds F_{s+1}, index s in the 0-based list
        # the convolution is symmetric in j <-> s - j: each pair once, doubled
        conv: Poly = ([], 1)
        for j in range(1, s // 2 + 1):
            conv = poly_add(conv, poly_mul(poly_mul(dF[j - 1], dF[s - j - 1]),
                                           ([1 if 2 * j == s else 2], 1)))
        F.append(poly_mul(poly_add(
            poly_mul(_W, dF[s - 1]),
            poly_integral_from(poly_mul(_W, conv), s % 2)), ([sign], 2)))
        dF.append(poly_diff(F[-1]))
    return F


@lru_cache(maxsize=8)
def make_tables(S: int) -> tuple[Table, Table]:
    """The base and the tilde family for s = 1..S as a pair of float
    tables, entry s-1 of each the order-s coefficients, ascending."""
    return tuple(tuple(tuple(n / d for n in nums) for nums, d in
                       build_tables(S, tilde)) for tilde in (False, True))
