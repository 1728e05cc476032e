"""Coefficient tables: independent symbolic oracle, parity, unit points."""
import math
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy as sp

from pcfzeros import lgcoef
from pcfzeros.lgcoef import make_tables
from pcfzeros.lgeval import _folded_sum

ORACLE_S = 12
FULL_S = 12


def build_tables(S, tilde=False):
    """`lgcoef.build_tables` with each polynomial's integer numerators
    over its common denominator turned into exact Fractions."""
    return [[Fraction(n, den) for n in nums]
            for nums, den in lgcoef.build_tables(S, tilde)]


def poly_eval_exact(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=2)
def _oracle(tilde):
    """Brute-force symbolic recurrence, no shared polynomial kernels: the
    full convolution over j = 1..s-1 and dense products."""
    b, p = sp.symbols("b p")
    w = (b**2 - 1) ** 2
    sign = -1 if tilde else 1
    if tilde:
        polys = [sp.Rational(7, 24) * b**3 - sp.Rational(1, 4) * b,
                 sp.Rational(1, 16) * w * (2 - 7 * b**2)]
    else:
        polys = [sp.Rational(5, 24) * b**3 - sp.Rational(1, 4) * b,
                 sp.Rational(1, 16) * w * (5 * b**2 - 2)]
    while len(polys) < ORACLE_S:
        s = len(polys)
        conv = sum(sp.diff(polys[j - 1], b) * sp.diff(polys[s - j - 1], b)
                   for j in range(1, s))
        lower = 1 if s % 2 == 1 else 0
        integrand = sp.expand((w * conv).subs(b, p))
        nxt = sign * (sp.Rational(1, 2) * w * sp.diff(polys[s - 1], b)
                      + sp.Rational(1, 2) * sp.integrate(integrand, (p, lower, b)))
        polys.append(sp.expand(nxt))
    return [sp.Poly(q, b).all_coeffs()[::-1] for q in polys]


def _as_fractions(sympy_coeffs):
    return [Fraction(int(sp.fraction(c)[0]), int(sp.fraction(c)[1]))
            for c in sympy_coeffs]


def test_base_family_matches_symbolic_oracle():
    ours = build_tables(ORACLE_S)
    theirs = _oracle(tilde=False)
    for s in range(ORACLE_S):
        assert list(ours[s]) == _as_fractions(theirs[s]), f"E_{s+1} differs"


def test_tilde_family_matches_symbolic_oracle():
    ours = build_tables(ORACLE_S, tilde=True)
    theirs = _oracle(tilde=True)
    for s in range(ORACLE_S):
        assert list(ours[s]) == _as_fractions(theirs[s]), f"Et_{s+1} differs"


def test_second_order_is_the_printed_closed_form():
    # the recurrence's s = 1 step gives the printed second orders,
    # E_2 = (1/16) (b^2-1)^2 (5 b^2 - 2) = (5 b^6 - 12 b^4 + 9 b^2 - 2)/16
    # and Et_2 = (1/16) (b^2-1)^2 (2 - 7 b^2)
    #          = (-7 b^6 + 16 b^4 - 11 b^2 + 2)/16
    assert lgcoef.build_tables(2)[1] == ([-2, 0, 9, 0, -12, 0, 5], 16)
    assert lgcoef.build_tables(2, tilde=True)[1] == (
        [2, 0, -11, 0, 16, 0, -7], 16)


def test_float_tables_match_symbolic_oracle():
    # the two float tables the evaluators read, from the oracle's exact
    # coefficients, equal make_tables' float for float
    t = make_tables(ORACLE_S)
    E = [_as_fractions(c) for c in _oracle(tilde=False)]
    Et = [_as_fractions(c) for c in _oracle(tilde=True)]
    assert t[0] == tuple(tuple(float(c) for c in p) for p in E)
    assert t[1] == tuple(tuple(float(c) for c in p) for p in Et)


def test_parity():
    # order-s polynomials contain only powers of the parity of s
    for fam in (build_tables(FULL_S), build_tables(FULL_S, tilde=True)):
        for s, poly in enumerate(fam, start=1):
            for k, c in enumerate(poly):
                if (k - s) % 2 != 0:
                    assert c == 0, f"parity violation at s={s}, power {k}"


def test_even_orders_vanish_at_unit_points():
    E = build_tables(FULL_S)
    Et = build_tables(FULL_S, tilde=True)
    for s in range(2, FULL_S + 1, 2):
        for x in (Fraction(1), Fraction(-1)):
            assert poly_eval_exact(list(E[s - 1]), x) == 0
            assert poly_eval_exact(list(Et[s - 1]), x) == 0


def test_tables_are_cached_and_consistent():
    t1 = make_tables(12)
    t2 = make_tables(12)
    assert t1 is t2
    assert [len(fam_float) for fam_float in t1] == [12, 12]
    E = build_tables(12)
    Et = build_tables(12, tilde=True)
    # float copies agree with the exact coefficients
    for fam, fam_float in ((E, t1[0]), (Et, t1[1])):
        for p_exact, p_float in zip(fam, fam_float, strict=True):
            assert [float(c) for c in p_exact] == list(p_float)


def test_no_order_is_an_error():
    with pytest.raises(ValueError, match="S must be >= 1"):
        lgcoef.build_tables(0)


def test_integer_form_is_reduced():
    # each polynomial: a positive denominator with no factor common to
    # all its numerators, and no trailing zero numerator
    for tilde in (False, True):
        for nums, den in lgcoef.build_tables(FULL_S, tilde):
            assert den > 0
            assert math.gcd(den, *nums) == 1
            assert nums and nums[-1] != 0


def test_eval_matches_exact_evaluation():
    # the first order of a fold, evaluated by `_folded_sum`'s Horner pass
    # in beta: here a fold of order s alone, with u^s = 1
    t = make_tables(8)
    x = Fraction(3, 7)
    for tilde in (False, True):
        fam = build_tables(8, tilde)
        coeffs = t[tilde]
        for s in range(1, 9):
            exact = float(poly_eval_exact(list(fam[s - 1]), x))
            # errors scale with the coefficient magnitudes, not the value
            scale = sum(abs(float(c)) * float(x) ** k
                        for k, c in enumerate(fam[s - 1]))
            fold = (s, 1.0, tuple(reversed(coeffs[s - 1])), (), ())
            got = _folded_sum(fold, float(x), float(x) ** 2)
            assert abs(got - exact) < 1e-14 * max(1.0, scale)

