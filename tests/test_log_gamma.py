"""pcf.log_gamma and pcf.gamma_sign against scipy.special, and a package
import that does not load scipy."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, gammasgn

from pcfzeros import chain, pcf
from pcfzeros.pcf import gamma_sign, log_gamma

SRC = Path(__file__).resolve().parent.parent / "src"


def _arguments(seed, n=20000):
    """Seeded arguments in every branch of Cephes lgam (above 13 its
    Stirling series has five terms, three from 1000 and none from 1e8;
    log_gamma keeps five), plus the integers (the poles, where both give
    +inf, at and below 0) and half-integers of [-200, 200) and the branch
    edges."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.uniform(-34.0, 13.0, n),                  # recurrence, rational
        rng.uniform(-300.0, -34.0, n),                # reflection
        -np.exp(rng.uniform(math.log(34.0), math.log(1e300), n)),
        rng.uniform(13.0, 1000.0, n),                 # Stirling, 5 terms
        rng.uniform(1000.0, 1e8, n),                  # 3 terms in Cephes
        np.exp(rng.uniform(math.log(1e8), math.log(1e308), n)),  # none
        np.exp(rng.uniform(-745.0, 0.0, n)),          # near the pole at 0
        np.arange(-200.0, 200.0, 0.5),
        [-34.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305, 1e306,
         math.inf, -math.inf],
    ])


def test_log_gamma_equals_scipy_gammaln():
    xs = _arguments(seed=12)
    want = gammaln(xs).tolist()
    # the one pole rule: +inf at every integer <= 0 and at -0.0, finite a
    # double away from each pole below 0 (beside 0, Cephes' 1/x overflows)
    poles = [-float(k) for k in range(401)] + [-0.0, -2.0 ** 52,
                                               -2.0 ** 53 + 1.0, -1e300]
    assert [log_gamma(x) for x in poles] == [math.inf] * len(poles)
    assert all(math.isfinite(log_gamma(math.nextafter(x, d)))
               for x in poles[1:401] + [-2.0 ** 52 + 1.0]
               for d in (math.inf, -math.inf))
    bad = [(x, log_gamma(x), w) for x, w in zip(xs.tolist(), want)
           if log_gamma(x) != w]
    assert not bad, f"{len(bad)} of {len(xs)} differ, first {bad[0]}"


def test_finite_past_the_cephes_overflow_cut():
    # Cephes returns inf past 2.556348e305, where ln Gamma is still
    # finite; the Stirling sum here runs on to its own overflow, and at
    # both ends of that window it is within an ulp of math.lgamma
    cut, top = 2.556348e305, 2.5563481638716906e305
    for x in (math.nextafter(cut, math.inf), top):
        assert gammaln(x) == math.inf
        assert abs(log_gamma(x) - math.lgamma(x)) <= math.ulp(log_gamma(x))
    assert log_gamma(math.nextafter(top, math.inf)) == math.inf


@pytest.mark.parametrize("x", [5e-324, 1e-310, -1e-310, 5.5e-309])
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Cephes' recurrence divides by x, and 1/x overflows for 0 < |x| < "
    "about 5.6e-309: log_gamma returns inf at each x here, where "
    "math.lgamma gives 744.44, 713.80, 713.80 and 709.79 (scipy's gammaln "
    "is inf too, so the test above passes); the swap to math.lgamma "
    "mends it"))
def test_finite_next_to_the_pole_at_zero(x):
    assert abs(log_gamma(x) - math.lgamma(x)) <= math.ulp(math.lgamma(x))


def test_gamma_sign_equals_scipy_gammasgn_off_the_poles():
    # gammasgn casts floor(x) to a C int, so the comparison stops at 2^31
    xs = _arguments(seed=13)
    xs = xs[(np.abs(xs) < 2.0 ** 31) & (xs != np.floor(xs))]
    want = gammasgn(xs).tolist()
    assert [gamma_sign(x) for x in xs.tolist()] == want
    # at the poles the rule still gives a sign, which multiplies a zero
    assert gamma_sign(0.0) == 1.0
    assert gamma_sign(-1.0) == -1.0 and gamma_sign(-2.0) == 1.0


def test_import_does_not_load_scipy():
    code = ("import sys, pcfzeros; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]", out.stdout


def test_no_pole_is_reachable(monkeypatch):
    # log_gamma is +inf at the integers <= 0, where math.lgamma raises
    # instead (ROADMAP item 9).  The origin values take log_gamma at
    # 3/4 + a/2 and 1/4 + a/2, whose poles are Hermite parameters, which
    # evaluate sends to the closed form, and first_zero_estimate takes it
    # at 1/2 + |a| > 0; so no argument is a pole at, or within 1e-9 of,
    # a Hermite parameter.  chain imports log_gamma by name
    args = []

    def recording(x):
        args.append(x)
        return log_gamma(x)
    monkeypatch.setattr(pcf, "log_gamma", recording)
    monkeypatch.setattr(chain, "log_gamma", recording)
    for n in range(41):
        for d in (0.0, 1e-13, -1e-13, 1e-9, -1e-9):
            a = -n - 0.5 + d
            for z in (-1.0 + 1.0j, -3.0 + 2.0j):
                pcf.evaluate(a, z)
            chain.first_zero_estimate(a, 6.0)
    assert len(args) > 400
    assert not [x for x in args if x <= 0.0 and x == math.floor(x)]
