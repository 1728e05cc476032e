"""Pure-Python Taylor stepping kernel.

Reference implementation of the hot loops; `pcfzeros._taylor_c`, built
from the hand-written `_taylor_c.c`, is the compiled twin, with the same
operations in the same order and so the same results to the bit
(`tests/test_kernels_equiv.py`); a change to the arithmetic here must be
made there too.  Selection happens in `pcfzeros.taylor` at import time.
`taylor_eval` and `step_once` take the caller's expansion, the sequence
`scaled_derivs` returns.  The tail criterion `_tail_ok` is the one home
of the step rule: `step_once` applies it to each try, and `taylor_eval`
returns its verdict with the values, which the chain hop
(`pcfzeros.chain._propagated_quotient`) takes as it comes.  `step_once`
skips only a first try that `_first_try_fails` proves the rule rejects,
in constant time from a majorant of the ODE, so every Horner sum of a
step goes through `taylor_eval`.
`taylor.step_batch` runs `scaled_derivs` on numpy arrays, whose complex
products and complex/float quotients can round differently from
CPython's, so the batch matches this kernel's first try to rounding,
not bit for bit.

The ODE is y'' = (z^2/4 + a) y.  Derivatives are stored scaled,
c_k = y^(k)(z0)/k!, so a step is a plain polynomial in h and the
recurrence keeps magnitudes balanced:

    c_{k+2} = [ (z0^2/4 + a) c_k + (z0/2) c_{k-1} + c_{k-2}/4 ]
              / ((k+1)(k+2)),   k >= 0,  c_{-1} = c_{-2} = 0.

The two hot loops (the recurrence, and the Horner sums of
`taylor_eval`) run as straight-line code for the interpreter: for each
order n, `_recurrence` and `_horner` write the loop out term by term as
source, with the unpacked coefficients as locals and the divisors and
multipliers as literals, compile it once with `exec` and cache it, as
`dataclasses` builds its methods.  The order of every floating-point
operation is load-bearing: each line keeps the operations of the plain
loops in their order, ``(q c_k + hz c_{k-1} + c_{k-2}/4) / d`` and one
Horner accumulator per sum, so that every result is identical to the
bit to that of the plain loops, which ``tests/test_taylor.py`` keeps as
an oracle: the first zero of some chains ends on a rounding-noise floor,
so another rounding would move it, and every zero after it, by more than
1e-13.  The one rewrite puts the complex operand first in a product with
a real constant (``c_k * 0.25``, ``c_k * k``): CPython's complex product
is symmetric in its operands, so the bits are the same, and the call
skips the failed float or int dispatch.
"""
from __future__ import annotations

import functools
import math

TAIL_TOL = 1e-15
MAX_SPLIT_DEPTH = 6
RESCALE_LIMIT = 1e130

KERNEL = "python"


def h_max(a: float, z: complex) -> float:
    """Largest trusted step size at expansion point z."""
    return 6.0 / max(abs(z) * 0.5, math.sqrt(abs(a)), 1.0)


def _compile(name: str, args: str, body, modules=None):
    """The function `name(args)` whose body is the given lines, with the
    modules of the dict `modules` among its globals."""
    namespace = dict(modules or {})
    exec(f"def {name}({args}):\n"
         + "".join(f"    {line}\n" for line in body), namespace)
    return namespace[name]


@functools.cache
def _recurrence(n: int):
    """`scaled_derivs` at order n as straight-line code, one line per
    term of the recurrence."""
    c = ["y0", "y1"] + [f"c{k}" for k in range(2, max(n, 3) + 1)]
    body = ["q = 0.25 * z0 * z0 + a",
            "hz = 0.5 * z0",
            "c2 = q * y0 / 2",
            "c3 = (q * y1 + hz * y0) / 6"]
    body += [f"{c[k + 2]} = (q * {c[k]} + hz * {c[k - 1]}"
             f" + {c[k - 2]} * 0.25) / {float((k + 1) * (k + 2))!r}"
             for k in range(2, n - 1)]
    body.append(f"return [{', '.join(c)}]")
    return _compile(f"scaled_derivs_{len(c) - 1}", "a, z0, y0, y1", body)


@functools.cache
def _horner(n: int):
    """The function of c and h that returns (y, y') of the expansion
    c_0..c_n (n >= 1) at displacement h, as straight-line Horner sums over
    the unpacked coefficients."""
    body = [", ".join(f"c{k}" for k in range(n + 1)) + " = c",
            f"kc = c{n} * {n}",
            f"y = c{n}",
            "yp = kc"]
    for k in range(n - 1, 0, -1):
        body += [f"kc = c{k} * {k}",
                 f"y = y * h + c{k}",
                 "yp = yp * h + kc"]
    body.append("return y * h + c0, yp")
    return _compile(f"horner_{n}", "c, h", body)


def scaled_derivs(a: float, z0: complex, y0: complex, y1: complex, n: int):
    """Scaled derivatives c_0..c_n at z0 (n+1 entries, n >= 3)."""
    return _recurrence(n)(a, z0, y0, y1)


def taylor_eval(c, h: complex):
    """Evaluate (y, y') of the expansion at displacement h.

    Returns (y, yprime, ok), ok the verdict of the tail criterion
    `_tail_ok`: the try is accepted as it stands.
    """
    n = len(c) - 1
    if n < 1:
        raise ValueError("need at least two coefficients")
    y, yp = _horner(n)(c, h)
    return y, yp, _tail_ok(c, h, y, yp)


def _tail_ok(c, h, y, yp):
    """The tail criterion of a try (y, y') of the expansion c_0..c_n at
    displacement h: tail <= TAIL_TOL max(|y|, |h| |y'|, 1e-300) on a
    finite scale, tail the larger of the last two terms of the y-sum (a
    single term can vanish by parity at symmetric expansion points).

    A modulus or a power of |h| past the largest double counts as inf,
    as C's hypot and pow give where Python raises OverflowError, so the
    verdict is the compiled kernel's.
    """
    n = len(c) - 1
    try:
        ah = abs(h)
        tail = max(abs(c[n]) * ah ** n, abs(c[n - 1]) * ah ** (n - 1))
        bound = TAIL_TOL * max(abs(y), ah * abs(yp), 1e-300)
    except OverflowError:
        def big(f, *args):
            try:
                return f(*args)
            except OverflowError:
                return math.inf
        ah = big(abs, h)
        tail = max(big(abs, c[n]) * big(pow, ah, n),
                   big(abs, c[n - 1]) * big(pow, ah, n - 1))
        bound = TAIL_TOL * max(big(abs, y), ah * big(abs, yp), 1e-300)
    return tail <= bound < math.inf


def _first_try_fails(a: float, z0: complex, c, h: complex) -> bool:
    """True if the try of c at h surely fails the tail test of `_tail_ok`,
    decided in constant time without evaluating it; c is the expansion
    c_0..c_n at z0 for parameter a, or a truncation of it.

    The ODE's majorant Y'' = ((|z0| + t)^2/4 + |a|) Y, Y(0) = |c_0|,
    Y'(0) = |c_1| has Taylor coefficients Y_k >= |c_k|, so |y| and |h| |y'|
    of the try are at most Y(r) and r Y'(r), r = |h|.  On [0, r] the
    factor is at most kappa^2 = (|z0| + r)^2/4 + |a|, and comparison with
    Y'' = kappa^2 Y bounds both by

        B = max(|c_0| + |c_1|/kappa, r (kappa |c_0| + |c_1|)) e^(kappa r).

    The try fails if its tail, computed as `_tail_ok` computes it, exceeds
    2 TAIL_TOL max(B, 1e-300); the factor 2 covers the rounding of the
    expansion, the sums and the test.  An overflow, a zero division or a
    nan leaves the try uncertified, as the compiled kernel's inf and nan
    do, so both kernels decide alike.
    """
    n = len(c) - 1
    try:
        r = abs(h)
        tail = max(abs(c[n]) * r ** n, abs(c[n - 1]) * r ** (n - 1))
        s = abs(z0) + r
        kappa = math.sqrt(0.25 * s * s + abs(a))
        y0, y1 = abs(c[0]), abs(c[1])
        b = (max(y0 + y1 / kappa, r * (kappa * y0 + y1))
             * math.exp(kappa * r))
    except (OverflowError, ZeroDivisionError):
        return False
    return 2.0 * TAIL_TOL * max(b, 1e-300) < tail < math.inf


def step_once(a: float, z0: complex, c0, h: complex):
    """One step of size h from the expansion c0 = c_0..c_n at z0, bisecting
    up to h/64 on demand; later pieces are expanded afresh to the same n.
    c0 must be the expansion at z0 for parameter a (`scaled_derivs`), or a
    truncation of it: the bound that skips a doomed first try assumes it.

    Returns (y, yprime, ok); ok is False if the tail criterion still
    fails at the smallest subdivision.
    """
    n = len(c0) - 1
    if n < 1:
        raise ValueError("need at least two coefficients")
    # a step of h_max rarely passes its first try; where the majorant
    # proves the try fails, the bisection starts at two pieces
    first = 1 if _first_try_fails(a, z0, c0, h) else 0
    for depth in range(first, MAX_SPLIT_DEPTH + 1):
        pieces = 1 << depth
        hh = h / pieces if depth else h
        # every attempt starts at z0, from the caller's expansion
        zc, yc, ypc = z0, c0[0], c0[1]
        c = c0
        for piece in range(pieces):
            if piece:
                c = scaled_derivs(a, zc, yc, ypc, n)
            y, yp, ok = taylor_eval(c, hh)
            if not ok:
                break
            zc += hh
            yc, ypc = y, yp
        else:
            return yc, ypc, True
    return yc, ypc, False


def propagate_polyline(a: float, z0: complex, y0: complex, y1: complex,
                       waypoints, order: int):
    """Propagate (y, y') along straight segments z0 -> waypoints[0] -> ...

    Steps within each segment are capped by h_max at the running point.
    Returns (y, yprime, logscale, ok); the true values are the returned
    pair times exp(logscale).
    """
    zc, yc, ypc = z0, y0, y1
    logscale = 0.0
    for target in waypoints:
        while True:
            rem = target - zc
            d = abs(rem)
            if d == 0.0:
                break
            hm = h_max(a, zc)
            h = rem if d <= hm else rem * (hm / d)
            c0 = scaled_derivs(a, zc, yc, ypc, order + 1)
            y, yp, ok = step_once(a, zc, c0, h)
            if not ok:
                return y, yp, logscale, False
            zc += h
            yc, ypc = y, yp
            m = max(abs(yc), abs(ypc))
            if m > RESCALE_LIMIT:
                logscale += math.log(m)
                yc /= m
                ypc /= m
            if d <= hm:
                break
        zc = target
    return yc, ypc, logscale, True
