"""Double-double arithmetic, written out as straight-line source.

A double-double is a pair (hi, lo) of doubles with hi + lo its
unevaluated sum and |lo| <= ulp(hi)/2; a complex one is a pair (re, im)
of them.  :class:`Source` writes the lines of Python that compute
Dekker's error-free transformations (Dekker 1971, Numer. Math. 18) and
the double-double operations built from them, on named operands and
each result in fresh local names, so that a caller composes one
function from them and compiles it once (`lgeval`, when it loads): in
the interpreter the calls of such small routines, not their float
operations, would take most of the time.  Each operation is written
once, here, as the float operations of the textbook routine in their
order; the one saving is that an operand is split once however often
it enters a product, which gives the same bits.
"""
from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1

Pair = tuple[str, str]          # a double-double, as (hi, lo) operands


class Source:
    """The body of a straight-line function being written: `lines`,
    with every intermediate in a fresh local t1, t2, ...  Operands are
    local names, literals, or negated names."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._splits: dict[str, Pair] = {}

    def let(self, expr: str) -> str:
        """A fresh local bound to the value of expr."""
        name = f"t{len(self.lines) + 1}"
        self.lines.append(f"{name} = {expr}")
        return name

    def two_sum(self, a: str, b: str) -> Pair:
        """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
        s = self.let(f"{a} + {b}")
        bb = self.let(f"{s} - {a}")
        return s, self.let(f"({a} - ({s} - {bb})) + ({b} - {bb})")

    def quick_two_sum(self, a: str, b: str) -> Pair:
        """two_sum for |a| >= |b|."""
        s = self.let(f"{a} + {b}")
        return s, self.let(f"{b} - ({s} - {a})")

    def split(self, a: str) -> Pair:
        """(hi, lo) with hi + lo = a and each half of 26 bits or fewer."""
        if a not in self._splits:
            c = self.let(f"{_SPLITTER!r} * {a}")
            hi = self.let(f"{c} - ({c} - {a})")
            self._splits[a] = hi, self.let(f"{a} - {hi}")
        return self._splits[a]

    def two_prod(self, a: str, b: str) -> Pair:
        """(p, e) with p = fl(a b) and p + e = a b exactly."""
        p = self.let(f"{a} * {b}")
        ah, al = self.split(a)
        bh, bl = self.split(b)
        return p, self.let(f"(({ah} * {bh} - {p}) + {ah} * {bl}"
                           f" + {al} * {bh}) + {al} * {bl}")

    def add(self, x: Pair, y: Pair) -> Pair:
        s, e = self.two_sum(x[0], y[0])
        return self.quick_two_sum(s, self.let(f"{e} + ({x[1]} + {y[1]})"))

    def mul(self, x: Pair, y: Pair) -> Pair:
        p, e = self.two_prod(x[0], y[0])
        return self.quick_two_sum(
            p, self.let(f"{e} + ({x[0]} * {y[1]} + {x[1]} * {y[0]})"))

    def mul_d(self, x: Pair, d: str) -> Pair:
        """x times the double d."""
        p, e = self.two_prod(x[0], d)
        return self.quick_two_sum(p, self.let(f"{e} + {x[1]} * {d}"))

    def div(self, x: Pair, y: Pair) -> Pair:
        q = self.let(f"{x[0]} / {y[0]}")
        r = self.add(x, self.mul_d(y, f"-{q}"))
        return self.quick_two_sum(q, self.let(f"{r[0]} / {y[0]}"))

    def sqrt(self, a: Pair) -> Pair:
        """The square root of a, a[0] > 0: math.sqrt and one Newton step;
        the generated code needs `math` among its globals."""
        x = self.let(f"math.sqrt({a[0]})")
        r = self.add(a, self.mul((f"-{x}", "0.0"), (x, "0.0")))
        return self.quick_two_sum(x, self.let(f"{r[0]} / (2.0 * {x})"))

    # complex double-doubles, componentwise

    def cadd(self, x, y):
        return self.add(x[0], y[0]), self.add(x[1], y[1])

    def cmul(self, x, y):
        (xr, xi), (yr, yi) = x, y
        return (self.add(self.mul(xr, yr),
                         self.mul_d(self.mul(xi, yi), "-1.0")),
                self.add(self.mul(xr, yi), self.mul(xi, yr)))

    def cmul_d(self, x, d: str):
        return self.mul_d(x[0], d), self.mul_d(x[1], d)
