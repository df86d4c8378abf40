"""Straight-line integer kernels for the certified sup and measure.

``spectral._ScaledPoly`` evaluates one integer polynomial P(t) = sum c t^m
on many dyadic boxes and points.  For each term table this module generates
Python source for the six evaluators (bounds, value, centered bound,
remainder and linear model of the Taylor model, integral) and compiles it
once: box corners are unpacked into locals, every power of an axis is one
product, every Taylor coefficient one expression, and every group of terms
of equal degree one shift.  The kernels do the integer arithmetic of the
formulas in ``_ScaledPoly``'s docstring in another order, so they return
the same integers.  Only ints and fixed identifiers enter the source;
coefficients are bound as the functions' globals, never written as
literals, since ``repr`` refuses ints of more than 4,300 digits.
"""

from __future__ import annotations

import functools
import math
from itertools import product


class _KernelBody:
    """One generated kernel: its coefficients and the powers its statements read.

    Every integer written into the source goes through ``lit`` (small
    structural ints: exponents and degrees) or ``const`` (coefficients, which
    become the function's globals and never appear as literals, so their
    size cannot reach the int-to-str digit limit).
    """

    def __init__(self):
        self.consts: dict[int, str] = {}  # coefficient -> its name
        self.powers: dict[str, int] = {}  # axis name -> highest exponent read

    @staticmethod
    def lit(v: int) -> str:
        assert type(v) is int
        return str(v)

    def const(self, c: int) -> str:
        assert type(c) is int
        return self.consts.setdefault(c, f"c{len(self.consts)}")

    def power(self, var: str, e: int) -> str:
        if e == 1:
            return var
        self.powers[var] = max(self.powers.get(var, 1), e)
        return f"{var}_{self.lit(e)}"

    def monomial(self, c: int, mono, xs) -> str:
        return " * ".join([self.const(c)] + [self.power(x, e) for x, e in zip(xs, mono) if e])

    def shifted(self, groups: dict[int, list[str]], degree: int, shift: str) -> str:
        """Sum of the terms, each degree-g group shifted by (degree - g) * shift."""
        parts = []
        for g in sorted(groups, reverse=True):
            total = " + ".join(groups[g])
            if g == degree:
                parts.append(f"({total})")
            else:
                parts.append(f"(({total}) << {self.lit(degree - g)} * {shift})")
        return " + ".join(parts) or "0"

    def value(self, terms, degree: int, xs, shift: str) -> str:
        """sum c t^m at t = xs / 2**shift, as a numerator over 2**(shift*degree)."""
        groups: dict[int, list[str]] = {}
        for m, c in terms:
            groups.setdefault(sum(m), []).append(self.monomial(c, m, xs))
        return self.shifted(groups, degree, shift)

    def interval(self, terms, degree: int, ls, hs) -> tuple[str, str]:
        """Monomial-wise (min, max) of sum c t^m over the box [ls, hs] / 2**k,
        as numerators over 2**(k*degree): each monomial is monotone on the
        positive orthant."""
        mn: dict[int, list[str]] = {}
        mx: dict[int, list[str]] = {}
        for m, c in terms:
            low, high = (ls, hs) if c > 0 else (hs, ls)
            mn.setdefault(sum(m), []).append(self.monomial(c, m, low))
            mx.setdefault(sum(m), []).append(self.monomial(c, m, high))
        return self.shifted(mn, degree, "k"), self.shifted(mx, degree, "k")

    def build(self, name: str, params: str, prelude: list[str], body: list[str]):
        """The function ``name``: prelude, one product per power read, body.

        Compiled on its own, so that the compiler's transient memory is that
        of one kernel."""
        lines = list(prelude)
        for var, top in self.powers.items():
            lines.append(f"{var}_2 = {var} * {var}")
            lines += [f"{var}_{e} = {var}_{e - 1} * {var}" for e in range(3, top + 1)]
        source = "\n".join([f"def {name}({params}):"] + ["    " + line for line in lines + body])
        namespace = {const: c for c, const in self.consts.items()}
        exec(compile(source, f"<nilframe.kernels {name}>", "exec"), namespace)
        return namespace[name]


@functools.lru_cache(maxsize=64)
def compile_kernels(nvars: int, monos: tuple, lcm: int) -> tuple:
    """``_ScaledPoly``'s six evaluators for P = sum c t^m over ``monos``.

    Generates one Python function per evaluator as straight-line code: the
    box's integer corners are unpacked, each power of an axis is computed
    once, every Taylor coefficient d^alpha P / alpha! is one expression, and
    each group of terms of equal degree g is shifted once by (D - g) * k.
    Exact, since it is the same integer arithmetic summed in another order.
    The key is the integer term table, so the polynomial that sup, measure
    and sublevel measure share in one job compiles once.
    """
    D = max((sum(m) for m, _ in monos), default=0)
    # Taylor coefficient polynomials d^alpha P / alpha!, same integer
    # denominator: the unit alphas give the gradient, |alpha| >= 2 the
    # linear model's remainder
    taylor: dict[tuple[int, ...], list] = {}
    for m, c in monos:
        for alpha in product(*(range(e + 1) for e in m)):
            coef = c * math.prod(math.comb(e, a) for e, a in zip(m, alpha))
            taylor.setdefault(alpha, []).append((tuple(e - a for e, a in zip(m, alpha)), coef))
    grad = [taylor.get(tuple(int(i == axis) for i in range(nvars)), []) for axis in range(nvars)]

    axes = range(nvars)
    ls, hs, xs, ws = ([f"{v}{i}" for i in axes] for v in "lhxw")
    box = "lo_num, hi_num, k"
    unpack = ["".join(f"{v}, " for v in ls) + "= lo_num"]
    unpack.append("".join(f"{v}, " for v in hs) + "= hi_num")
    centered = unpack + [f"x{i} = l{i} + h{i}" for i in axes] + ["k1 = k + 1"]

    b = _KernelBody()
    mn, mx = b.interval(monos, D, ls, hs)
    bounds = b.build("bounds", box, unpack, [f"return {mn}, {mx}, k * {b.lit(D)}"])

    b = _KernelBody()
    value = b.value(monos, D, xs, "k")
    value_num = b.build(
        "value_num", "num, k", ["".join(f"{x}, " for x in xs) + "= num"], [f"return {value}"]
    )

    b = _KernelBody()
    body = [f"bound = abs({b.value(monos, D, xs, 'k1')})"]
    for axis, deriv in enumerate(grad):
        if deriv:
            dmn, dmx = b.interval(deriv, D - 1, ls, hs)
            body += [f"mn = {dmn}", f"mx = {dmx}"]
            body.append(f"bound += max(mx, -mn) * (h{axis} - l{axis}) << {b.lit(D - 1)}")
    centered_abs_upper = b.build("centered_abs_upper", box, centered, body + ["return bound"])

    # the remainder's coefficients of order D are constants, folded here;
    # lower orders are polynomials evaluated at the center
    b = _KernelBody()
    terms = []
    for alpha, deriv in taylor.items():
        order = sum(alpha)
        if order < 2:
            continue
        if order < D:
            coef = f"abs({b.value(deriv, D - order, xs, 'k1')})"
        else:
            coef = b.const(abs(sum(c for _, c in deriv)))
        terms.append(" * ".join([coef] + [b.power(w, a) for w, a in zip(ws, alpha) if a]))
    remainder_num = b.build(
        "remainder_num",
        box,
        centered + [f"w{i} = h{i} - l{i}" for i in axes],
        [f"return {' + '.join(terms) or '0'}"],
    )

    b = _KernelBody()
    q0 = b.value(monos, D, xs, "k1")
    q = ", ".join(b.value(deriv, D - 1, xs, "k1") for deriv in grad)
    linear_model = b.build("linear_model", box, centered, [f"return {q0}, [{q}]"])

    # the integral of t^e over [l, h] at depth k is (h^(e+1) - l^(e+1)) / (e+1),
    # over 2**(k*(e+1)); 1/(e+1) goes into lcm
    b = _KernelBody()
    groups: dict[int, list[str]] = {}
    diffs: dict[str, str] = {}
    for m, c in monos:
        factors = [b.const(c * (lcm // math.prod(e + 1 for e in m)))]
        for axis, e in enumerate(m):
            name = f"d{axis}_{b.lit(e + 1)}"
            diffs[name] = f"{b.power(hs[axis], e + 1)} - {b.power(ls[axis], e + 1)}"
            factors.append(name)
        groups.setdefault(sum(m), []).append(" * ".join(factors))
    integral_num = b.build(
        "integral_num",
        box,
        unpack,
        [f"{name} = {expr}" for name, expr in diffs.items()]
        + [f"return {b.shifted(groups, D, 'k')}"],
    )
    return bounds, value_num, centered_abs_upper, remainder_num, linear_model, integral_num
