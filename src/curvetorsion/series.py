"""Truncated power series in one local parameter s, exact coefficients."""

from __future__ import annotations


class TruncSeries:
    """Coefficients c[0..order] of a series known modulo s^(order+1)."""

    __slots__ = ("field", "order", "coeffs")

    def __init__(self, field, order, coeffs, coerce=True):
        # arithmetic passes coerce=False: its order + 1 coefficients are in the field
        if coerce:
            coeffs = [field.coerce(c) for c in coeffs[: order + 1]]
            coeffs += [field.zero] * (order + 1 - len(coeffs))
        self.field = field
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, field, order, c):
        return cls(field, order, [c])

    def __add__(self, other):
        order, is_zero = min(self.order, other.order), self.field.is_zero
        out = [a if is_zero(b) else a + b for a, b in zip(self.coeffs[: order + 1], other.coeffs)]
        return TruncSeries(self.field, order, out, coerce=False)

    def __mul__(self, other):
        """Product skipping zero coefficients on both sides, so a factor with
        few nonzero terms (theta + s, or 1) costs O(order)."""
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        order, is_zero = min(self.order, other.order), self.field.is_zero
        right = [(j, b) for j, b in enumerate(other.coeffs[: order + 1]) if not is_zero(b)]
        out = [None] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if is_zero(a):
                continue
            for j, b in right:
                if i + j > order:
                    break
                prev = out[i + j]
                out[i + j] = a * b if prev is None else prev + a * b
        zero = self.field.zero
        return TruncSeries(self.field, order, [zero if c is None else c for c in out], coerce=False)

    __rmul__ = __mul__

    def scale(self, c):
        is_zero = self.field.is_zero
        return TruncSeries(self.field, self.order, [a if is_zero(a) else a * c for a in self.coeffs], coerce=False)

    def valuation(self):
        """Index of the first nonzero coefficient, or None if zero so far."""
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return i
        return None

    def coeff(self, i):
        return self.coeffs[i]

    def __repr__(self):
        return f"TruncSeries(order={self.order}, {list(self.coeffs)})"


def series_pow_cache(base: TruncSeries):
    """Memoized nonnegative powers of a series."""
    one = TruncSeries.constant(base.field, base.order, base.field.one)
    cache = {0: one}

    def power(n):
        if n not in cache:
            cache[n] = power(n - 1) * base
        return cache[n]

    return power


def eval_form_on_series(form, sx, sy, sz):
    """Evaluate a homogeneous form at three series with compatible field.

    Horner's scheme (`HomogeneousPoly.substitute`, after Brent-Kung 1978): a
    form of degree d takes d dense products by sy, and the products by sx
    and sz cost O(order) each when those are chart series (theta + s and 1),
    since products skip zero coefficients.
    """
    field = sx.field
    one = TruncSeries.constant(field, min(sx.order, sy.order, sz.order), field.one)
    return form.to_field(field).substitute(sx, sy, sz, one)
