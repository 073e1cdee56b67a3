"""Factorization of univariate polynomials over a number field (norm method).

For squarefree f over K = Q[t]/(m) pick a small integer shift s so that the
norm N(x) = Res_t(m(t), f(x - s*t)) is squarefree over Q; then the factors
of f over K are the gcds of f with the rational factors of N shifted back.
The norm is one bivariate resultant over the integers (`unipoly._zz_resultant`).
Only single extensions of Q are handled.
"""

from __future__ import annotations

from math import comb

from .fields import QQ, NumberField
from .qpoly import factor_rational, squarefree_q
from .unipoly import UniPoly, _zz_resultant, gcd as poly_gcd, squarefree_decomposition


def _norm(f: UniPoly, s: int) -> UniPoly:
    """N(x) = Res_t(m(t), f(x - s*t)) over Q, each coefficient of f taken as
    its power-basis polynomial in t."""
    m = {(k, 0): c for k, c in enumerate(f.field.min_poly)}
    shifted = {}
    for i, c in enumerate(f.coeffs):
        for l in range(i + 1):
            b = comb(i, l) * (-s) ** l
            for k, a in enumerate(c.coords):
                if a and b:
                    shifted[k + l, i - l] = shifted.get((k + l, i - l), 0) + a * b
    return _zz_resultant(m, shifted, QQ)


def factor_squarefree_over_field(f: UniPoly):
    """Monic irreducible factors over the number field of a squarefree input."""
    K = f.field
    if not isinstance(K, NumberField):
        raise ValueError("use factor_rational over Q")
    f = f.monic()
    if f.degree <= 1:
        return [f]
    for s in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5):
        norm = _norm(f, s)
        if norm.degree != f.degree * K.degree:
            continue
        if not squarefree_q(norm):
            continue
        _, rational_factors = factor_rational(norm)
        shift = K.gen * s  # factor of N(x) matches f via x -> x + s*t
        out = []
        for nf, _ in rational_factors:
            lifted = UniPoly(K, [K.coerce(c) for c in nf.coeffs]).shift(shift)
            g = poly_gcd(f, lifted)
            if g.degree >= 1:
                out.append(g.monic())
        total = sum(g.degree for g in out)
        if total != f.degree:
            continue
        out.sort(key=lambda g: (g.degree, tuple(tuple(c.coords) for c in g.coeffs)))
        return out
    raise ValueError("no squarefree norm found; extension may be degenerate")


def factor_over_field(p: UniPoly):
    """(unit, [(monic irreducible, multiplicity)]) over a number field."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    K = p.field
    unit = p.lc
    out = []
    for w, mult in squarefree_decomposition(p):
        for g in factor_squarefree_over_field(w):
            out.append((g, mult))
    out.sort(key=lambda fm: (fm[0].degree, tuple(tuple(c.coords) for c in fm[0].coeffs)))
    return unit, out
