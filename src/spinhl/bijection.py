"""Weight-preserving correspondence between degenerate vertex ensembles and
monotone triangles, for strictly decreasing top boundaries.

When every spin value equals -1/t the configuration (2,1;0,1) gets weight
zero, so for a strict boundary partition all surviving ensembles have edge
multiplicities at most 1.  Reading off the column of each up-step row by row
turns such an ensemble into a monotone triangle, and after normalizing the
five local weights the map matches the polynomial triangle weight with
u = v = t - 1/t and w = 1/q - q.
"""

from collections import Counter
from fractions import Fraction

from .arith import ParamPoint, SpinParams, invert
from .robbins import (
    MonotoneTriangle,
    damts_of,
    damt_weight,
    mt_weight,
    robbins_star_bialternant,
    robbins_star_enum,
)
from .symfun import as_parts, f_lambda
from .vertex import PathEnsemble, enumerate_ensembles


def robbins_parameters(t):
    """(u, v, w) used on the triangle side: u = v = t - 1/t, w = 1/q - q."""
    t = Fraction(t)
    v = t - invert(t, "t")
    w = invert(t, "t") ** 2 - t * t
    return v, v, w


def x_to_u(x, t):
    """Spectral value matching the triangle variable x when s = -1/t."""
    x, t = Fraction(x), Fraction(t)
    return (x - invert(t, "t")) * invert(1 - x * invert(t, "t"), "1 - x/t")


def u_to_x(u, t):
    u, t = Fraction(u), Fraction(t)
    return (u + invert(t, "t")) * invert(1 + u * invert(t, "t"), "1 + u/t")


_ADMISSIBLE = {(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)}


def degenerate_weight(cfg, x, t):
    """Local weight at spin -1/t written in the triangle variable x: the
    normalized weight (``normalized_weight``) with the 1 - 1/q denominator
    restored on the entries fed from below.  The empty vertex weighs 1."""
    weight = normalized_weight(cfg, x, t)
    if not any(cfg):
        return weight
    inv = invert(1 - 1 / Fraction(t) ** 2, "1 - 1/q")
    return weight * inv if cfg[0] else weight


def normalized_weight(cfg, x, t, is_leftmost_0110=False):
    """Degenerate weight with the per-row normalization absorbed: entries fed
    from below lose the 1 - 1/q denominator, and the leftmost configuration
    of type (0,1;1,0) in each row has weight 1."""
    cfg = tuple(cfg)
    if cfg == (0, 0, 0, 0):
        return Fraction(1)
    if cfg not in _ADMISSIBLE:
        raise ValueError("configuration %r does not survive the degeneration" % (cfg,))
    x, t = Fraction(x), Fraction(t)
    q = t * t
    v = t - invert(t, "t")
    if cfg == (1, 1, 0, 0):
        return v * x
    if cfg == (0, 0, 1, 1):
        return x
    if cfg == (1, 1, 1, 1):
        return v
    if cfg == (1, 0, 0, 1):
        return -v / q + x * (1 - 1 / q)
    if is_leftmost_0110:
        return Fraction(1)
    return (1 - q + x * v) * invert(1 - 1 / q, "1 - 1/q")


def strict_ensembles(lam):
    """All nonzero-weight ensembles of the degenerate model: multiplicities <= 1."""
    lam = as_parts(lam)
    if len(set(lam)) != len(lam):
        raise ValueError("the degenerate model needs a strictly decreasing partition")
    return enumerate_ensembles(lam, cap=1)


def ensemble_to_triangle(ens):
    """Triangle whose row i lists the columns of the up-steps between rows i
    and i+1; the bottom row is the reversed boundary partition."""
    if ens.max_multiplicity() > 1:
        raise ValueError("ensemble has a vertical edge shared by two paths")
    rows = []
    for r in range(1, ens.n + 1):
        rows.append(tuple(c for c, g in enumerate(ens.occ[r]) if g))
    return MonotoneTriangle(tuple(rows))


def triangle_to_ensemble(M):
    """Inverse map: rebuild the occupancy rows, in the columns up to the
    largest entry, from the triangle rows."""
    lam = tuple(sorted(M.bottom, reverse=True))
    if len(set(lam)) != len(lam):
        raise ValueError("bottom row must be strictly increasing")
    maxc = lam[0]
    occ = [(0,) * (maxc + 1)]
    for row in M.rows:
        occ.append(tuple(1 if c in row else 0 for c in range(maxc + 1)))
    ens = PathEnsemble(lam, tuple(occ))
    for _row, _col, cfg in ens.vertices():
        if cfg not in _ADMISSIBLE:
            raise ValueError("triangle does not encode an admissible ensemble")
    return ens


def _leftmost_0110_columns(ens):
    """Column of the leftmost (0,1;1,0) vertex in each row, keyed by row."""
    out = {}
    for row, col, cfg in ens.vertices():
        if cfg == (0, 1, 1, 0) and row not in out:
            out[row] = col
    return out


def normalized_product(ens, xs, t, table=None):
    """Product of normalized local weights over an ensemble; row i uses x_i.
    A weight depends on its vertex only through (configuration, row, whether
    it is the row's leftmost (0,1;1,0)), so each distinct one is computed
    once, in the order of its first vertex, and raised to its count.
    ``table`` is the dict of those weights by that key, filled as they are
    first met; callers over many ensembles at one (xs, t) pass one table to
    all of them (``verify_lemma_connection``)."""
    xs = tuple(Fraction(v) for v in xs)
    if len(xs) != ens.n:
        raise ValueError("need one variable per row")
    if table is None:
        table = {}
    leftmost = _leftmost_0110_columns(ens)
    counts = Counter((cfg, row, leftmost.get(row) == col) for row, col, cfg in ens.vertices())
    out = Fraction(1)
    for key, k in counts.items():
        weight = table.get(key)
        if weight is None:
            cfg, row, first = key
            weight = table[key] = normalized_weight(cfg, xs[row - 1], t, first)
        out *= weight**k
    return out


def degenerate_product(ens, xs, t):
    out = Fraction(1)
    for row, col, cfg in ens.vertices():
        out *= degenerate_weight(cfg, xs[row - 1], t)
    return out


def pairing_counts(ens):
    """Per-row counts of (1,0;0,1) and (0,1;1,0) vertices; the latter always
    exceeds the former by exactly one in each row."""
    out = {}
    for row, _col, cfg in ens.vertices():
        enter, leave = out.get(row, (0, 0))
        if cfg == (1, 0, 0, 1):
            enter += 1
        elif cfg == (0, 1, 1, 0):
            leave += 1
        out[row] = (enter, leave)
    return out


def colored_sum(ens, xs, t):
    """Generating function of the colored variant: all (0,1;1,0) weights are 1
    and each (1,0;0,1) vertex carries one of three colors with weights v, w*x,
    v*x^2.  Used only as a consistency check against the decorated triangles."""
    xs = tuple(Fraction(v) for v in xs)
    t = Fraction(t)
    q = t * t
    v = t - invert(t, "t")
    w = 1 / q - q
    out = Fraction(1)
    for row, _col, cfg in ens.vertices():
        x = xs[row - 1]
        if cfg == (1, 1, 0, 0):
            out *= v * x
        elif cfg == (0, 0, 1, 1):
            out *= x
        elif cfg == (1, 1, 1, 1):
            out *= v
        elif cfg == (1, 0, 0, 1):
            out *= v + w * x + v * x * x
        elif cfg != (0, 1, 1, 0):
            raise ValueError("configuration %r does not survive the degeneration" % (cfg,))
    return out


def decorated_sum(M, xs, t):
    """Sum of decorated-triangle weights over all decorations of M, at the
    triangle parameters u = v, w."""
    u, v, w = robbins_parameters(t)
    return sum(damt_weight(D, xs, u, v, w) for D in damts_of(M))


def lemma_point(t, xs):
    """Evaluation point for the triangle relation: all spins -1/t and
    u_i = (x_i - 1/t)/(1 - x_i/t)."""
    t = Fraction(t)
    u = tuple(x_to_u(x, t) for x in xs)
    return ParamPoint(t, Fraction(1), SpinParams.constant(-invert(t, "t")), u)


def verify_lemma_connection(lam, t, xs):
    """Check the relation between the modified Robbins polynomial with
    u = v = t - 1/t, w = 1/q - q and F_lambda at spins -1/t.

    For strict lam both the enumeration and the antisymmetrizer compute the
    left side and the correspondence is additionally checked object by
    object; for general lam both sides are evaluated by their antisymmetrizer
    formulas.  Returns True on exact equality.
    """
    lam = as_parts(lam)
    n = len(lam)
    t = Fraction(t)
    xs = tuple(Fraction(v) for v in xs)
    if len(xs) != n:
        raise ValueError("need one x per part")
    q = t * t
    uu, vv, ww = robbins_parameters(t)
    bottom = tuple(reversed(lam))
    lhs = robbins_star_bialternant(bottom, xs, uu, vv, ww)
    point = lemma_point(t, xs)
    norm = Fraction(1 - 1 / q) ** (n * (n - 1) // 2)
    for x in xs:
        norm *= (1 - 1 / q) * invert(1 - q + vv * x, "1 - q + v*x")
    rhs = norm * f_lambda(lam, point)
    if lhs != rhs:
        return False
    if len(set(lam)) == n:
        total = Fraction(0)
        table = {}  # the normalized weights of every ensemble, by key
        for ens in strict_ensembles(lam):
            M = ensemble_to_triangle(ens)
            w_path = normalized_product(ens, xs, t, table)
            w_tri = mt_weight(M, xs, uu, vv, ww)
            if w_path != w_tri:
                return False
            total += w_tri
        if total != robbins_star_enum(bottom, xs, uu, vv, ww):
            return False
        if total != lhs:
            return False
    return True
