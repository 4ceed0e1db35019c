from fractions import Fraction as F
from itertools import combinations

import pytest

import spinhl.bijection
from spinhl.arith import PoleError, invert
from spinhl.bijection import (
    degenerate_weight,
    ensemble_to_triangle,
    lemma_point,
    normalized_product,
    normalized_weight,
    robbins_parameters,
    strict_ensembles,
    triangle_to_ensemble,
    verify_lemma_connection,
    x_to_u,
)
from spinhl.robbins import (
    MonotoneTriangle,
    count_monotone_triangles,
    damt_weight,
    damts_of,
    monotone_triangles,
    mt_weight,
)
from spinhl.symfun import f_lambda
from spinhl.vertex import vertex_weight

T = F(4, 7)
XS = (F(2, 3), F(3, 5), F(5, 7), F(7, 11))
CONFIGS = ((1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0))


# ----------------------------------------------------------------------
# references used only by these tests


def u_to_x(u, t):
    """The triangle variable x of the spectral value u at s = -1/t, the
    inverse of ``x_to_u``."""
    u, t = F(u), F(t)
    return (u + invert(t, "t")) * invert(1 + u * invert(t, "t"), "1 + u/t")


def degenerate_product(ens, xs, t):
    out = F(1)
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
    v*x^2, checked against the decorated triangles."""
    xs = tuple(F(v) for v in xs)
    t = F(t)
    q = t * t
    v = t - invert(t, "t")
    w = 1 / q - q
    out = F(1)
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


def test_degenerate_weight_table():
    q = T * T
    v = T - 1 / T
    x = F(4, 9)
    den = 1 - 1 / q
    assert degenerate_weight((0, 0, 1, 1), x, T) == x
    assert degenerate_weight((1, 1, 0, 0), x, T) == v * x / den
    assert degenerate_weight((1, 1, 1, 1), x, T) == v / den
    assert degenerate_weight((1, 0, 0, 1), x, T) == (-v / q + x * den) / den
    assert degenerate_weight((0, 1, 1, 0), x, T) == (1 - q + v * x) / den


def test_degenerate_weight_rejects_doubled_edges():
    with pytest.raises(ValueError):
        degenerate_weight((2, 2, 0, 0), F(1, 2), T)


def test_degenerate_matches_vertex_weight_under_substitution():
    q = T * T
    for cfg in CONFIGS:
        for x in (F(4, 9), F(2, 11), F(8, 3)):
            u = x_to_u(x, T)
            assert degenerate_weight(cfg, x, T) == vertex_weight(cfg, u, -1 / T, q), cfg
            assert u_to_x(u, T) == x


def test_normalized_weight_table():
    q = T * T
    v = T - 1 / T
    x = F(4, 9)
    assert normalized_weight((1, 1, 0, 0), x, T) == v * x
    assert normalized_weight((0, 0, 1, 1), x, T) == x
    assert normalized_weight((1, 1, 1, 1), x, T) == v
    assert normalized_weight((1, 0, 0, 1), x, T) == -v / q + x * (1 - 1 / q)
    assert normalized_weight((0, 1, 1, 0), x, T) == (1 - q + x * v) / (1 - 1 / q)
    assert normalized_weight((0, 1, 1, 0), x, T, is_leftmost_0110=True) == 1


def test_triangle_from_pictured_ensemble():
    fig = MonotoneTriangle(
        ((2,), (2, 6), (2, 4, 7), (2, 4, 6, 8), (1, 3, 4, 7, 8), (0, 1, 3, 4, 7, 8))
    )
    ens = triangle_to_ensemble(fig)
    assert ens.lam == (8, 7, 4, 3, 1, 0)
    assert ensemble_to_triangle(ens).rows == fig.rows


def test_single_part_round_trip():
    M = MonotoneTriangle(((3,),))
    assert ensemble_to_triangle(triangle_to_ensemble(M)).rows == ((3,),)


def test_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        for bottom in combinations(range(6), n):
            for M in monotone_triangles(bottom):
                back = ensemble_to_triangle(triangle_to_ensemble(M))
                assert back.rows == M.rows


def test_bijectivity_counts():
    for lam in [(1, 0), (2, 1, 0), (3, 1, 0), (4, 2, 1, 0)]:
        bottom = tuple(reversed(lam))
        assert len(strict_ensembles(lam)) == count_monotone_triangles(bottom)


def test_strict_ensembles_requires_strict_partition():
    with pytest.raises(ValueError):
        strict_ensembles((2, 2, 0))


def test_weight_preservation_per_object():
    for t in (T, F(3, 8)):
        u, v, w = robbins_parameters(t)
        for n in (1, 2, 3, 4):
            for bottom in combinations(range(6), n):
                lam = tuple(reversed(bottom))
                for ens in strict_ensembles(lam):
                    M = ensemble_to_triangle(ens)
                    got = normalized_product(ens, XS[:n], t)
                    assert got == mt_weight(M, XS[:n], u, v, w), (t, lam)


def test_normalized_product_takes_each_distinct_weight_once(monkeypatch):
    # the product over the vertices, one normalized_weight per vertex, against
    # one call per (configuration, row, leftmost (0,1;1,0)) of the ensemble
    calls = []

    def counting(cfg, x, t, is_leftmost_0110=False):
        calls.append((cfg, x, is_leftmost_0110))
        return normalized_weight(cfg, x, t, is_leftmost_0110)

    monkeypatch.setattr(spinhl.bijection, "normalized_weight", counting)
    for lam in [(2, 1, 0), (3, 1, 0), (4, 2, 1, 0)]:
        n = len(lam)
        for ens in strict_ensembles(lam):
            leftmost = {}
            expect = F(1)
            keys = set()
            for row, col, cfg in ens.vertices():
                first = leftmost.setdefault(row, col) == col if cfg == (0, 1, 1, 0) else False
                expect *= normalized_weight(cfg, XS[row - 1], T, first)
                keys.add((cfg, row, first))
            calls.clear()
            assert normalized_product(ens, XS[:n], T) == expect, (lam, ens)
            assert len(calls) == len(keys), (lam, ens)
    # a row with a (1,0;0,1) has a second (0,1;1,0), which meets 1 - 1/q
    ens = next(e for e in strict_ensembles((2, 1, 0)) if any(k for k, _ in pairing_counts(e).values()))
    for t, what in ((0, "t"), (1, "1 - 1/q"), (-1, "1 - 1/q")):
        with pytest.raises(PoleError) as err:
            normalized_product(ens, XS[:3], t)
        assert str(err.value) == "vanishing denominator: " + what


def test_lemma_connection_takes_each_normalized_weight_once_per_call(monkeypatch):
    # one table of the normalized weights serves every ensemble of the call
    calls = []

    def counting(cfg, x, t, is_leftmost_0110=False):
        calls.append((cfg, x, is_leftmost_0110))
        return normalized_weight(cfg, x, t, is_leftmost_0110)

    monkeypatch.setattr(spinhl.bijection, "normalized_weight", counting)
    for lam in [(2, 1, 0), (3, 2, 1, 0), (5, 3, 2, 0)]:
        calls.clear()
        assert verify_lemma_connection(lam, T, XS[: len(lam)])
        assert calls and len(calls) == len(set(calls)), lam
        # at most the five configurations and the leftmost (0,1;1,0) per row
        assert len(calls) <= 6 * len(lam), lam


def test_pairing_per_row():
    for lam in [(2, 1, 0), (3, 2, 0), (4, 2, 1, 0)]:
        for ens in strict_ensembles(lam):
            for row, (entering, leaving) in pairing_counts(ens).items():
                assert leaving == entering + 1, (lam, row)


def test_normalization_factor_accounts_for_denominators():
    # the aggregated degenerate weights differ from the normalized ones by
    # exactly the global factor absorbed into the triangle relation
    lam = (2, 1, 0)
    n = len(lam)
    q = T * T
    v = T - 1 / T
    norm = F(1 - 1 / q) ** (n * (n - 1) // 2)
    for x in XS[:n]:
        norm *= (1 - 1 / q) / (1 - q + v * x)
    for ens in strict_ensembles(lam):
        assert normalized_product(ens, XS[:n], T) == norm * degenerate_product(ens, XS[:n], T)


def test_lemma_connection_examples():
    assert verify_lemma_connection((1, 0), T, XS[:2])
    assert verify_lemma_connection((2, 1, 0), T, XS[:3])
    # non-strict partitions go through the antisymmetrizer route
    assert verify_lemma_connection((2, 2, 0), T, XS[:3])


def test_lemma_point_substitution():
    pt = lemma_point(T, XS[:2])
    assert pt.spin.tail == -1 / T
    assert pt.u[0] == (XS[0] - 1 / T) / (1 - XS[0] / T)
    assert f_lambda((0, 0), pt) != 0


def test_colored_variant_matches_decorated_triangles():
    for bottom in [(0, 2, 3), (1, 2, 4)]:
        for M in monotone_triangles(bottom):
            ens = triangle_to_ensemble(M)
            cs = colored_sum(ens, XS[:3], T)
            ds = decorated_sum(M, XS[:3], T)
            uvw = robbins_parameters(T)
            assert cs == ds == mt_weight(M, XS[:3], *uvw)


@pytest.mark.parametrize(
    "call",
    [
        lambda: robbins_parameters(0),
        lambda: x_to_u(XS[0], 0),
        lambda: u_to_x(XS[0], 0),
        lambda: lemma_point(0, XS[:2]),
        lambda: verify_lemma_connection((2, 1), 0, XS[:2]),
        lambda: normalized_weight((1, 1, 0, 0), XS[0], 0),
    ],
    ids=["robbins_parameters", "x_to_u", "u_to_x", "lemma_point", "verify_lemma_connection", "normalized_weight"],
)
def test_zero_t_is_a_named_pole(call):
    with pytest.raises(PoleError) as err:
        call()
    assert str(err.value) == "vanishing denominator: t"


# messages of the poles other than t = 0, as the hand-written checks gave them
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: x_to_u(F(3, 2), F(3, 2)), "1 - x/t"),
        (lambda: u_to_x(F(-3, 2), F(3, 2)), "1 + u/t"),
        (lambda: degenerate_weight((1, 1, 0, 0), XS[0], 1), "1 - 1/q"),
        (lambda: degenerate_weight((0, 0, 1, 1), XS[0], -1), "1 - 1/q"),
        (lambda: normalized_weight((0, 1, 1, 0), XS[0], 1), "1 - 1/q"),
        (lambda: verify_lemma_connection((2,), 1, (F(1, 2),)), "1 - q + v*x"),
        (lambda: verify_lemma_connection((1,), -1, (F(1, 3),)), "1 - q + v*x"),
    ],
    ids=[
        "x_to_u",
        "u_to_x",
        "degenerate_weight",
        "degenerate_weight_unscaled_configuration",
        "normalized_weight",
        "verify_lemma_connection",
        "verify_lemma_connection_t_minus_one",
    ],
)
def test_other_poles_keep_their_names(call, what):
    with pytest.raises(PoleError) as err:
        call()
    assert str(err.value) == "vanishing denominator: " + what
