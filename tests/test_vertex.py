import math
import random
from fractions import Fraction as F

import pytest

from spinhl.arith import ParamPoint, PoleError, SpinParams, invert, sample_point
from spinhl.series import TruncSeries, u_substitution
from spinhl.symfun import bounded_partitions, f_lambda
from spinhl.vertex import (
    _successor_states,
    _weighted_successors,
    ensemble_weight,
    enumerate_ensembles,
    f_lambda_vertex,
    row_scale,
    scaled_weight,
    series_weight,
    vertex_weight,
)


def spin_pole_list(jmax):
    return [
        lambda pt: math.prod(
            1 - pt.s(j) * ui for j in range(jmax + 1) for ui in pt.u
        )
    ]


def test_vertex_weight_table():
    u, s, q = F(2, 7), F(1, 3), F(4, 25)
    assert vertex_weight((0, 0, 0, 0), u, s, q) == 1
    assert vertex_weight((0, 1, 1, 0), u, s, q) == (1 - q) / (1 - s * u)
    assert vertex_weight((1, 1, 1, 1), u, s, q) == (u - s * q) / (1 - s * u)
    assert vertex_weight((1, 0, 0, 1), u, s, q) == u * (1 - s * s) / (1 - s * u)
    assert vertex_weight((2, 2, 0, 0), u, s, q) == (1 - s * u * q**2) / (1 - s * u)


def test_vertex_weight_requires_conservation():
    with pytest.raises(ValueError):
        vertex_weight((1, 0, 0, 0), F(1, 2), F(1, 3), F(1, 4))
    with pytest.raises(ValueError):
        vertex_weight((0, 0, 2, 0), F(1, 2), F(1, 3), F(1, 4))


def test_single_row_partition_function():
    pt = sample_point(1, 1, p=1, pole_list=spin_pole_list(2))
    assert f_lambda_vertex((0,), pt) == (1 - pt.q) / (1 - pt.s(0) * pt.u[0])


def test_oracle_agreement_on_pictured_shape():
    for seed in (1, 2, 3):
        pt = sample_point(seed, 4, p=2, pole_list=spin_pole_list(6))
        lam = (5, 5, 2, 0)
        assert f_lambda_vertex(lam, pt) == f_lambda(lam, pt)


def test_oracle_agreement_small_grid():
    pt = sample_point(9, 3, p=1, pole_list=spin_pole_list(4))
    for lam in bounded_partitions(3, 3):
        assert f_lambda_vertex(lam, pt) == f_lambda(lam, pt), lam


def test_enumeration_matches_transfer_sum():
    pt = sample_point(12, 3, p=1, pole_list=spin_pole_list(4))
    for lam in [(2, 1, 0), (3, 1, 1), (2, 2, 2)]:
        total = sum(ensemble_weight(e, pt) for e in enumerate_ensembles(lam))
        assert total == f_lambda_vertex(lam, pt), lam


def test_ensemble_structure():
    for ens in enumerate_ensembles((2, 1, 0)):
        assert ens.occ[0] == (0, 0, 0)
        # i paths have turned upward after row i
        for i, row in enumerate(ens.occ):
            assert sum(row) == i
        for _row, _col, (i1, i2, j1, j2) in ens.vertices(include_empty=True):
            assert i1 + j1 == i2 + j2
            assert j1 in (0, 1) and j2 in (0, 1)


def test_degenerate_spin_kills_doubled_edges():
    # at spin -1/t any ensemble with a doubly occupied vertical edge has
    # weight zero, provided the boundary partition is strict
    t = F(3, 5)
    spin = SpinParams.constant(-1 / t)
    pt = ParamPoint(t, F(1), spin, (F(2, 3), F(2, 5), F(3, 7)))
    for lam in [(2, 1, 0), (3, 2, 0), (3, 1, 0)]:
        ensembles = enumerate_ensembles(lam)
        doubled = [e for e in ensembles if e.max_multiplicity() >= 2]
        assert doubled, lam
        assert all(ensemble_weight(e, pt) == 0 for e in doubled)
        capped = sum(ensemble_weight(e, pt) for e in enumerate_ensembles(lam, cap=1))
        assert capped == f_lambda_vertex(lam, pt)


def test_pole_in_a_reachable_column_raises():
    # s_c u_r = 1 makes the integer scale of row r and column c zero; the
    # transfer must name the pole, not sum to 0
    spin = SpinParams((F(2, 7),), F(3, 11))
    for u in [(F(7, 2), F(2, 9)), (F(2, 9), F(11, 3))]:
        pt = ParamPoint(F(2, 5), F(1), spin, u)
        for lam in [(1, 0), (2, 1), (1, 1)]:
            with pytest.raises(PoleError, match=r"1 - s\*u"):
                f_lambda_vertex(lam, pt)


def test_pole_past_the_largest_part_is_no_pole():
    # columns past the largest part hold only empty vertices, so a pole
    # there leaves the sum finite; the enumeration runs through that column
    spin = SpinParams((F(2, 7), F(3, 5)), F(3, 11))
    pt = ParamPoint(F(2, 5), F(1), spin, (F(2, 9), F(5, 3)))  # s_1 u_2 = 1
    lam = (0, 0)
    expected = sum(ensemble_weight(e, pt) for e in enumerate_ensembles(lam, max_col=2))
    assert expected != 0
    assert f_lambda_vertex(lam, pt) == expected


def admissible_configurations(n):
    """Every admissible (i1, i2, j1, j2) whose vertical edges hold at most n
    paths, the vertices of an n-row transfer."""
    for g in range(n + 1):
        for j1 in (0, 1):
            for j2 in (0, 1):
                g2 = g + j1 - j2
                if 0 <= g2 <= n:
                    yield (g, g2, j1, j2)


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
def test_scaled_weights_are_the_weights_times_the_row_scale(seed):
    rng = random.Random(seed)

    def draw():
        return F(rng.randint(-12, 12), rng.randint(1, 12))

    for n in range(1, 6):
        pt = sample_point(seed, n, p=2)
        spins = [pt.s(c) for c in range(3)] + [-pt.s(0), F(0), draw()]
        us = list(pt.u) + [-pt.u[0], F(0), draw()]
        for t in (pt.t, -pt.t, F(0), draw()):
            q = t * t
            for u in us:
                for s in spins:
                    if s * u == 1:
                        continue
                    scale = row_scale(u, s, q, n)
                    for cfg in admissible_configurations(n):
                        got = scaled_weight(cfg, u, s, q, n)
                        assert type(got) is int
                        assert got == vertex_weight(cfg, u, s, q) * scale, (n, cfg, u, s, q)


def test_row_scale_is_the_reduced_denominator_formula():
    # num(1 - s u) is the denominator of its inverse, as the scale was taken
    rng = random.Random(5)
    values = [F(0), F(1), F(-1), F(3, 7), F(-3, 7), F(7, 3), F(-12, 5), F(6, 4)]
    values += [F(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(8)]
    for u in values:
        for s in values:
            if s * u == 1:
                continue
            for q in (F(0), F(4, 9), F(-2, 5), F(9, 4)):
                for n in range(4):
                    expect = invert(1 - s * u, "1 - s*u").denominator * u.denominator * s.denominator**2 * q.denominator**n
                    got = row_scale(u, s, q, n)
                    assert type(got) is int and got == expect, (u, s, q, n)


def test_row_scale_names_the_pole():
    for u, s in ((F(-3, 2), F(-2, 3)), (F(1), F(1)), (F(-1), F(-1)), (F(1, 5), F(5)), (F(-7, 3), F(-3, 7))):
        with pytest.raises(PoleError) as exc:
            row_scale(u, s, F(1, 4), 2)
        assert str(exc.value) == "vanishing denominator: 1 - s*u"


def walk_configurations(state, row):
    """The configurations of the walk from ``state`` to the next row ``row``,
    left to right, with one path entering on the left."""
    h = 1
    for c, (g, g2) in enumerate(zip(state, row)):
        h2 = g + h - g2
        yield c, (g, g2, h, h2)
        h = h2


def test_series_walk_weights_are_the_products_of_the_vertex_weights():
    # p = 2, so that walks cross both prefix columns and the tail; the tail
    # vertices (0,0;1,1) have weight (u - s)/(1 - s u) = O(x), so walks
    # crossing more than d of them vanish at degree d
    spin = SpinParams((F(1, 5), F(-2, 3)), F(3, 7))
    q = F(4, 49)
    p, budget, width = 2, 3, 6
    room = [4] * width + [0]
    low = [0] * (width + 1)
    states = [
        (0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (0, 2, 0, 0, 1, 0),
        (1, 1, 1, 0, 0, 0),
    ]
    vanished = 0
    for d in range(5):
        u = u_substitution(0, spin.tail, d, 1)
        weights = {}
        memos = [weights.setdefault(spin.lookup(c), {}) for c in range(width)]
        for state in states:
            got = _weighted_successors(state, (spin.tail, d), spin, q, memos, None, low, room, budget)
            expect = {}
            for row in _successor_states(state, None):
                if sum(m * (c - p) for c, m in enumerate(row) if c > p) > budget:
                    continue
                if any(sum(row[c:]) > room[c] for c in range(width)):
                    continue
                w = TruncSeries.const(1, d, 1)
                for c, cfg in walk_configurations(state, row):
                    if cfg != (0, 0, 0, 0):
                        w = w * vertex_weight(cfg, u, spin.lookup(c), q)
                if w:
                    expect[row] = w
                else:
                    vanished += 1
            assert sorted(row for row, _ in got) == sorted(expect), (d, state)
            for row, (coeffs, den) in got:
                assert len(coeffs) == d + 1 and all(type(c) is int for c in coeffs), (d, state, row)
                if d:
                    back = TruncSeries(1, d, {(e,): F(c, den) for e, c in enumerate(coeffs)})
                    assert back == expect[row], (d, state, row)
                else:
                    assert F(coeffs[0], den) == expect[row].constant_term, (state, row)
    assert vanished


def ring_weight_pair(cfg, s, d, c, q):
    """The local weight by ``vertex_weight`` at the series
    u = (s + x)/(1 + s x) read to degree d (at d = 0 the rational s), as
    the pair of its x^0..x^d numerators over its reduced denominator, or the
    pole it raises."""
    u = u_substitution(0, s, d, 1) if d else s
    try:
        w = vertex_weight(cfg, u, c, q)
    except PoleError as err:
        return ("pole", err.what)
    if isinstance(w, F):
        return [w.numerator], w.denominator
    return [int(w.coefficient((e,)) * w.den) for e in range(d + 1)], w.den


def test_series_weights_are_the_ring_weights_in_closed_form():
    # (s, c, q): c = s (past the prefix), c = 0, s = 0, q > 1, q = 1 (zero
    # weights) and the pole c s = 1, with and without c = s
    cases = [
        (F(3, 7), F(3, 7), F(4, 49)),
        (F(-2, 5), F(-2, 5), F(9, 4)),
        (F(3, 7), F(0), F(4, 49)),
        (F(0), F(1, 5), F(4, 49)),
        (F(0), F(0), F(25, 9)),
        (F(1, 5), F(-2, 3), F(49, 4)),
        (F(2, 9), F(5, 3), F(1)),
        (F(1), F(1), F(4, 9)),
        (F(-1), F(-1), F(4, 9)),
        (F(2, 3), F(3, 2), F(1, 4)),
    ]
    rng = random.Random(11)
    for _ in range(20):
        s, c, t = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        cases.append((s, c, t * t))
    poles = 0
    for s, c, q in cases:
        for cfg in admissible_configurations(4):
            for d in range(7):
                want = ring_weight_pair(cfg, s, d, c, q)
                try:
                    got = series_weight(cfg, s, d, c, q)
                except PoleError as err:
                    got = ("pole", err.what)
                    poles += 1
                assert got == want, (cfg, s, d, c, q)
    assert poles
