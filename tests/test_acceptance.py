"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact rational arithmetic; the only tolerance anywhere is
exact equality.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from spinhl.arith import sample_point
from spinhl.bijection import (
    ensemble_to_triangle,
    normalized_product,
    robbins_parameters,
    strict_ensembles,
    verify_lemma_connection,
)
from spinhl.identities import (
    check_cor_main2,
    check_hl_corollary,
    check_kawanaka,
    check_lemma1_report,
    check_lemma2_report,
    check_main1,
    check_main2,
    check_rec1,
    check_rec2,
    check_rec2v,
    series_parameters,
)
from spinhl.pfaffian import (
    MGammaSpec,
    SkewMatrix,
    det,
    m_conjugated,
    m_gamma,
    rhs_cor,
    rhs_main2,
    subset_labels,
)
from spinhl.robbins import count_monotone_triangles, mt_weight, robbins_star_enum
from spinhl.symfun import (
    bounded_partitions,
    f_lambda,
    f_lambda_recurrence_rhs,
    hall_littlewood_P,
    multiplicities,
)
from spinhl.arith import qpoch
from spinhl.robbins import robbins_bialternant
from spinhl.vertex import f_lambda_vertex


def spin_poles(jmax):
    return [
        lambda pt: math.prod(
            1 - pt.s(j) * ui for j in range(jmax + 1) for ui in pt.u
        )
    ]


@pytest.fixture(scope="module")
def series_cache():
    return {}


def report(num, label, started):
    print("criterion %02d (%s): PASS in %.1fs" % (num, label, time.time() - started))


def test_criterion_01_oracle_equivalence():
    started = time.time()
    checked = 0
    for n in (1, 2, 3, 4):
        for seed in (101, 102, 103):
            pt = sample_point(seed, n, p=2, pole_list=spin_poles(6))
            for lam in bounded_partitions(n, 4):
                assert f_lambda_vertex(lam, pt) == f_lambda(lam, pt), (n, seed, lam)
                checked += 1
    assert checked == 3 * (5 + 15 + 35 + 70)
    report(1, "vertex oracle equals symmetrizer formula", started)


def test_criterion_02_alternating_sign_matrix_counts():
    started = time.time()
    expected = [1, 2, 7, 42, 429]
    for n, count in zip(range(1, 6), expected):
        bottom = tuple(range(1, n + 1))
        assert count_monotone_triangles(bottom) == count
        ones = (F(1),) * n
        assert robbins_star_enum(bottom, ones, 1, 1, -1) == count
    report(2, "modified polynomials count alternating sign matrices", started)


GRID = ((1, 0, 6), (2, 1, 5), (3, 1, 4))
SEEDS = (7, 8)


def test_criterion_03_product_form_identity(series_cache):
    started = time.time()
    for seed in SEEDS:
        for n, p, D in GRID:
            t, spin, _ = series_parameters(seed, p)
            rep = check_main1(n, spin, t, D, cache=series_cache)
            assert rep.passed, rep.to_dict()
    report(3, "product-form identity, stabilized series", started)


def test_criterion_04_pfaffian_form_identities(series_cache):
    started = time.time()
    for seed in SEEDS:
        for n, p, D in GRID:
            t, spin, gamma = series_parameters(seed, p)
            rep = check_cor_main2(n, spin, t, D, cache=series_cache)
            assert rep.passed, rep.to_dict()
            for g in (gamma, F(9, 4)):
                rep = check_main2(n, spin, t, D, g, cache=series_cache)
                assert rep.passed, rep.to_dict()
    # the two Pfaffian product-side builders agree at gamma = 1
    for seed in (11, 12, 13):
        for n in (1, 2, 3, 4):
            pt = sample_point(
                seed,
                n,
                p=1,
                pole_list=spin_poles(2)
                + [
                    lambda pt: math.prod(
                        (1 - ui * uj) * (1 - pt.q * ui * uj) * (1 - ui)
                        for ui in pt.u
                        for uj in pt.u
                    )
                ],
            )
            assert rhs_main2(MGammaSpec(pt, F(1), pt.s(0))) == rhs_cor(pt)
    report(4, "Pfaffian-form identities, two gammas plus builder agreement", started)


def test_criterion_05_hall_littlewood_and_kawanaka(series_cache):
    started = time.time()
    for seed in SEEDS:
        t, _, _ = series_parameters(seed, 0)
        for n in (1, 2):
            rep = check_hl_corollary(n, t, 5, cache=series_cache)
            assert rep.passed, rep.to_dict()
            rep = check_kawanaka(n, t, 5, cache=series_cache)
            assert rep.passed, rep.to_dict()
    report(5, "Hall-Littlewood corollary and Kawanaka path", started)


def test_criterion_06_recurrences(series_cache):
    started = time.time()
    for n in (1, 2, 3, 4):
        for seed in (201, 202, 203):
            pt = sample_point(seed, n, p=1, pole_list=spin_poles(6))
            for lam in bounded_partitions(n, 4):
                assert f_lambda_recurrence_rhs(lam, pt) == f_lambda(lam, pt), (n, lam)
    t, spin, gamma = series_parameters(7, 1)
    for n, D in ((1, 4), (2, 4), (3, 4), (4, 2)):
        assert check_rec1(n, spin, t, D, cache=series_cache).passed
        assert check_rec2(n, spin, t, D, gamma, cache=series_cache).passed
        assert check_rec2v(n, spin, t, D, cache=series_cache).passed
    report(6, "length recurrence and the three sum recurrences", started)


def test_criterion_07_key_lemmas():
    started = time.time()
    for n in (1, 2, 3, 4):
        rep = check_lemma1_report(n, seed=301)
        assert rep.passed, rep.to_dict()
        rep = check_lemma2_report(n, seed=302)
        assert rep.passed, rep.to_dict()
        if n <= 2:
            assert rep.params.get("expansion_degree") == 2 * n - 1
    report(7, "key polynomial lemmas at seeded points and by expansion", started)


def test_criterion_08_triangle_relation():
    started = time.time()
    for n in (1, 2, 3):
        for seed in (401, 402, 403):
            pt = sample_point(
                seed,
                n,
                p=0,
                pole_list=[
                    lambda pt: math.prod(1 - x / pt.t for x in pt.u),
                    lambda pt: math.prod(
                        1 - pt.q + (pt.t - 1 / pt.t) * x for x in pt.u
                    ),
                ],
            )
            t, xs = pt.t, pt.u
            for lam in bounded_partitions(n, 3):
                assert verify_lemma_connection(lam, t, xs), (n, seed, lam)
            # strict shapes additionally compare object by object
            uu, vv, ww = robbins_parameters(t)
            for lam in bounded_partitions(n, 3):
                if len(set(lam)) != n:
                    continue
                for ens in strict_ensembles(lam):
                    M = ensemble_to_triangle(ens)
                    assert normalized_product(ens, xs, t) == mt_weight(M, xs, uu, vv, ww)
    report(8, "triangle relation, strict shapes object by object", started)


def test_criterion_09_pfaffian_laws():
    started = time.time()
    rng = random.Random(501)

    def random_skew(labels):
        return SkewMatrix.from_function(
            labels, lambda a, b: F(rng.randint(-30, 30), rng.randint(1, 15))
        )

    for dim in (2, 4, 6):
        mat = random_skew(tuple(range(1, dim + 1)))
        assert mat.pfaffian() == mat.pfaffian_matchings()
    mat = random_skew((1, 2, 3, 4, 5, 6))
    base = mat.pfaffian()
    for _ in range(20):
        sigma = list(range(6))
        rng.shuffle(sigma)
        inv = sum(1 for i in range(6) for j in range(i + 1, 6) if sigma[i] > sigma[j])
        assert mat.permute_positions(tuple(sigma)).pfaffian() == (-1) ** inv * base
    # multiplicativity under a dense conjugation
    dim = 4
    A = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            A[i][j] = F(rng.randint(-20, 20), rng.randint(1, 9))
            A[j][i] = -A[i][j]
    B = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)] for _ in range(dim)]
    C = [
        [
            sum(B[i][k] * A[k][l] * B[j][l] for k in range(dim) for l in range(dim))
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    skew_a = SkewMatrix.from_function(tuple(range(dim)), lambda a, b: A[a][b])
    skew_c = SkewMatrix.from_function(tuple(range(dim)), lambda a, b: C[a][b])
    assert skew_c.pfaffian() == det(B) * skew_a.pfaffian()
    # conjugation by the diagonal clearing matrices, and the nested-subset law
    pt = sample_point(
        502,
        4,
        p=1,
        pole_list=[
            lambda pt: math.prod(
                (1 - ui * uj) * (1 - pt.q * ui * uj) for ui in pt.u for uj in pt.u
            ),
            lambda pt: math.prod(1 - pt.s(0) * ui for ui in pt.u),
        ],
    )
    spec = MGammaSpec(pt, F(1), pt.s(0))
    q = pt.q
    full = (1, 2, 3, 4)
    for tsize in range(5):
        for T in combinations(full, tsize):
            conj_T = m_conjugated(spec, T)
            plain = m_gamma(spec, T).pfaffian()
            factor = F(1)
            for a in range(len(T)):
                for b in range(a + 1, len(T)):
                    ui, uj = pt.u[T[a] - 1], pt.u[T[b] - 1]
                    factor *= (1 - ui * uj) * (1 - q * ui * uj)
            assert conj_T.pfaffian() == factor * plain
            for ssize in range(tsize + 1):
                for S in combinations(T, ssize):
                    if len(T) % 2 == 0 and len(S) % 2 == 1:
                        continue
                    lhs = conj_T.restrict(subset_labels(S)).pfaffian()
                    fac = F(1)
                    for i in S:
                        for j in T:
                            if j not in S and i < j:
                                fac *= (1 - pt.u[i - 1] * pt.u[j - 1]) * (
                                    1 - q * pt.u[i - 1] * pt.u[j - 1]
                                )
                    assert lhs == fac * m_conjugated(spec, S).pfaffian()
    report(9, "Pfaffian laws: matchings, antisymmetry, conjugation", started)


def test_criterion_10_ordinary_robbins_relations():
    started = time.time()
    x_pool = (F(2, 3), F(3, 5), F(5, 7))
    q = F(2, 7)
    for n in (1, 2, 3):
        xs = x_pool[:n]
        for lam in bounded_partitions(n, 3):
            norm = F(1)
            for m in multiplicities(lam).values():
                norm /= qpoch(q, q, m)
            P = hall_littlewood_P(lam, xs, q)
            sign = (-1) ** (n * (n - 1) // 2)
            assert P == sign * norm * robbins_bialternant(lam, xs, -q, 0, 0, 1)
            assert P == norm * robbins_bialternant(tuple(reversed(lam)), xs, 1, 0, 0, -q)
    from spinhl.arith import ParamPoint, SpinParams

    s, t = F(1, 4), F(2, 5)
    qq = t * t
    for n in (1, 2, 3):
        xs = x_pool[:n]
        u = tuple((x + s) / (1 + s * x) for x in xs)
        pt = ParamPoint(t, F(1), SpinParams.constant(s), u)
        for lam in bounded_partitions(n, 3):
            k = tuple(v + 1 for v in reversed(lam))
            lhs = robbins_bialternant(
                k, xs, 1 - s * s * qq, s * (1 - qq), s * (1 - qq), s * s - qq
            )
            rhs = F(1 - s * s) ** (n * (n + 1) // 2) / (1 - qq) ** n
            for x in xs:
                rhs *= (
                    (1 - s * s * qq) * x + s * (1 - qq) * (x * x + 1) + (s * s - qq) * x
                ) / (1 + s * x)
            rhs *= f_lambda(lam, pt)
            assert lhs == rhs, (n, lam)
    report(10, "Hall-Littlewood and spin-function relations of ordinary polynomials", started)
