"""Byte-identity pins of the scalar oracles' exact outputs.

Each digest is the SHA-256 of the JSON list of "p/q" strings a route returns
on a fixed seeded input, taken before the vertex transfer, the matching-sum
Pfaffian, the monotone-triangle enumeration and the alternants' determinant
ran on integer numerators, before the symmetrizer sums ran as a transfer
over subsets, and before the gamma-refined entries were written in closed
integer form, the block Pfaffians shared one Laplace memo and the matching
sum ran on a matrix cleared to integers.  The subset sums of the chains and
of the first key lemma were taken before those sums ran over factor tables
cleared to integers once per table.  The Laplace Pfaffians of every even
block of the seeded 12x12 table were taken before the Laplace memo ran on
the table cleared to integers.
They pin the same routes the ``point_oracles`` benchmark digests do, the
second key lemma's entry table, block Pfaffians and both sides, every
subset sum of the three reduction chains at one point, both sides of the
first key lemma for n = 0..6, and the Laplace block Pfaffians.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations

from spinhl.arith import rat_str, sample_point
from spinhl.identities import (
    _chain_point,
    _littlewood_in_subset,
    _pfaffian_in_subset,
    _subset_sum,
    key_lemma1_sides,
    key_lemma2_A_sides,
    key_lemma2_sides,
    lemma_point,
    poch_gamma,
    poch_main1,
    poch_uniform,
)
from spinhl.pfaffian import MGammaSpec, SkewMatrix, block_pfaffians, m_gamma
from spinhl.robbins import robbins_star_bialternant, robbins_star_enum
from spinhl.symfun import bounded_partitions, f_lambda, hall_littlewood_P, schur_bialternant
from spinhl.vertex import f_lambda_vertex

VERTEX_DIGEST = "500a2a0eba05a3e8cbc2f982fd855beb3e04e7af6d79485195b03093bb7cbf5c"
MATCHINGS_DIGEST = "fd5a53fa1f9f9c1524e44e1cb75a2cba73b7579008b294a013f0bbabb8a14cdd"
ROBBINS_DIGEST = "806afb61b394bc292f1af3905d9bc4c15bb1965c90a3ef5e28f3fb5f5fa93e27"
ALTERNANT_DIGEST = "cdb002b2cf95c655d96294698423bd2e95f0048809433542c11f9f0a8ff99341"
SYMMETRIZER_DIGEST = "a44d9d4ead6bbf995204aef5da591fb5c088009351cf741c5ed0edfb097a3039"
BIALTERNANT_DIGEST = "1d1a9aa7574c9fbe87de907940441dda8fdebafe0fe03d17855985864a3cbffe"
M_GAMMA_DIGEST = "9bd652a31cafefb9decf8d7c57424023f9798931c43f22905a1f4f49ead6a553"
BLOCKS_DIGEST = "c091c5b826243ee7cd9a9f6ff01247e50f79f044514ac5ba16777b025027963d"
LEMMA2_DIGEST = "6c5d89ff4701637b95c5c4560c05b4cd964429a227e4bbc2363c6137c209a82b"
CHAIN_SUMS_DIGEST = "d81d0e9e8d2769345944398cc64e8b5860f36245a0cb585966764b08f46feb47"
LEMMA1_DIGEST = "c93df1bac71f474d048716bc0a83c27dbf720563ef4081d7f70e4716497c5482"
LAPLACE_DIGEST = "d8c4c40d08f11567821eadae621036bb60887b95150ffd161071d7b683bb2da0"


def digest(values):
    return hashlib.sha256(json.dumps([rat_str(v) for v in values]).encode()).hexdigest()


def test_vertex_transfer_is_pinned():
    point = sample_point(7, 4, p=1)
    assert digest(f_lambda_vertex(lam, point) for lam in bounded_partitions(4, 4)) == VERTEX_DIGEST


def seeded_skew():
    rng = random.Random(7)
    return SkewMatrix.from_function(
        tuple(range(1, 13)), lambda a, b: F(rng.randint(-30, 30), rng.randint(1, 15))
    )


def test_matching_sum_pfaffian_is_pinned():
    assert digest([seeded_skew().pfaffian_matchings()]) == MATCHINGS_DIGEST


def test_laplace_block_pfaffians_are_pinned():
    skew = seeded_skew()
    blocks = [B for size in range(0, 13, 2) for B in combinations(skew.labels, size)]
    assert len(blocks) == 2048
    assert digest(skew.pfaffians(blocks)) == LAPLACE_DIGEST


def test_robbins_enumeration_is_pinned():
    point = sample_point(7, 6, p=0)
    value = robbins_star_enum(tuple(range(1, 7)), point.u, point.t, point.gamma, point.spin.tail)
    assert digest([value]) == ROBBINS_DIGEST


def test_schur_alternant_ratio_is_pinned():
    x = sample_point(7, 6, p=0).u
    assert digest(schur_bialternant(lam, x) for lam in bounded_partitions(6, 3)) == ALTERNANT_DIGEST


def test_symmetrizer_is_pinned():
    point = sample_point(7, 5, p=1)
    assert digest(f_lambda(lam, point) for lam in bounded_partitions(5, 3)) == SYMMETRIZER_DIGEST


def test_bialternants_are_pinned():
    point = sample_point(7, 6, p=0)
    star = robbins_star_bialternant(tuple(range(1, 7)), point.u, point.t, point.gamma, point.spin.tail)
    x4 = sample_point(7, 4, p=0)
    hl = [hall_littlewood_P(lam, x4.u, x4.q) for lam in bounded_partitions(4, 3)]
    assert digest([star, *hl]) == BIALTERNANT_DIGEST


def lemma_specs():
    point = lemma_point(7, 5)
    return [MGammaSpec(point, gamma, point.spin.tail) for gamma in (F(1), point.gamma)]


def test_gamma_refined_entries_are_pinned():
    # the full table over the labels 0..5, at gamma = 1 and the sampled gamma
    values = [v for spec in lemma_specs() for v in m_gamma(spec, range(1, 6)).upper.values()]
    assert len(values) == 30
    assert digest(values) == M_GAMMA_DIGEST


def test_block_pfaffians_are_pinned():
    values = []
    for spec in lemma_specs():
        nums, den = block_pfaffians(spec)
        values += [F(num, den) for num in nums.values()]
    assert len(values) == 64
    assert digest(values) == BLOCKS_DIGEST


def test_second_key_lemma_sides_are_pinned():
    # both identities of run_check("lemma2", n=5, seed=7), at its 12 points
    values = []
    for k in range(12):
        pt = lemma_point(7 + 211 * k, 5)
        values += key_lemma2_sides(pt, pt.spin.tail, pt.gamma)
        values += key_lemma2_A_sides(pt, pt.spin.tail, pt.gamma)
    assert digest(values) == LEMMA2_DIGEST


def test_chain_subset_sums_are_pinned():
    # the (poch, kernel) of the main1, cor and main2 chains at l = 0..p+1,
    # over the proper subsets and over all of them
    pt = _chain_point(7, 5, 1)
    pf_kernel = _pfaffian_in_subset(pt, block_pfaffians(MGammaSpec(pt, F(1), pt.s(0))))
    chains = (
        (poch_main1(pt.q), _littlewood_in_subset(pt)),
        (poch_uniform(pt.t), pf_kernel),
        (poch_gamma(pt.t, pt.gamma), pf_kernel),
    )
    values = [
        _subset_sum(pt, l, poch, kernel, proper)
        for poch, kernel in chains
        for l in range(pt.spin.p + 2)
        for proper in (True, False)
    ]
    assert len(values) == 18
    assert digest(values) == CHAIN_SUMS_DIGEST


def test_first_key_lemma_sides_are_pinned():
    values = []
    for n in range(7):
        pt = lemma_point(7, n)
        values += key_lemma1_sides(pt.u, pt.q, pt.spin.tail)
    assert digest(values) == LEMMA1_DIGEST
