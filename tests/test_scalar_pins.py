"""Byte-identity pins of the scalar oracles' exact outputs.

Each digest is the SHA-256 of the JSON list of "p/q" strings a route returns
on a fixed seeded input, taken before the vertex transfer, the matching-sum
Pfaffian, the monotone-triangle enumeration and the alternants' determinant
ran on integer numerators, and before the symmetrizer sums ran as a transfer
over subsets.
They pin the same routes the ``point_oracles`` benchmark digests do.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from spinhl.arith import rat_str, sample_point
from spinhl.pfaffian import SkewMatrix
from spinhl.robbins import robbins_star_bialternant, robbins_star_enum
from spinhl.symfun import bounded_partitions, f_lambda, hall_littlewood_P, schur_bialternant
from spinhl.vertex import f_lambda_vertex

VERTEX_DIGEST = "500a2a0eba05a3e8cbc2f982fd855beb3e04e7af6d79485195b03093bb7cbf5c"
MATCHINGS_DIGEST = "fd5a53fa1f9f9c1524e44e1cb75a2cba73b7579008b294a013f0bbabb8a14cdd"
ROBBINS_DIGEST = "806afb61b394bc292f1af3905d9bc4c15bb1965c90a3ef5e28f3fb5f5fa93e27"
ALTERNANT_DIGEST = "cdb002b2cf95c655d96294698423bd2e95f0048809433542c11f9f0a8ff99341"
SYMMETRIZER_DIGEST = "a44d9d4ead6bbf995204aef5da591fb5c088009351cf741c5ed0edfb097a3039"
BIALTERNANT_DIGEST = "1d1a9aa7574c9fbe87de907940441dda8fdebafe0fe03d17855985864a3cbffe"


def digest(values):
    return hashlib.sha256(json.dumps([rat_str(v) for v in values]).encode()).hexdigest()


def test_vertex_transfer_is_pinned():
    point = sample_point(7, 4, p=1)
    assert digest(f_lambda_vertex(lam, point) for lam in bounded_partitions(4, 4)) == VERTEX_DIGEST


def test_matching_sum_pfaffian_is_pinned():
    rng = random.Random(7)
    skew = SkewMatrix.from_function(
        tuple(range(1, 13)), lambda a, b: F(rng.randint(-30, 30), rng.randint(1, 15))
    )
    assert digest([skew.pfaffian_matchings()]) == MATCHINGS_DIGEST


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
