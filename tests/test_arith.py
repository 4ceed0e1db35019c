import random
from fractions import Fraction as F
from math import prod

import pytest

from spinhl.arith import (
    ParamPoint,
    PochFamily,
    PoleError,
    SpinParams,
    invert,
    linear_quotient,
    part_factors,
    qpoch,
    qpochs,
    rat,
    rat_str,
    sample_point,
)
from spinhl.series import TruncSeries, u_substitution


@pytest.mark.parametrize(
    "A, B, C, D",
    [(3, 5, 7, 2), (-4, 9, -5, 3), (2, -7, 3, 0), (6, 0, 5, -4), (0, 8, -3, 7), (0, 0, 2, 5), (1, 1, 1, -1)],
)
def test_linear_quotient_is_the_fraction_expansion(A, B, C, D):
    # long division of (A + B x) by (C + D x) on Fractions
    want = [F(A, C)]
    for i in range(1, 9):
        want.append((F(B if i == 1 else 0) - D * want[-1]) / C)
    for d in range(9):
        got = linear_quotient(A, B, C, D, d)
        assert all(type(v) is int for v in got)
        assert [F(v, C ** (d + 1)) for v in got] == want[: d + 1], d


def test_part_factors_are_the_products_of_their_definitions():
    # ratio_l(u) = (u - s_l)/(1 - s_l u) and the single-row factor
    # outer_l(u) = 1/(1 - s_l u) prod_{j<l} ratio_j(u), each taken over the u_i
    prefix = (F(1, 5), F(-2, 7), F(3, 4))
    for p in range(4):
        spin = SpinParams(prefix[:p], F(2, 9))

        def ratio(ui, l):
            return (ui - spin.lookup(l)) / (1 - spin.lookup(l) * ui)

        def outer(ui, l):
            return prod((ratio(ui, j) for j in range(l)), start=1) / (1 - spin.lookup(l) * ui)

        rational = [F(1, 3), F(-4, 5), F(7, 2)]
        series = [u_substitution(i, spin.tail, 3, 2) for i in range(2)]
        for u in (rational, series):
            for top in range(p + 3):
                ratios, outers = part_factors(u, spin, top)
                assert ratios == [prod(ratio(ui, l) for ui in u) for l in range(top + 1)], (p, top)
                assert outers == [prod(outer(ui, l) for ui in u) for l in range(top + 1)], (p, top)


def test_part_factors_name_the_smallest_vanishing_l():
    # 1 - s_0 u_2 and 1 - s_1 u_1 vanish; l = 0 is inverted first although its
    # zero sits at the later u
    spin = SpinParams((F(2), F(3)), F(1, 5))
    for u, what in (((F(1, 3), F(1, 2)), "1 - s_0*u"), ((F(1, 3), F(1, 5)), "1 - s_1*u")):
        with pytest.raises(PoleError) as err:
            part_factors(u, spin, 2)
        assert err.value.what == what


def test_qpoch_empty_product():
    assert qpoch(F(3, 7), F(1, 5), 0) == 1


def test_qpoch_vanishes_at_one():
    assert qpoch(F(1), F(2, 3), 1) == 0


def test_qpoch_hand_value():
    # (1/2; 1/3)_2 = (1 - 1/2)(1 - 1/6) = 5/12
    assert qpoch(F(1, 2), F(1, 3), 2) == F(5, 12)


def test_qpoch_splitting():
    rng = random.Random(42)
    for _ in range(5):
        a = F(rng.randint(2, 30), rng.randint(2, 30))
        q = F(rng.randint(2, 30), rng.randint(2, 30))
        for m in range(9):
            for n in range(9 - m):
                assert qpoch(a, q, m + n) == qpoch(a, q, m) * qpoch(a * q**m, q, n)


def test_qpochs_lists_every_prefix():
    # one running product gives each (a; q)_m the direct product gives
    for a, q in ((F(-3, 7), F(2, 5)), (F(1), F(2, 3)), (F(5, 2), F(-1, 4))):
        for n in range(7):
            got = qpochs(a, q, n)
            assert len(got) == n + 1
            for m, value in enumerate(got):
                direct = F(1)
                for i in range(m):
                    direct *= 1 - a * q**i
                assert type(value) is F and value == direct == qpoch(a, q, m), (a, q, m)
    with pytest.raises(ValueError, match="negative length"):
        qpochs(F(1, 2), F(1, 3), -1)
    with pytest.raises(ValueError, match="negative length"):
        qpoch(F(1, 2), F(1, 3), -1)


def test_qpochs_takes_integer_arguments():
    assert qpochs(-1, 1, 3) == [1, 2, 4, 8]
    assert qpochs(F(1, 2), 2, 3) == [1, F(1, 2), 0, 0]


def test_poch_family_equality_follows_its_key():
    def pochs(spin, r, n):
        return qpochs(-spin.lookup(r), F(1, 4), n)

    keyed = PochFamily(pochs, ("main1", F(1, 4))), PochFamily(lambda spin, r, n: [], ("main1", F(1, 4)))
    assert keyed[0] == keyed[1] and hash(keyed[0]) == hash(keyed[1])
    assert keyed[0] != PochFamily(pochs, ("main1", F(1, 9)))
    keyless = PochFamily(pochs), PochFamily(pochs)
    assert keyless[0] == keyless[0] and keyless[0] != keyless[1]
    assert len({keyless[0], keyless[1], keyed[0], keyed[1]}) == 3
    assert keyed[0] != ("main1", F(1, 4)) and keyless[0] != keyed[0] and keyed[0] != keyless[0]
    spin = SpinParams((F(1, 3),), F(2, 5))
    assert keyed[0](spin, 0, 2) == (1 + F(1, 3)) * (1 + F(1, 3) / 4)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(50):
        a = F(rng.randint(-40, 40), rng.randint(1, 40))
        b = F(rng.randint(-40, 40), rng.randint(1, 40))
        c = F(rng.randint(-40, 40), rng.randint(1, 40))
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a and a * b == b * a
        if c != 0:
            assert (a / c) * c == a


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat(" -5/7 ") == F(-5, 7)
    assert rat(2) == F(2)
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(5)) == "5/1"
    with pytest.raises(TypeError):
        rat(0.5)


def test_spin_lookup_and_shift():
    spin = SpinParams((F(1, 2), F(1, 3)), F(1, 5))
    assert spin.p == 2
    assert spin.lookup(0) == F(1, 2)
    assert spin.lookup(1) == F(1, 3)
    assert spin.lookup(2) == F(1, 5)
    assert spin.lookup(99) == F(1, 5)
    shifted = spin.shift(1)
    assert shifted.prefix == (F(1, 3),)
    assert shifted.lookup(5) == F(1, 5)
    assert spin.shift(7).prefix == ()


def test_param_point_q_is_t_squared():
    pt = ParamPoint(F(2, 3), F(1), SpinParams.constant(F(0)), (F(1, 2),))
    assert pt.q == F(4, 9)


def test_param_point_rejects_repeated_u():
    with pytest.raises(ValueError):
        ParamPoint(F(2, 3), F(1), SpinParams.constant(F(0)), (F(1, 2), F(1, 2)))


def test_sampler_deterministic():
    a = sample_point(1, 2, p=1)
    b = sample_point(1, 2, p=1)
    assert a == b
    assert sample_point(2, 2, p=1) != a


def test_sampler_contracts():
    for seed in range(5):
        pt = sample_point(seed, 4, p=2)
        assert len(set(pt.u)) == 4
        assert all(v != 1 for v in pt.u)
        assert len(pt.spin.prefix) == 2


def test_sampler_avoids_declared_poles():
    pole = lambda pt: 1 - pt.spin.tail * pt.u[0]
    for seed in range(10):
        pt = sample_point(seed, 2, p=0, pole_list=[pole])
        assert pole(pt) != 0


def test_sampler_gives_up_on_impossible_pole():
    with pytest.raises(RuntimeError, match="after 200 tries"):
        sample_point(1, 1, pole_list=[lambda pt: F(0)])


def test_invert_names_the_pole():
    assert invert(F(-2, 3), "x") == F(-3, 2)
    with pytest.raises(PoleError) as err:
        invert(F(0), "1 - u_1")
    assert str(err.value) == "vanishing denominator: 1 - u_1"
    assert err.value.what == "1 - u_1"
    u = u_substitution(0, F(2, 5), 4, 2)
    assert invert(1 + u, "1 + u") * (1 + u) == TruncSeries.const(2, 4, 1)
    # u - s = (1 - s^2) x_1 + ... has no constant term
    with pytest.raises(PoleError) as err:
        invert(u - F(2, 5), "u_1 - s")
    assert str(err.value) == "vanishing denominator: u_1 - s"
