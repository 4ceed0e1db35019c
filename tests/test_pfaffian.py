import math
import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

import spinhl.pfaffian
from spinhl.arith import ParamPoint, PoleError, SpinParams, perm_sign, sample_point
from spinhl.identities import lemma_point, series_parameters
from spinhl.pfaffian import (
    MGammaSpec,
    SkewMatrix,
    _ring_entry,
    b_determinant,
    b_matrix,
    block_pfaffians,
    conjugated_pfaffian,
    cor_entry,
    det,
    m_conjugated,
    m_gamma,
    m_gamma_entry,
    pfaffian_kernel,
    pfaffian_side,
    rhs_cor,
    rhs_main1,
    rhs_main2,
    subset_labels,
)
from spinhl.series import (
    TruncSeries,
    _u_entry,
    _u_kernel,
    divide_by_u_differences,
    pfaffian_side_series,
    u_substitution,
    vandermonde_exponents,
)


def random_skew(rng, labels):
    return SkewMatrix.from_function(
        labels, lambda a, b: F(rng.randint(-30, 30), rng.randint(1, 15))
    )


def kernel_pole_list(n):
    def no_kernel_poles(pt):
        val = F(1)
        for i in range(n):
            val *= 1 - pt.u[i]
            val *= 1 - pt.s(0) * pt.u[i]
            for j in range(i, n):
                val *= (1 - pt.u[i] * pt.u[j]) * (1 - pt.q * pt.u[i] * pt.u[j])
        return val

    return [no_kernel_poles]


def test_pfaffian_small_dims():
    assert SkewMatrix((), {}).pfaffian() == 1
    two = SkewMatrix((1, 2), {(1, 2): F(5, 3)})
    assert two.pfaffian() == F(5, 3)
    four = SkewMatrix.from_function((1, 2, 3, 4), lambda a, b: F(10 * a + b))
    # dim 4 expands over the three matchings with signs +, -, +
    assert four.pfaffian() == F(12) * F(34) - F(13) * F(24) + F(14) * F(23)


def test_pfaffian_odd_dimension_rejected():
    with pytest.raises(ValueError):
        SkewMatrix((1, 2, 3), {(1, 2): F(1), (1, 3): F(1), (2, 3): F(1)}).pfaffian()


def test_laplace_matches_matching_sum():
    rng = random.Random(11)
    for dim in (2, 4, 6):
        for _ in range(4):
            mat = random_skew(rng, tuple(range(1, dim + 1)))
            assert mat.pfaffian() == mat.pfaffian_matchings()
    # zero entries, integer entries and the empty matrix, up to dimension 10
    for dim in range(0, 11, 2):
        labels = tuple(range(1, dim + 1))
        sparse = SkewMatrix.from_function(
            labels, lambda a, b: F(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.4 else 0
        )
        ints = SkewMatrix.from_function(labels, lambda a, b: rng.randint(-9, 9))
        for mat in (sparse, ints, SkewMatrix(labels, {})):
            assert mat.pfaffian_matchings() == mat.pfaffian(), dim
    for dim in (1, 3, 5):
        with pytest.raises(ValueError):
            SkewMatrix(tuple(range(1, dim + 1)), {}).pfaffian_matchings()


def reference_perfect_matchings(positions):
    """(sign, matching) for every perfect matching of ``positions``, the sign
    being that of the flattened matching as a permutation of ``positions``:
    pairing the first position with the one at index idx moves it past
    idx - 1 others.  The recursion ``pfaffian_matchings`` walks."""
    if not positions:
        yield 1, ()
        return
    first = positions[0]
    for idx in range(1, len(positions)):
        pair = (first, positions[idx])
        rest = positions[1:idx] + positions[idx + 1 :]
        flip = -1 if idx % 2 == 0 else 1
        for sign, sub in reference_perfect_matchings(rest):
            yield flip * sign, (pair,) + sub


def test_matching_sign_is_the_permutation_sign():
    rng = random.Random(31)
    for dim in range(0, 9, 2):
        matchings = list(reference_perfect_matchings(tuple(range(dim))))
        for sign, matching in matchings:
            assert sign == perm_sign([pos for pair in matching for pos in pair]), matching
        assert len({matching for _, matching in matchings}) == len(matchings) == math.prod(range(1, dim, 2))
        # the matching sum over those signs, term by term in Fractions
        mat = random_skew(rng, tuple(range(1, dim + 1)))
        expect = sum(
            (sign * math.prod((mat.entry(a + 1, b + 1) for a, b in matching), start=F(1)) for sign, matching in matchings),
            F(0),
        )
        assert mat.pfaffian_matchings() == expect, dim


def test_pfaffian_antisymmetry_under_permutations():
    rng = random.Random(23)
    for dim in (4, 6):
        mat = random_skew(rng, tuple(range(1, dim + 1)))
        base = mat.pfaffian()
        for _ in range(20):
            sigma = list(range(dim))
            rng.shuffle(sigma)
            inv = sum(
                1
                for i in range(dim)
                for j in range(i + 1, dim)
                if sigma[i] > sigma[j]
            )
            sign = -1 if inv % 2 else 1
            assert mat.permute_positions(tuple(sigma)).pfaffian() == sign * base


def test_pfaffian_multiplicativity_general_conjugation():
    rng = random.Random(5)
    dim = 4
    A = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            A[i][j] = F(rng.randint(-20, 20), rng.randint(1, 9))
            A[j][i] = -A[i][j]
    B = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)] for _ in range(dim)]
    C = [[sum(B[i][k] * A[k][l] * B[j][l] for k in range(dim) for l in range(dim)) for j in range(dim)] for i in range(dim)]
    skew_a = SkewMatrix.from_function(tuple(range(dim)), lambda a, b: A[a][b])
    skew_c = SkewMatrix.from_function(tuple(range(dim)), lambda a, b: C[a][b])
    assert skew_c.pfaffian() == det(B) * skew_a.pfaffian()


def test_zero_label_parity_convention():
    assert subset_labels((1, 2)) == (1, 2)
    assert subset_labels((3,)) == (0, 3)
    assert subset_labels(()) == ()
    assert subset_labels((1, 2, 3)) == (0, 1, 2, 3)


def leibniz_det(rows):
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = F(0)
    for sigma in permutations(range(n)):
        total += perm_sign(sigma) * math.prod(F(rows[i][sigma[i]]) for i in range(n))
    return total


@pytest.mark.parametrize("seed", (7, 8, 9))
def test_det_matches_the_leibniz_sum(seed):
    rng = random.Random(seed)
    for n in range(7):
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rats = [[F(rng.randint(-30, 30), rng.randint(1, 15)) for _ in range(n)] for _ in range(n)]
        for rows in (ints, rats):
            got = det(rows)
            assert isinstance(got, F) and got == leibniz_det(rows), (n, rows)
    # a zero leading pivot forces a row swap, and a zero pivot further down too
    swap = [[0, F(2, 3), 5], [F(-1, 2), 4, 0], [7, 1, F(1, 9)]]
    late = [[1, 2, 3, 4], [2, 4, F(1, 2), 0], [F(3, 5), 1, 1, 1], [0, F(-7, 3), 2, 5]]
    # a singular matrix (row 3 = row 1 + 2 row 2) and a zero column
    singular = [[F(1, 2), 3, -1], [2, F(-1, 3), 4], [F(9, 2), F(7, 3), 7]]
    zero_col = [[F(rng.randint(-9, 9), rng.randint(1, 9)), 0, rng.randint(-9, 9)] for _ in range(3)]
    for rows in (swap, late, singular, zero_col):
        assert det(rows) == leibniz_det(rows), rows
    assert det(singular) == det(zero_col) == 0
    assert det(swap) != 0 and det(late) != 0


def test_det_takes_integer_rows_as_they_are(monkeypatch):
    # rows of ints skip the clearing (a row swap, a late zero pivot and a
    # singular matrix, row 3 = row 1 + 2 row 2), leave the caller's rows as
    # they were, and still give a Fraction; one rational entry clears them all
    cleared = []
    clear = spinhl.pfaffian.over_common_denominator

    def recording(row):
        cleared.append(row)
        return clear(row)

    monkeypatch.setattr(spinhl.pfaffian, "over_common_denominator", recording)
    swap = [[0, 2, 5], [-1, 4, 0], [7, 1, 1]]
    late = [[1, 2, 3, 4], [2, 4, 1, 0], [3, 1, 1, 1], [0, -7, 2, 5]]
    singular = [[1, 3, -1], [2, -1, 4], [5, 1, 7]]
    for rows in (swap, late, singular, [(2, -3), (5, 4)], []):
        before = [list(row) for row in rows]
        got = det(rows)
        assert isinstance(got, F) and got == leibniz_det(rows), rows
        assert [list(row) for row in rows] == before
    assert det(singular) == 0 and det(swap) != 0 and det(late) != 0
    assert not cleared
    mixed = [[1, 2], [3, F(1, 2)]]
    assert det(mixed) == F(-11, 2) and len(cleared) == 2


@pytest.mark.parametrize("rows", ([[1, 2]], [[1], [2]], [[1, 2], [3]], [[]]))
def test_det_rejects_a_non_square_matrix(rows):
    with pytest.raises(ValueError, match="square"):
        det(rows)


def test_b_matrix_identity_and_determinant():
    pt = sample_point(3, 4, p=1, pole_list=kernel_pole_list(4))
    q = pt.q
    assert all(v == 1 for v in b_matrix((), (1, 2, 3), pt).values())
    for U in [(1, 2), (2, 3, 4), (1, 4)]:
        for V in [(1, 3), (2, 4), (1, 2, 3)]:
            diag = b_matrix(U, V, pt)
            detval = F(1)
            for val in diag.values():
                detval *= val
            expect = F(1)
            for i in V:
                for j in U:
                    if i < j:
                        expect *= (1 - pt.u[i - 1] * pt.u[j - 1]) * (
                            1 - q * pt.u[i - 1] * pt.u[j - 1]
                        )
            assert detval == expect


def test_conjugation_clears_to_product_formula():
    # pf of the conjugated block equals the pair product times pf of the block
    pt = sample_point(9, 4, p=1, pole_list=kernel_pole_list(4))
    spec = MGammaSpec(pt, F(1), pt.s(0))
    q = pt.q
    for size in range(5):
        for U in combinations((1, 2, 3, 4), size):
            plain = m_gamma(spec, U).pfaffian()
            conj = m_conjugated(spec, U).pfaffian()
            expect = F(1)
            for a in range(len(U)):
                for b in range(a + 1, len(U)):
                    ui, uj = pt.u[U[a] - 1], pt.u[U[b] - 1]
                    expect *= (1 - ui * uj) * (1 - q * ui * uj)
            assert conj == expect * plain, U


def test_block_pfaffians_are_the_pfaffians_of_each_block():
    for n in range(5):
        pt = sample_point(21, n, p=1, pole_list=kernel_pole_list(n))
        for gamma in (F(1), pt.gamma):
            spec = MGammaSpec(pt, gamma, pt.s(0))
            pfs = block_pfaffians(spec)
            subsets = [T for size in range(n + 1) for T in combinations(range(1, n + 1), size)]
            assert list(pfs) == subsets
            for T in subsets:
                assert pfs[T] == m_gamma(spec, T).pfaffian(), (n, gamma, T)


def test_commutation_relation_for_nested_subsets():
    # restriction of a conjugated block versus conjugating the restriction;
    # |T| even with |S| odd is skipped since the smaller block then carries
    # label 0, which the larger one does not have
    pt = sample_point(17, 4, p=1, pole_list=kernel_pole_list(4))
    spec = MGammaSpec(pt, F(1), pt.s(0))
    q = pt.q
    full = (1, 2, 3, 4)
    for tsize in range(5):
        for T in combinations(full, tsize):
            conj_T = m_conjugated(spec, T)
            for ssize in range(tsize + 1):
                for S in combinations(T, ssize):
                    if len(T) % 2 == 0 and len(S) % 2 == 1:
                        continue
                    lhs = conj_T.restrict(subset_labels(S)).pfaffian()
                    factor = F(1)
                    for i in S:
                        for j in T:
                            if j not in S and i < j:
                                factor *= (1 - pt.u[i - 1] * pt.u[j - 1]) * (
                                    1 - q * pt.u[i - 1] * pt.u[j - 1]
                                )
                    assert lhs == factor * m_conjugated(spec, S).pfaffian(), (T, S)


def test_gamma_one_matrix_row_zero_and_entry():
    pt = sample_point(4, 3, p=1, pole_list=kernel_pole_list(3))
    spec = MGammaSpec(pt, F(1), pt.s(0))
    mat = m_gamma(spec, (1, 2, 3))
    t, q = pt.t, pt.q
    for j in (1, 2, 3):
        assert mat.entry(0, j) == 1
    ui, uj = pt.u[0], pt.u[1]
    expect = (ui - uj) * ((1 + q) * (1 - t * ui * uj) + (ui + uj) * (t - q))
    expect /= (1 + t) * (1 - ui * uj) * (1 - q * ui * uj)
    assert mat.entry(1, 2) == expect
    assert mat.entry(1, 2) == cor_entry(1, 2, pt.u, t)


def test_repeated_spectral_value_kills_pfaffian():
    pt = sample_point(6, 4, p=1, pole_list=kernel_pole_list(4))
    spec = MGammaSpec(pt, pt.gamma, pt.s(0))
    u = (pt.u[0], pt.u[0], pt.u[2], pt.u[3])
    mat = m_gamma(spec, (1, 2, 3, 4), u=u)
    assert mat.entry(1, 2) == 0
    assert mat.pfaffian() == 0


def test_rhs_values_small_n():
    pt = sample_point(8, 1, p=1, pole_list=kernel_pole_list(1))
    assert rhs_main1(pt) == 1 / (1 - pt.u[0])
    assert rhs_cor(pt) == (1 + pt.t) / (1 - pt.u[0])


def test_series_pfaffian_kernel_at_zero_is_the_scalar_kernel():
    t = F(2, 5)
    for s in (F(0), F(1, 3), F(-3, 7)):
        for n in (1, 2, 3):
            U = [u_substitution(i, s, 3, n) for i in range(n)]
            assert pfaffian_kernel(U, t).constant_term == pfaffian_kernel([s] * n, t)


def test_pfaffian_sides_name_the_pole_at_u_equal_one():
    pt = ParamPoint(F(1, 2), F(3, 2), SpinParams((F(1, 5),), F(2, 7)), (F(1, 2), F(1), F(1, 3)))
    spec = MGammaSpec(pt, pt.gamma, pt.s(0))
    for side in (lambda: rhs_main2(spec), lambda: rhs_cor(pt)):
        with pytest.raises(PoleError) as err:
            side()
        assert err.value.what == "1 - u_2"


def test_pfaffian_side_over_a_subset_is_the_side_of_the_restricted_point():
    pt = sample_point(5, 4, p=1, pole_list=kernel_pole_list(4))
    spec = MGammaSpec(pt, pt.gamma, pt.s(0))
    for size in range(5):
        for T in combinations((1, 2, 3, 4), size):
            sub = MGammaSpec(pt.restrict([i - 1 for i in T]), pt.gamma, pt.s(0))
            assert pfaffian_side(spec, T) == rhs_main2(sub), T


def test_rhs_main2_at_gamma_one_matches_direct_builder():
    for seed in (1, 2, 3):
        for n in (1, 2, 3, 4):
            pt = sample_point(seed, n, p=1, pole_list=kernel_pole_list(n))
            spec = MGammaSpec(pt, F(1), pt.s(0))
            assert rhs_main2(spec) == rhs_cor(pt)


def _entry_or_pole(fn, *args):
    try:
        return fn(*args)
    except PoleError as err:
        return ("pole", err.what)


def entry_specs(pt):
    """(gamma, s, gamma_inv_s) at a point: gamma 1, the sampled gamma and
    7/5 at s = s_0, and gamma = s = 0 with an explicit s/gamma."""
    s = pt.s(0)
    specs = [MGammaSpec(pt, gamma, s) for gamma in (F(1), pt.gamma, F(7, 5))]
    specs.append(MGammaSpec(pt, F(0), F(0), F(-3, 7)))
    return [(spec.gamma, spec.s, spec.gamma_inv_s) for spec in specs]


def test_closed_form_entries_match_the_ring_formula():
    for n in range(1, 7):
        for seed in (3, 4):
            pt = sample_point(seed, n, p=1, pole_list=kernel_pole_list(n))
            for gamma, s, gis in entry_specs(pt):
                for i in range(n + 1):
                    for j in range(i + 1, n + 1):
                        args = (i, j, pt.u, pt.t, gamma, s, gis)
                        got = m_gamma_entry(*args)
                        assert isinstance(got, F)
                        assert got == _ring_entry(*args), (n, seed, gamma, i, j)


def test_closed_form_entries_raise_the_ring_formula_poles():
    s_pole = "(1+t)(1 - s*u_%d)(1 - s*u_%d)"
    u_pole = "(1+t)(1 - u_%d*u_%d)(1 - q*u_%d*u_%d)"
    cases = (
        # (u, t, s, gamma, entry (i, j), the pole it must name, or None)
        ((F(1, 3), F(2, 5)), F(-1), F(1, 7), F(3, 2), (0, 2), "(1+t)(1 - s*u_2)"),
        ((F(1, 3), F(7, 1)), F(2, 9), F(1, 7), F(3, 2), (0, 2), "(1+t)(1 - s*u_2)"),
        ((F(1, 3), F(7, 1)), F(2, 9), F(1, 7), F(1), (0, 2), None),
        # 1 + t vanishes in two denominators at once: the first one names it
        ((F(1, 3), F(2, 5)), F(-1), F(1, 7), F(3, 2), (1, 2), s_pole % (1, 2)),
        ((F(1, 3), F(2, 5)), F(-1), F(1, 7), F(1), (1, 2), u_pole % (1, 2, 1, 2)),
        ((F(1, 3), F(7, 1)), F(2, 9), F(1, 7), F(3, 2), (1, 2), s_pole % (1, 2)),
        ((F(5, 1), F(2, 9)), F(2, 9), F(1, 5), F(3, 2), (1, 2), s_pole % (1, 2)),
        ((F(1, 3), F(7, 1)), F(2, 9), F(1, 7), F(1), (1, 2), None),
        ((F(3, 2), F(2, 3)), F(2, 9), F(1, 7), F(3, 2), (1, 2), u_pole % (1, 2, 1, 2)),
        ((F(3, 2), F(2, 3)), F(2, 9), F(1, 7), F(1), (1, 2), u_pole % (1, 2, 1, 2)),
        ((F(9, 2), F(1, 2)), F(2, 3), F(1, 7), F(3, 2), (1, 2), u_pole % (1, 2, 1, 2)),
        ((F(9, 2), F(1, 2)), F(2, 3), F(1, 7), F(1), (1, 2), u_pole % (1, 2, 1, 2)),
        # s u_1 = 1 and u_1 u_2 = 1 at once: the s pole comes first
        ((F(2), F(1, 2)), F(2, 9), F(1, 2), F(3, 2), (1, 2), s_pole % (1, 2)),
        ((F(2), F(1, 2)), F(2, 9), F(1, 2), F(1), (1, 2), u_pole % (1, 2, 1, 2)),
    )
    for u, t, s, gamma, (i, j), pole in cases:
        args = (i, j, u, t, gamma, s, s / gamma)
        got = _entry_or_pole(m_gamma_entry, *args)
        assert got == _entry_or_pole(_ring_entry, *args), (u, t, s, gamma, i, j)
        if pole is None:
            assert isinstance(got, F), (u, t, s, gamma, i, j)
        else:
            assert got == ("pole", pole), (u, t, s, gamma, i, j)


def recorded_pfaffians(monkeypatch):
    """Every (table, blocks, values) that ``SkewMatrix.pfaffians`` returns
    while the test runs."""
    calls = []
    shared = SkewMatrix.pfaffians

    def record(self, blocks):
        blocks = list(blocks)
        values = shared(self, blocks)
        calls.append((self, blocks, values))
        return values

    monkeypatch.setattr(SkewMatrix, "pfaffians", record)
    return calls


def test_shared_memo_blocks_equal_their_restricted_pfaffians(monkeypatch):
    calls = recorded_pfaffians(monkeypatch)
    for n in range(6):
        pt = sample_point(21, n, p=1, pole_list=kernel_pole_list(n))
        for gamma in (F(1), pt.gamma):
            block_pfaffians(MGammaSpec(pt, gamma, pt.s(0)))
    for n, cap in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 2)):
        for p in range(2):
            t, spin, sampled = series_parameters(7, p)
            for gamma in (F(1), sampled):
                spec = MGammaSpec(ParamPoint(t, gamma, spin, ()), gamma, spin.lookup(0))
                pfaffian_side_series(spec, n, cap)
    monkeypatch.undo()
    # one call per block_pfaffians and per pfaffian_side_series
    assert len(calls) == 12 + 20
    blocks_read = 0
    for table, blocks, values in calls:
        assert len(values) == len(blocks)
        for block, value in zip(blocks, values):
            assert value == table.restrict(block).pfaffian(), block
        blocks_read += len(blocks)
    assert blocks_read > 2 * sum(2**n for n in range(6))


def test_shared_memo_rejects_a_block_out_of_table_order():
    mat = random_skew(random.Random(3), (1, 2, 3, 4, 5, 6))
    assert mat.pfaffians([(1, 2), (3, 4, 5, 6), ()]) == [
        mat.entry(1, 2), mat.restrict((3, 4, 5, 6)).pfaffian(), 1,
    ]
    for block in ((2, 1), (1, 3, 2, 4), (1, 1), (1, 2, 4, 4)):
        with pytest.raises(ValueError):
            mat.pfaffians([(1, 2), block])
    with pytest.raises(ValueError):
        mat.pfaffians([(1, 2, 3)])
    with pytest.raises(KeyError):
        mat.pfaffians([(1, 7)])


def laplace_reference(mat, blocks):
    """The Laplace memo of ``SkewMatrix.pfaffians`` on the entries as they
    are, the route it took on rational tables before they were cleared to
    integers: every block expands along its first position, one memo."""
    pos = {lab: i for i, lab in enumerate(mat.labels)}
    at = [[0] * mat.dim for _ in range(mat.dim)]
    for (a, b), val in mat.upper.items():
        at[pos[a]][pos[b]] = val
    memo = {(): 1}

    def pf(positions):
        got = memo.get(positions)
        if got is not None:
            return got
        row = at[positions[0]]
        acc = 0
        for idx in range(1, len(positions)):
            a = row[positions[idx]]
            if not a:
                continue
            term = a * pf(positions[1:idx] + positions[idx + 1 :])
            acc = acc + term if idx % 2 else acc - term
        memo[positions] = acc
        return acc

    return [pf(tuple(pos[lab] for lab in block)) for block in blocks]


def even_blocks(labels):
    return [B for size in range(0, len(labels) + 1, 2) for B in combinations(labels, size)]


def seeded_tables(rng, dim):
    """Rational, integer-only and mixed tables over the labels 1..dim, with
    negative and zero entries; the mixed one has a zero row at label 2."""
    labels = tuple(range(1, dim + 1))

    def mixed(a, b):
        if 2 in (a, b):
            return rng.choice((0, F(0)))
        return rng.choice((0, rng.randint(-40, 40), F(rng.randint(-30, 30), rng.randint(1, 15))))

    return {
        "rational": SkewMatrix.from_function(labels, lambda a, b: F(rng.randint(-30, 30), rng.randint(1, 15))),
        "integer": SkewMatrix.from_function(labels, lambda a, b: rng.randint(-9, 9)),
        "mixed": SkewMatrix.from_function(labels, mixed),
    }


@pytest.mark.parametrize("seed", (7, 8))
def test_cleared_laplace_equals_the_fraction_memo_on_every_even_block(seed):
    rng = random.Random(seed)
    for dim in range(13):
        for kind, mat in seeded_tables(rng, dim).items():
            blocks = even_blocks(mat.labels)
            got = mat.pfaffians(blocks)
            assert got == laplace_reference(mat, blocks), (kind, dim, mat.upper)
            assert all(type(v) is F for v in got)
            if kind == "mixed":
                assert all(v == 0 for B, v in zip(blocks, got) if 2 in B)
            if dim % 2 == 0:
                assert mat.pfaffian() == got[-1]


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugated_pfaffian_is_det_b_times_the_pfaffian(n):
    point = lemma_point(7 + n, n)
    s, t, q = point.spin.tail, point.t, point.q
    u_sub = (s,) + point.u[1:]
    full = tuple(range(1, n + 1))
    for gamma in (F(1), point.gamma):
        spec = MGammaSpec(point, gamma, s)
        cases = [(spec, full, None), (spec, full, u_sub), (MGammaSpec(point, t * gamma, q * s), full[1:], None)]
        cases += [(spec, T, None) for T in combinations(full, 2)]
        for spec_, T, u in cases:
            got = conjugated_pfaffian(spec_, T, u=u)
            assert got == m_conjugated(spec_, T, u=u).pfaffian(), (n, gamma, T, u)


def test_b_determinant_is_the_product_of_the_b_matrix_diagonal():
    rng = random.Random(4)
    for n in range(1, 7):
        pt = sample_point(20 + n, n, p=1)
        # u_1 u_2 = 1 and q u_1 u_3 = 1 make pair factors vanish
        specials = [pt.u]
        if n >= 2:
            specials.append((F(3, 2), F(2, 3)) + pt.u[2:])
        if n >= 3:
            specials.append((F(1, 2), pt.u[1], 2 / pt.q) + pt.u[3:])
        specials.append(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)))
        for u in specials:
            for size in range(n + 1):
                for T in combinations(range(1, n + 1), size):
                    want = math.prod(b_matrix(T, T, pt, u=u).values())
                    assert b_determinant(T, pt.t, u) == want, (n, u, T)


def ring_u_entry(i, j, spec, cap):
    """The entry by the ring formula at series u, the route the closed
    form replaces, or the pole it raises."""
    s, t = spec.point.spin.tail, spec.point.t
    U = [u_substitution(v, s, cap, j) for v in range(j)]
    try:
        # at gamma = 1 the label-0 entry is the rational 1, not a series
        return TruncSeries.zero(j, cap) + _ring_entry(i, j, U, t, spec.gamma, spec.s, spec.gamma_inv_s)
    except PoleError as err:
        return ("pole", err.what)


def u_entry_specs():
    """Specs over spins with p = 0..3 prefix values at seed 7, gamma in
    {1, 3/2, 7/5, sampled}; all spins zero; and gamma = s_0 = 0, with s/gamma
    0 and given."""
    for p in range(4):
        t, spin, sampled = series_parameters(7, p)
        point = ParamPoint(t, sampled, spin, ())
        for gamma in (F(1), F(3, 2), F(7, 5), sampled):
            yield MGammaSpec(point, gamma, spin.lookup(0))
    t, spin, sampled = series_parameters(8, 0)
    zero = ParamPoint(t, sampled, SpinParams.constant(0), ())
    for gamma in (F(1), F(3, 2), sampled):
        yield MGammaSpec(zero, gamma, F(0))
    yield MGammaSpec(zero, F(0), F(0))
    yield MGammaSpec(ParamPoint(t, sampled, SpinParams((F(0),), spin.tail), ()), F(0), F(0), F(-3, 7))


def test_u_entries_are_the_ring_entries_at_series_u():
    for spec in u_entry_specs():
        for cap in range(9):
            for i, j in ((0, 1), (1, 2)):
                assert _u_entry(i, j, spec, cap) == ring_u_entry(i, j, spec, cap), (spec, cap, i, j)


def test_u_entries_raise_the_ring_entry_poles_in_order():
    # (tail s, s_0, t): s = +-1 (1 - u_1 u_2 vanishes, and cancels from the
    # closed form), t = -1, s_0 s = 1, q s^2 = 1, and s_0 s = 1 with s = 1
    cases = (
        (F(1), F(1, 5), F(2, 7)),
        (F(-1), F(1, 5), F(2, 7)),
        (F(1, 3), F(1, 5), F(-1)),
        (F(1, 3), F(3), F(2, 7)),
        (F(7, 2), F(1, 5), F(2, 7)),
        (F(1), F(1), F(2, 7)),
    )
    seen = set()
    for s, s0, t in cases:
        point = ParamPoint(t, F(1), SpinParams((s0,), s), ())
        for gamma in (F(1), F(3, 2)):
            spec = MGammaSpec(point, gamma, s0)
            for i, j in ((0, 1), (1, 2)):
                want = ring_u_entry(i, j, spec, 3)
                try:
                    got = _u_entry(i, j, spec, 3)
                except PoleError as err:
                    got = ("pole", err.what)
                    seen.add(err.what)
                assert got == want, (s, s0, t, gamma, i, j)
    assert seen == {
        "(1+t)(1 - s*u_1)",
        "(1+t)(1 - s*u_1)(1 - s*u_2)",
        "(1+t)(1 - u_1*u_2)(1 - q*u_1*u_2)",
    }


def ring_u_kernel(n, s, t, cap):
    """``pfaffian_kernel`` at series u over the u-differences, times the
    Vandermonde polynomial, as the ring route takes it: V divided by the
    u-differences (``divide_by_u_differences``), times the kernel."""
    pairs = n * (n - 1) // 2
    V = TruncSeries(n, cap + pairs, vandermonde_exponents(tuple(range(n)), n))
    try:
        unit = divide_by_u_differences(V, tuple(range(n)), s)
        return unit * pfaffian_kernel([u_substitution(i, s, cap, n) for i in range(n)], t)
    except PoleError as err:
        return ("pole", err.what)


def test_u_kernel_is_the_ring_kernel_over_the_u_differences():
    for s in (F(0), F(3, 7), F(-5, 2), F(1), F(-1)):
        for t in (F(2, 7), F(-3, 5), F(-1)):
            for n in range(1, 5):
                for cap in range(5):
                    try:
                        got = _u_kernel(n, s, t, cap)
                    except PoleError as err:
                        got = ("pole", err.what)
                    assert got == ring_u_kernel(n, s, t, cap), (s, t, n, cap)
