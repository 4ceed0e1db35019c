import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations
from math import prod

import pytest

import spinhl.identities
import spinhl.series
import spinhl.vertex
from spinhl.arith import (
    ParamPoint,
    PochFamily,
    PoleError,
    SpinParams,
    part_factors,
    perm_sign,
    qpoch,
    rat_str,
    sample_point,
)
from spinhl.identities import (
    _BATTERY,
    _chain_poles,
    _coeff_witness,
    _gated_sum,
    _lemma_poles,
    _lhs_sum,
    _pair_extra,
    _rec_block,
    _rec_h,
    _rhs_pf_series,
    _scalar_poles,
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
    check_reduction_chain,
    key_lemma1_sides,
    key_lemma2_A_sides,
    key_lemma2_sides,
    lemma_point,
    poch_gamma,
    poch_hl,
    poch_main1,
    poch_uniform,
    polynomial_expansion_equal,
    run_all,
    run_check,
    series_parameters,
)
from spinhl.pfaffian import MGammaSpec, m_gamma, pfaffian_kernel
from spinhl.series import (
    SymmetricSum,
    TruncSeries,
    divide_by_u_differences,
    expand_symmetric,
    f_lambda_series,
    series_diff,
    u_substitution,
    weigh_states,
)
from spinhl.symfun import bounded_partitions, multiplicities, truncated_partition_list


def _weight(poch, lam, spin, q):
    """The family weight of lam: prod_r poch(spin, r, m_r) / (q; q)_{m_r}."""
    w = F(1)
    for r, m in multiplicities(lam).items():
        w *= poch(spin, r, m) / qpoch(q, q, m)
    return w


def test_weights_trivial_partition():
    spin = SpinParams((F(1, 5),), F(1, 3))
    t = F(1, 2)
    q = t * t
    lam = (0, 0)
    main1 = _weight(poch_main1(q), lam, spin, q)
    assert main1 == (1 + spin.lookup(0)) * (1 + spin.lookup(0) * q) / ((1 - q) * (1 - q * q))
    # at gamma = 1 the refined weight collapses to the plain one
    refined = _weight(poch_gamma(t, F(1)), lam, spin, q)
    assert refined == _weight(poch_uniform(t), lam, spin, q)


def test_family_weights_match_the_explicit_formulas():
    # each family weight is prod_r poch(r, m_r) / (q; q)_{m_r}; written out
    # with (t; t)_m in the denominator where the family has no (-t; t)_m
    t, spin, gamma = series_parameters(7, 2)
    q = t * t
    gis0 = spin.lookup(0) / gamma

    def explicit(lam, at_zero, above):
        w = F(1)
        for r, m in multiplicities(lam).items():
            w *= at_zero(m) if r == 0 else above(r, m)
        return w

    def main1(r, m):
        return qpoch(-spin.lookup(r), q, m) / qpoch(q, q, m)

    def cor(r, m, sp=spin):
        return qpoch(-sp.lookup(r), t, m) / qpoch(t, t, m)

    def refined(g, g_inv_s0):
        return lambda m: qpoch(-g * t, t, m) / qpoch(q, q, m) * qpoch(-g_inv_s0, t, m)

    def hl(r, m):
        return qpoch(-t, t, m) / qpoch(q, q, m)

    zero = SpinParams.constant(F(0))
    # gamma = 0 needs s_0 = 0, the Kawanaka limit
    s0_zero = SpinParams((F(0),) + spin.prefix[1:], spin.tail)
    for n in range(1, 5):
        for lam in bounded_partitions(n, 4):
            assert _weight(poch_main1(q), lam, spin, q) == explicit(lam, lambda m: main1(0, m), main1), lam
            assert _weight(poch_uniform(t), lam, spin, q) == explicit(lam, lambda m: cor(0, m), cor), lam
            weight = _weight(poch_gamma(t, gamma), lam, spin, q)
            assert weight == explicit(lam, refined(gamma, gis0), cor), lam
            kawanaka = _weight(poch_gamma(t, F(0)), lam, s0_zero, q)
            assert kawanaka == explicit(lam, refined(F(0), F(0)), lambda r, m: cor(r, m, s0_zero)), lam
            # the Hall-Littlewood routes of hl and kawanaka, at zero spin
            assert _weight(poch_hl(t), lam, zero, q) == explicit(lam, lambda m: hl(0, m), hl), lam
            hl_above = explicit(lam, lambda m: 1 / qpoch(q, q, m), hl)
            assert _weight(poch_hl(t, 1), lam, zero, q) == hl_above, lam


def test_smallest_part_factors_on_series_match_the_scalars_at_x_zero():
    n, cap = 3, 2
    for p in (0, 1, 2):
        t, spin, _ = series_parameters(7, p)
        U = [u_substitution(i, spin.tail, cap, n) for i in range(n)]
        at_zero = [spin.tail] * n
        for series, scalars in zip(part_factors(U, spin, p + 1), part_factors(at_zero, spin, p + 1)):
            assert [f.constant_term for f in series] == scalars, p


def test_subset_sum_pole_names_its_factor():
    # s_1 u_1 = 1: the l = 1 term divides by 1 - s_1 u_1
    pt = ParamPoint(F(1, 2), F(1), SpinParams((F(1, 5), F(2)), F(1, 3)), (F(1, 2), F(1, 7)))
    with pytest.raises(PoleError) as err:
        kernel = spinhl.identities._littlewood_in_subset(pt)
        spinhl.identities._subset_sum(pt, 1, poch_uniform(pt.t), kernel)
    assert err.value.what == "1 - s_1*u"
    assert str(err.value) == "vanishing denominator: 1 - s_1*u"


def _symmetrizer_sum(n, spin, t, cap, poch, budget, var_indices):
    """The partition sum term by term, each F_lambda by the symmetrizer."""
    total = TruncSeries.zero(n, cap)
    cache = {}
    for lam in truncated_partition_list(len(var_indices), spin.p, budget):
        f = f_lambda_series(lam, spin, t, cap, nvars=n, var_indices=var_indices, cache=cache)
        total = total + _weight(poch, lam, spin, t * t) * f
    return total


@pytest.mark.parametrize("seed", [7, 8])
def test_transfer_sum_matches_symmetrizer_sum(seed):
    cases = []
    for p in (0, 1, 2):
        t, spin, gamma = series_parameters(seed, p)
        for n, cap in ((2, 3), (3, 2)):
            for sp, var_indices in ((spin, tuple(range(n))), (spin.shift(1), tuple(range(1, n)))):
                for poch in (poch_main1(t * t), poch_gamma(t, gamma)):
                    cases.append((n, sp, t, cap, poch, var_indices))
    t, _, _ = series_parameters(seed, 0)
    zero = SpinParams.constant(F(0))
    for n, cap in ((2, 3), (3, 2)):
        cases.append((n, zero, t, cap, poch_uniform(t), tuple(range(n))))
    for n, spin, t, cap, poch, var_indices in cases:
        budget = cap + _pair_extra(len(var_indices))
        sweep = _lhs_sum(n, spin, t, cap, poch, budget, {}, var_indices=var_indices)
        oracle = _symmetrizer_sum(n, spin, t, cap, poch, budget, var_indices)
        assert sweep == oracle, (seed, n, cap, spin, var_indices)


def reference_successors(state, u, spin, q, memo, room, budget):
    """Every admissible next row above ``state`` with its walk weight, the
    product of the series vertex weights along the walk (empty vertices
    weigh 1); the column scan and its two prunes as the library ran them
    before packed series keys."""
    width = len(state)
    p = spin.p
    tail = [0] * (width + 1)
    for c in range(width - 1, -1, -1):
        tail[c] = tail[c + 1] + state[c]
    out = []
    stack = [(0, 1, sum(m * (c - p) for c, m in enumerate(state) if c > p), None, ())]
    while stack:
        c, h, excess, w, row = stack.pop()
        if c == width:
            out.append((row, w))
            continue
        g = state[c]
        for g2 in (g + h - 1, g + h):
            if g2 < 0:
                continue
            h2 = g + h - g2
            excess2 = excess + h2 if c >= p else excess
            if excess2 > budget or tail[c + 1] + h2 > room[c + 1]:
                continue
            cfg = (g, g2, h, h2)
            w2 = w
            if cfg != (0, 0, 0, 0):
                s = spin.lookup(c)
                vw = memo.get((s, cfg))
                if vw is None:
                    vw = memo[s, cfg] = spinhl.vertex.vertex_weight(cfg, u, s, q)
                w2 = vw if w is None else w * vw
                if not w2:
                    continue
            stack.append((c + 1, h2, excess2, w2, row + (g2,)))
    return out


def reference_transfer_sweep(n, spin, t, cap, budget, var_indices):
    """The series transfer as ``identities._transfer_sweep`` ran it before
    packed series keys: one row per listed variable, and each target state
    the sum of acc * w over its predecessors, one ``TruncSeries`` product
    and one sum at a time."""
    q = t * t
    width = spin.p + budget + 1
    room = [len(var_indices)] * width + [0]
    states = {(0,) * width: TruncSeries.const(n, cap, 1)}
    for var in var_indices:
        u = u_substitution(var, spin.tail, cap, n)
        memo = {}
        nxt = {}
        for state, acc in states.items():
            for row, w in reference_successors(state, u, spin, q, memo, room, budget):
                term = acc * w
                nxt[row] = nxt[row] + term if row in nxt else term
        states = {state: acc for state, acc in nxt.items() if acc}
    return states


def transfer_grid(n, D_max):
    """(t, spin, cap, var_indices) of the sweeps behind the series checks at
    n variables and degree D <= D_max: all n variables at p = 0..2 (seed 7),
    the rec* sums over the first k < n variables at degree D + k (n - k)
    with the spins shifted past each smallest part l <= p, and all spins
    zero."""
    for D in range(D_max + 1):
        for p in range(3):
            t, spin, _ = series_parameters(7, p)
            yield t, spin, D, tuple(range(n))
            for k in range(1, n):
                for l in range(p + 1):
                    yield t, spin.shift(l + 1), D + k * (n - k), tuple(range(k))
        t, _, _ = series_parameters(7, 0)
        yield t, SpinParams.constant(F(0)), D, tuple(range(n))


# D_max drops at n = 4 and 5, where the reference's sweeps take seconds
@pytest.mark.parametrize("n, D_max", [(1, 4), (2, 4), (3, 4), (4, 3), (5, 1)])
def test_transfer_sweep_matches_the_product_by_product_reference(n, D_max):
    for t, spin, cap, var_indices in transfer_grid(n, D_max):
        assert_sweep_matches_the_reference(n, t, spin, cap, var_indices)


def forward_last_row(states, nrows, spin, t, cap, budget, cache):
    """The final states of a series transfer, formed forward from the
    ``states`` before its last row as ``vertex.row_transfer`` forms every
    row: each walk of the last row (``vertex._weighted_successors``) adds
    acc times its weight to its target state, and zero states are dropped.
    ``cache`` holds the row's vertex weights; with no rows the states are
    the final states."""
    if not nrows:
        return dict(states)
    d = cap // nrows
    weights = cache.setdefault(("vertex weights", d, t, spin.tail), {})
    width = len(next(iter(states)))
    memos = [weights.setdefault(spin.lookup(c), {}) for c in range(width)]
    low, room = [0] * (width + 1), [nrows] * width + [0]
    u = (spin.tail, d)
    out = {}
    for state, acc in states.items():
        for row, w in spinhl.vertex._weighted_successors(state, u, spin, t * t, memos, None, low, room, budget):
            out.setdefault(row, SymmetricSum(cap)).add(acc, w)
    return {state: acc for state, acc in out.items() if acc}


def full_row_states(nrows, spin, t, cap, budget, cache=None):
    """The final states of ``identities._transfer_sweep``: its states before
    the last row, carried through the last row forward."""
    cache = {} if cache is None else cache
    graph = spinhl.identities._transfer_sweep(nrows, spin, t, cap, budget, cache)
    return forward_last_row(graph.states, nrows, spin, t, cap, budget, cache)


def assert_sweep_matches_the_reference(n, t, spin, cap, var_indices):
    budget = cap + _pair_extra(len(var_indices)) + 1
    states = full_row_states(len(var_indices), spin, t, cap, budget)
    got = {state: expand_symmetric(acc, n, cap, var_indices) for state, acc in states.items()}
    assert got == reference_transfer_sweep(n, spin, t, cap, budget, var_indices), (
        n, spin, cap, var_indices,
    )


def wider_transfer_grid():
    """(n, t, spin, cap, var_indices) of sweeps beside those of the checks:
    listed variables that are not the first k (including a gap), a p = 3
    prefix, caps of at least twice the rows, so that several rows carry walk
    weights past their constant term, n = 6 at D = 1, where every row
    after the first reads constant terms only, and n = 5 at D = 2 with p = 2,
    where rows 1-2 carry series walk weights and rows 3-5 constant ones
    across both prefix columns."""
    for p in (1, 3):
        t, spin, _ = series_parameters(7, p)
        for n, var_indices, cap in ((3, (0, 2), 4), (3, (0, 2), 5), (4, (1, 3), 6), (4, (0, 1, 3), 6)):
            yield n, t, spin, cap, var_indices
    t, spin, _ = series_parameters(7, 1)
    yield 6, t, spin, 1, tuple(range(6))
    t, spin, _ = series_parameters(7, 2)
    yield 5, t, spin, 2, tuple(range(5))


def test_transfer_sweep_matches_the_reference_on_a_wider_grid():
    for n, t, spin, cap, var_indices in wider_transfer_grid():
        assert_sweep_matches_the_reference(n, t, spin, cap, var_indices)


def reference_lhs_sum(n, spin, t, cap, poch, budget, var_indices, sweep=None):
    """The partition sum as ``identities._lhs_sum`` formed it before the
    weighting in the monomial-symmetric basis: every state of the
    product-by-product reference sweep (``sweep``, or one at ``budget``)
    whose excess is within the budget, times its family weight, added by
    ``TruncSeries`` ``*`` and ``+``."""
    q = t * t
    if sweep is None:
        sweep = reference_transfer_sweep(n, spin, t, cap, budget, var_indices)
    total = TruncSeries.zero(n, cap)
    for state, series in sweep.items():
        if sum(m * r for r, m in enumerate(state[spin.p + 1 :], 1)) > budget:
            continue
        w = F(1)
        for r, m in enumerate(state):
            if m:
                w *= poch(spin, r, m) / qpoch(q, q, m)
        total = total + w * series
    return total


def assert_lhs_sums_match_the_reference(n, t, spin, cap, var_indices, gamma):
    """``_lhs_sum`` of all five families at budgets B + 1, then B, from one
    cache, against ``reference_lhs_sum`` over a reference sweep per budget."""
    families = (poch_main1(t * t), poch_uniform(t), poch_gamma(t, gamma), poch_hl(t), poch_hl(t, 1))
    budget = cap + _pair_extra(len(var_indices))
    cache = {}
    for b in (budget + 1, budget):
        sweep = reference_transfer_sweep(n, spin, t, cap, b, var_indices)
        for k, poch in enumerate(families):
            got = _lhs_sum(n, spin, t, cap, poch, b, cache, var_indices=var_indices)
            expect = reference_lhs_sum(n, spin, t, cap, poch, b, var_indices, sweep)
            assert got == expect, (n, spin, cap, var_indices, b, k)


@pytest.mark.parametrize("n, D_max", [(1, 4), (2, 4), (3, 3), (4, 2)])
def test_lhs_sum_matches_the_reference_weighted_sum(n, D_max):
    _, _, gamma = series_parameters(7, 1)
    for t, spin, cap, var_indices in transfer_grid(n, D_max):
        assert_lhs_sums_match_the_reference(n, t, spin, cap, var_indices, gamma)


def test_lhs_sum_matches_the_reference_weighted_sum_on_a_wider_grid():
    _, _, gamma = series_parameters(7, 1)
    for n, t, spin, cap, var_indices in wider_transfer_grid():
        assert_lhs_sums_match_the_reference(n, t, spin, cap, var_indices, gamma)


def test_one_sweep_serves_every_variable_list_of_one_length(monkeypatch):
    rows = []
    sweep = spinhl.identities._transfer_sweep

    def counting(nrows, *args):
        rows.append(nrows)
        return sweep(nrows, *args)

    monkeypatch.setattr(spinhl.identities, "_transfer_sweep", counting)
    t, spin, _ = series_parameters(7, 1)
    cap = 3
    budget = cap + _pair_extra(2) + 1
    poch = poch_main1(t * t)
    cache = {}
    for n, var_indices in ((3, (0, 1)), (4, (1, 3))):
        got = _lhs_sum(n, spin, t, cap, poch, budget, cache, var_indices=var_indices)
        assert got == reference_lhs_sum(n, spin, t, cap, poch, budget, var_indices), var_indices
    assert rows == [2]


def reference_weigh_states(states, poch, spin, q, nrows, budget, cap):
    """``series.weigh_states`` as it weighed the final states before the
    last row became a graph: each final state within the budget times its
    family weight, from one integer-pair row of factors per column class,
    into the sum below the budget or the edge sum at it."""
    p = spin.p
    qq = [qpoch(q, q, m) for m in range(nrows + 1)]
    rows = [[poch(spin, r, m) / qq[m] for m in range(nrows + 1)] for r in range(max(p, 1) + 1)]
    last = len(rows) - 1
    below, edge = SymmetricSum(cap), SymmetricSum(cap)
    for state, acc in states.items():
        excess = sum(m * r for r, m in enumerate(state[p + 1 :], 1))
        if excess > budget:
            continue
        w = prod((rows[min(c, last)][m] for c, m in enumerate(state) if m), start=F(1))
        if w:
            (below if excess < budget else edge).add_scaled((w.numerator, w.denominator), acc)
    if not edge:
        return below, None
    total = SymmetricSum(cap)
    total.add_scaled((1, 1), below)
    total.add_scaled((1, 1), edge)
    return total, below


def five_families(t, gamma):
    return poch_main1(t * t), poch_uniform(t), poch_gamma(t, gamma), poch_hl(t), poch_hl(t, 1)


def assert_graph_weighs_as_the_forward_row(n, spin, t, cap, budget, var_indices, cache, families):
    """Weigh every family on the graph of ``_transfer_sweep`` and on the
    final states formed forward from its states before the last row; the
    sums at the budget, and the sums below it when the gate fails, expand to
    the same series.  Returns how many gates failed."""
    nrows = len(var_indices)
    graph = spinhl.identities._transfer_sweep(nrows, spin, t, cap, budget, cache)
    final = forward_last_row(graph.states, nrows, spin, t, cap, budget, cache)
    failed = 0
    for poch in families:
        got = weigh_states(graph, poch, spin, t * t, nrows, budget, cap)
        want = reference_weigh_states(final, poch, spin, t * t, nrows, budget, cap)
        where = (n, spin, cap, budget, var_indices, poch.key)
        assert (got[1] is None) == (want[1] is None), where
        for a, b in zip(got, want):
            if b is not None:
                assert expand_symmetric(a, n, cap, var_indices) == expand_symmetric(b, n, cap, var_indices), where
        failed += got[1] is not None
    return failed


def test_pulled_back_last_row_weighs_as_the_forward_last_row():
    # every budget from the cap to one past the margin, largest first, so
    # the smaller budgets read a sweep kept at a larger one and the gate
    # fails below the margin
    weighed = failed = 0
    for seed in (7, 8, 11):
        for p in range(3):
            t, spin, gamma = series_parameters(seed, p)
            families = five_families(t, gamma)
            for n in range(1, 5):
                for var_indices in (tuple(range(n)), tuple(range(n - 1))) + (((0, 2),) if n > 2 else ()):
                    for cap in range(4):
                        cache = {}
                        for budget in range(cap + _pair_extra(n) + 1, cap - 1, -1):
                            failed += assert_graph_weighs_as_the_forward_row(
                                n, spin, t, cap, budget, var_indices, cache, families
                            )
                            weighed += len(families)
    assert weighed == 8820 and failed > 4000


def test_a_family_sharing_the_tail_row_evaluates_no_tail_node(monkeypatch):
    spans = []
    values = spinhl.series._node_values

    def recording(nodes, rows, last, known, stop):
        spans.append((len(known), stop))
        return values(nodes, rows, last, known, stop)

    monkeypatch.setattr(spinhl.series, "_node_values", recording)
    for p in (0, 1, 2):
        t, spin, gamma = series_parameters(7, p)
        graph = spinhl.identities._transfer_sweep(3, spin, t, 3, 6, {})
        assert graph.tail > 2 and len(graph.nodes) > graph.tail, p
        for poch in (poch_uniform(t), poch_gamma(t, gamma), poch_main1(t * t)):
            spans.clear()
            weigh_states(graph, poch, spin, t * t, 3, 6, 3)
            evaluated = sorted(i for start, stop in spans for i in range(start, stop))
            # every node is evaluated once; gamma reads uniform's tail values
            first = graph.tail if poch.key[0] == "gamma" else 2
            assert evaluated == list(range(first, len(graph.nodes))), (p, poch.key)
        assert len(graph.tail_values) == 2, p
        # uniform's factors left of the tail and main1's from it on: the tail
        # values are main1's
        L = max(p, 1)
        mixed = PochFamily(lambda spin, r, n: (poch_uniform(t) if r < L else poch_main1(t * t)).pochs(spin, r, n))
        fresh = spinhl.identities._transfer_sweep(3, spin, t, 3, 6, {})
        got, want = (weigh_states(g, mixed, spin, t * t, 3, 6, 3)[0] for g in (graph, fresh))
        assert expand_symmetric(got, 3, 3, (0, 1, 2)) == expand_symmetric(want, 3, 3, (0, 1, 2)), p
        assert len(graph.tail_values) == 2, p


def test_a_sum_over_one_row_roots_its_one_state():
    t, spin, gamma = series_parameters(7, 1)
    for cap in range(4):
        for budget in range(cap, cap + 3):
            graph = spinhl.identities._transfer_sweep(1, spin, t, cap, budget, {})
            width = spin.p + budget + 1
            assert list(graph.states) == list(graph.roots) == [(0,) * width]
            assert expand_symmetric(graph.states[(0,) * width], 1, cap, (0,)) == TruncSeries.const(1, cap, 1)
            assert_graph_weighs_as_the_forward_row(1, spin, t, cap, budget, (0,), {}, five_families(t, gamma))


def test_a_sum_over_no_rows_is_a_root_at_an_end():
    # rec's k = 0 term: the one state is its own final state, of weight 1
    t, spin, gamma = series_parameters(7, 1)
    for budget in (0, 2):
        graph = spinhl.identities._transfer_sweep(0, spin, t, 2, budget, {})
        assert graph.nodes == [(), ()]
        assert graph.roots == {(0,) * (spin.p + budget + 1): int(budget == 0)}
        # at budget 0 the state's excess is the budget: the gate fails
        total, below = weigh_states(graph, poch_main1(t * t), spin, t * t, 0, budget, 2)
        assert expand_symmetric(total, 3, 2, ()) == TruncSeries.const(3, 2, 1)
        assert (below is None) == (budget > 0)
        total, drift = _gated_sum(3, spin, t, 2, poch_main1(t * t), budget, {}, ())
        assert total == TruncSeries.const(3, 2, 1) and drift is None


def test_last_row_degree_follows_the_cap():
    # cap < rows: the last row reads constant terms only; cap >= rows: it
    # reads its walk weights to degree cap // rows >= 1
    t, spin, gamma = series_parameters(8, 1)
    for nrows, cap, degree in ((3, 2, 0), (3, 3, 1), (2, 5, 2), (4, 1, 0)):
        budget = cap + _pair_extra(nrows) + 1
        cache = {}
        graph = spinhl.identities._transfer_sweep(nrows, spin, t, cap, budget, cache)
        assert {len(w[0]) for edges in graph.nodes for _, w, _, _ in edges} == {degree + 1}
        families = five_families(t, gamma)
        assert_graph_weighs_as_the_forward_row(nrows, spin, t, cap, budget, tuple(range(nrows)), cache, families)


def test_states_past_a_smaller_budget_give_no_root():
    # F_mu of the states before the last row vanishes at cap 2 past excess
    # 3, so the sweep kept at budget 5 holds states past budget 2
    t, spin, gamma = series_parameters(7, 2)
    cap, budget = 2, 2
    cache = {}
    larger = spinhl.identities._transfer_sweep(3, spin, t, cap, budget + 3, cache)
    graph = spinhl.identities._transfer_sweep(3, spin, t, cap, budget, cache)
    assert graph.states is larger.states
    excess = {state: sum(m * max(c - spin.p, 0) for c, m in enumerate(state)) for state in graph.states}
    assert max(excess.values()) > budget
    assert set(graph.roots) == {state for state, e in excess.items() if e <= budget}
    assert_graph_weighs_as_the_forward_row(3, spin, t, cap, budget, (0, 1, 2), cache, five_families(t, gamma))
    for poch in five_families(t, gamma):
        assert _lhs_sum(3, spin, t, cap, poch, budget, cache) == _lhs_sum(3, spin, t, cap, poch, budget, {})


@pytest.mark.parametrize("t", (1, -1))
def test_q_one_raises_before_any_sweep_or_graph(t, monkeypatch):
    def refuse(*args):
        raise AssertionError("a sweep or graph was built at q = 1")

    monkeypatch.setattr(spinhl.identities, "row_transfer", refuse)
    monkeypatch.setattr(spinhl.identities, "last_row_graph", refuse)
    spin = SpinParams((F(1, 5),), F(1, 3))
    for check in (
        lambda: _lhs_sum(3, spin, F(t), 2, poch_uniform(F(t)), 4, {}),
        lambda: _gated_sum(2, spin, F(t), 2, poch_main1(F(1)), 3, {}, ()),
        lambda: check_rec2(2, spin, F(t), 1, F(3, 2)),
    ):
        with pytest.raises(PoleError) as err:
            check()
        assert str(err.value) == "vanishing denominator: 1 - q"


def reference_rhs_pf_series(n, spin, t, gamma, cap):
    """The Pfaffian side as ``identities._rhs_pf_series`` computed it before
    the minor summation formula: the Laplace Pfaffian of the series matrix
    ``m_gamma`` at the work cap cap + n(n-1)/2, divided exactly by the
    u-differences, times ``pfaffian_kernel``."""
    work = cap + n * (n - 1) // 2
    U = [u_substitution(i, spin.tail, work, n) for i in range(n)]
    spec = MGammaSpec(ParamPoint(t, gamma, spin, ()), gamma, spin.lookup(0))
    # at n = 1 and gamma = 1 the Pfaffian is the rational 1, not a series
    pf = TruncSeries.zero(n, work) + m_gamma(spec, tuple(range(1, n + 1)), u=U).pfaffian()
    out = divide_by_u_differences(pf, tuple(range(n)), spin.tail)
    return out * pfaffian_kernel([u.truncate(cap) for u in U], t)


def pf_side_grid(degrees):
    """(spin, t, gamma, D) of the Pfaffian sides the series checks read: the
    spins of seed 7 at p = 0..2 with gamma 1, sampled and 7/5 (cor, main2),
    and all spins zero with gamma 1 (hl) and with s_0 = gamma = 0
    (kawanaka)."""
    for D in degrees:
        for p in range(3):
            t, spin, sampled = series_parameters(7, p)
            for gamma in (F(1), sampled, F(7, 5)):
                yield spin, t, gamma, D
        t, _, _ = series_parameters(7, 0)
        for gamma in (F(1), F(0)):
            yield SpinParams.constant(F(0)), t, gamma, D


# n = 6 only at D = 2, where each reference Pfaffian takes over a second
@pytest.mark.parametrize(
    "n, degrees",
    [(1, range(4)), (2, range(4)), (3, range(4)), (4, range(4)), (5, range(4)), (6, (2,))],
    ids=["1", "2", "3", "4", "5", "6-D2"],
)
def test_pfaffian_side_matches_the_dense_series_pfaffian(n, degrees):
    for spin, t, gamma, D in pf_side_grid(degrees):
        got = spinhl.identities._rhs_pf_series(n, spin, t, gamma, D)
        assert got == reference_rhs_pf_series(n, spin, t, gamma, D), (n, spin, t, gamma, D)


def _pole_or_value(fn, *args):
    try:
        return fn(*args)
    except PoleError as err:
        return str(err)


def test_pfaffian_side_poles_keep_the_dense_route_names():
    cases = (
        (SpinParams((F(1, 5),), F(1)), F(2, 7)),  # tail s = 1
        (SpinParams((F(1, 5),), F(-1)), F(2, 7)),  # tail s = -1
        (SpinParams((F(1, 5),), F(1, 3)), F(-1)),  # t = -1
        (SpinParams((F(3),), F(1, 3)), F(2, 7)),  # s_0 s = 1
        (SpinParams((F(1, 5),), F(7, 2)), F(2, 7)),  # q s^2 = 1
    )
    seen = set()
    for spin, t in cases:
        for gamma in (F(1), F(3, 2)):
            for n in range(1, 5):
                got = _pole_or_value(spinhl.identities._rhs_pf_series, n, spin, t, gamma, 2)
                want = _pole_or_value(reference_rhs_pf_series, n, spin, t, gamma, 2)
                assert got == want, (spin, t, gamma, n)
                if isinstance(got, str):
                    seen.add(got[len("vanishing denominator: ") :])
    # 1 - s^2 is not among them: the entry on labels 1, 2 meets
    # 1 - u_1*u_2, whose constant term is 1 - s^2, first
    assert seen == {
        "1 - u_1",
        "(1+t)(1 - u_1*u_2)(1 - q*u_1*u_2)",
        "(1+t)(1 - s*u_1)",
        "(1+t)(1 - s*u_1)(1 - s*u_2)",
    }


def test_series_transfer_prunes_past_the_budget(monkeypatch):
    seen = []
    successors = spinhl.vertex._weighted_successors

    def recording(state, *args):
        seen.append(state)
        return successors(state, *args)

    monkeypatch.setattr(spinhl.vertex, "_weighted_successors", recording)
    for p in (0, 1, 2):
        t, spin, _ = series_parameters(7, p)
        # budgets below the cap, where states past the budget carry nonzero
        # series and only the prune keeps them out
        for sp, var_indices, budget in (
            *((spin, (0, 1, 2), budget) for budget in range(4)),
            (spin.shift(1), (0, 2), 2),
        ):
            seen.clear()
            _lhs_sum(3, sp, t, 3, lambda spin, r, m: 1, budget, {}, var_indices=var_indices)
            assert seen, "the series sum does not go through the vertex transfer"
            for state in seen:
                assert len(state) == sp.p + budget + 1
                assert sum(state) < len(var_indices)
                assert sum(m * max(c - sp.p, 0) for c, m in enumerate(state)) <= budget, state


def test_hl_corollary_makes_one_transfer_sweep(monkeypatch):
    budgets = []
    sweep = spinhl.identities._transfer_sweep

    def counting(n, spin, t, cap, budget, *args):
        budgets.append(budget)
        return sweep(n, spin, t, cap, budget, *args)

    monkeypatch.setattr(spinhl.identities, "_transfer_sweep", counting)
    assert run_check("hl", n=3, p=1, D=3, seed=7).passed
    # hl runs at n = 2: budget D + n(n-1)/2 + 1, for the stabilization gate
    assert budgets == [5]


def test_main1_evaluates_each_pochhammer_factor_once(monkeypatch):
    # the gate weighs the final states once, at budget B + 1, from one row
    # of factors per column class
    calls = []
    family = spinhl.identities.poch_main1

    def counting(q):
        poch = family(q)

        def counted(spin, r, m):
            calls.append((spin, r, m))
            return poch(spin, r, m)

        return counted

    monkeypatch.setattr(spinhl.identities, "poch_main1", counting)
    assert run_check("main1", n=3, p=1, D=2).passed
    assert calls
    assert len(calls) == len(set(calls))


def two_sum_gate(n, spin, t, cap, poch, budget, var_indices):
    """The stabilization gate as ``_gated_sum`` formed it before the one-pass
    weighting: the sum at B + 1, then the sum at B, each from its own cache,
    and their first differing coefficient."""
    extended = _lhs_sum(n, spin, t, cap, poch, budget + 1, {}, var_indices=var_indices)
    lhs = _lhs_sum(n, spin, t, cap, poch, budget, {}, var_indices=var_indices)
    return extended, series_diff(lhs, extended)


def test_one_pass_gate_matches_the_two_sum_route():
    # every budget from 0 up to the margin, so the gate fails below it; the
    # witness of a failing gate must be the one the two-sum route reports
    failed = 0
    for p in (0, 1):
        t, spin, gamma = series_parameters(7, p)
        families = (poch_main1(t * t), poch_uniform(t), poch_gamma(t, gamma), poch_hl(t), poch_hl(t, 1))
        for n, cap, var_indices in ((2, 2, None), (3, 2, None), (3, 3, (0, 2)), (4, 1, None), (4, 2, (1, 2, 3))):
            k = n if var_indices is None else len(var_indices)
            for sp in (spin, spin.shift(1)):
                cache = {}
                for budget in range(cap + _pair_extra(k) + 1):
                    for poch in families:
                        got = _gated_sum(n, sp, t, cap, poch, budget, cache, var_indices)
                        want = two_sum_gate(n, sp, t, cap, poch, budget, var_indices)
                        assert got[0] == want[0], (p, n, cap, var_indices, budget)
                        witnesses = [None if w is None else json.dumps(_coeff_witness(w)) for _, w in (got, want)]
                        assert witnesses[0] == witnesses[1], (p, n, cap, var_indices, budget)
                        failed += got[1] is not None
    assert failed > 50


def counted_weighings(monkeypatch):
    """Record the arguments of every ``weigh_states`` call."""
    seen = []
    weigh = spinhl.identities.weigh_states

    def counting(states, poch, spin, q, nrows, budget, cap):
        seen.append((poch, spin, q, nrows, budget, cap))
        return weigh(states, poch, spin, q, nrows, budget, cap)

    monkeypatch.setattr(spinhl.identities, "weigh_states", counting)
    return seen


def test_equal_key_families_share_one_weighting_in_a_run(monkeypatch):
    seen = counted_weighings(monkeypatch)
    n, p, D, seed = 3, 1, 2, 7

    def weighings(name, gamma, cache):
        seen.clear()
        assert run_check(name, n=n, p=p, D=D, seed=seed, gamma=gamma, cache=cache).passed
        return len(seen)

    alone = {(name, gamma): weighings(name, gamma, {}) for name, gamma in _BATTERY}
    cache = {}
    shared = {(name, gamma): weighings(name, gamma, cache) for name, gamma in _BATTERY}
    # the full H of rec1, rec2 and rec2v is the left side of main1, main2 and
    # cor, and rec2v's H(T) sums are rec2's
    assert shared["rec1", None] == alone["rec1", None] - 1
    assert shared["rec2", None] == alone["rec2", None] - 1
    assert alone["rec2v", None] > 1 and shared["rec2v", None] == 0
    for check in ("main1", "cor", "main2", "hl", "kawanaka"):
        assert shared[check, None] == alone[check, None], check
    # each weighting of the run is taken once, and run_all shares the same
    assert sum(shared.values()) == len([key for key in cache if key[0] == "weighing"])
    seen.clear()
    run_all(n=n, p=p, D=D, seed=seed)
    assert len(seen) == sum(shared.values())


def test_a_keyless_family_never_shares_a_weighting(monkeypatch):
    seen = counted_weighings(monkeypatch)
    t, spin, _ = series_parameters(7, 1)
    q = t * t
    pochs = poch_main1(q).pochs
    keyless = PochFamily(pochs), PochFamily(pochs)
    # equal values under different keys stay apart too
    assert poch_gamma(t, F(1)) != poch_uniform(t) and poch_hl(t) != poch_hl(t, 1)
    cache = {}
    sums = [_lhs_sum(3, spin, t, 2, f, 6, cache) for f in keyless + (poch_main1(q), poch_main1(q))]
    assert sums[0] == sums[1] == sums[2] == sums[3]
    assert [entry[0] for entry in seen] == [keyless[0], keyless[1], poch_main1(q)]
    assert seen[0][0] is keyless[0] and seen[1][0] is keyless[1]


def test_stabilization_gate_catches_a_missing_margin(monkeypatch):
    monkeypatch.setattr(spinhl.identities, "_pair_extra", lambda n: 0)
    assert run_check("main1", n=3, p=1, D=2).status == "stabilization_failed"


@pytest.mark.parametrize("short", [3, 2], ids=["H over all 3", "H over 2 of 3"])
@pytest.mark.parametrize("name", ["rec1", "rec2", "rec2v"])
def test_recurrence_gate_catches_a_missing_margin(monkeypatch, name, short):
    # only the sums over `short` variables lose their budget margin
    margin = spinhl.identities._pair_extra
    monkeypatch.setattr(
        spinhl.identities, "_pair_extra", lambda k: 0 if k == short else margin(k)
    )
    assert run_check(name, n=3, p=1, D=2).status == "stabilization_failed"


def test_kawanaka_gate_catches_a_budget_one_too_small(monkeypatch):
    # with all spins zero each F_lambda is homogeneous of degree |lambda|, so
    # budget D is exact and only a budget below it can drift
    assert run_check("kawanaka", n=2, D=3).passed
    monkeypatch.setattr(spinhl.identities, "_pair_extra", lambda n: -1)
    assert run_check("kawanaka", n=2, D=3).status == "stabilization_failed"


def test_reduced_cap_h_matches_the_full_cap_subset_sum():
    # H(T) is H over the first |T| variables relabeled, and carrying it to
    # degree D + |T| |Tc| instead of D + n(n-1)/2 loses none of those degrees
    n, D = 4, 1
    cap = D + n * (n - 1) // 2
    full = tuple(range(n))
    for p in (0, 1, 2):
        t, spin, _ = series_parameters(7, p)
        shift = spin.shift(1)
        poch = poch_main1(t * t)
        cache = {}
        for k in range(n):
            h, drift = _rec_h(n, k, shift, t, D, poch, cache)
            assert drift is None
            cap_k = D + k * (n - k)
            assert h.cap == cap_k
            for T in combinations(full, k):
                order = T + tuple(j for j in full if j not in T)
                budget = cap + _pair_extra(k)
                old = _lhs_sum(n, shift, t, cap, poch, budget, {}, var_indices=T)
                assert h.relabeled(order, cap_k) == old.truncate(cap_k), (p, T)


def test_subset_factor_is_the_signed_relabeled_first_subset_factor():
    # the recurrence check builds the subset factor of (0, ..., k-1) only
    # and carries it onto every other k-subset T by renaming the variables
    n, cap = 4, 8
    full = tuple(range(n))
    for p in (0, 1):
        t, spin, _ = series_parameters(7, p)
        for k in range(n + 1):
            first = _rec_block(full[:k], n, spin.tail, t * t, cap)
            for T in combinations(full, k):
                order = T + tuple(j for j in full if j not in T)
                direct = _rec_block(T, n, spin.tail, t * t, cap)
                assert direct == perm_sign(order) * first.relabeled(order, cap), T


def test_recurrences_read_the_top_coefficient_of_each_reduced_h(monkeypatch):
    # adding 1 at the top degree of H(T) for |T| = n - 1 must break every
    # recurrence: the reduced caps leave no coefficient uncomputed that the
    # cleared identity reads
    lhs_sum = spinhl.identities._lhs_sum

    def bumped(n, spin, t, cap, poch, budget, cache, var_indices=None):
        out = lhs_sum(n, spin, t, cap, poch, budget, cache, var_indices)
        if var_indices is not None and len(var_indices) == n - 1:
            top = tuple(cap if v == var_indices[0] else 0 for v in range(n))
            out = out + TruncSeries(n, cap, {top: 1})
        return out

    monkeypatch.setattr(spinhl.identities, "_lhs_sum", bumped)
    for name in ("rec1", "rec2", "rec2v"):
        assert run_check(name, n=3, p=1, D=2).status == "fail", name


def test_main1_degenerate_cases():
    t, spin, _ = series_parameters(3, 1)
    assert check_main1(0, spin, t, 4).passed
    assert check_main1(1, spin, t, 5).passed


def test_main1_small():
    t, spin, _ = series_parameters(5, 1)
    rep = check_main1(2, spin, t, 4)
    assert rep.passed
    assert rep.to_dict()["status"] == "pass"


def test_cor_and_main2_small():
    cache = {}
    t, spin, gamma = series_parameters(7, 1)
    assert check_cor_main2(2, spin, t, 4, cache=cache).passed
    assert check_main2(2, spin, t, 4, gamma, cache=cache).passed
    assert check_main2(2, spin, t, 4, F(1), cache=cache).passed


def test_main2_rejects_gamma_zero_without_limit_data():
    t, spin, _ = series_parameters(7, 1)
    with pytest.raises(ValueError, match="gamma != 0"):
        check_main2(1, spin, t, 3, F(0))


def test_poch_gamma_reads_s0_from_the_spin():
    t = F(2, 5)
    kawanaka = poch_gamma(t, F(0))
    with pytest.raises(ValueError, match="gamma = 0 requires s = 0"):
        kawanaka(SpinParams((F(1, 3),), F(1, 7)), 0, 2)
    # at s_0 = 0 both factors of r = 0 are (0; t)_m = 1
    s0_zero = SpinParams((F(0), F(1, 3)), F(1, 7))
    assert [kawanaka(s0_zero, 0, m) for m in range(4)] == [1, 1, 1, 1]
    spin = SpinParams((F(3, 4),), F(1, 7))
    assert poch_gamma(t, F(3, 2))(spin, 0, 2) == qpoch(-F(3, 2) * t, t, 2) * qpoch(-F(1, 2), t, 2)


@pytest.mark.parametrize("prefix", [(), (F(1, 5),), (F(1, 5), F(2, 7))])
def test_series_reports_take_p_from_the_spin(prefix):
    spin = SpinParams(prefix, F(1, 3))
    t = F(1, 2)
    for check in (check_main1, check_rec1):
        rep = check(2, spin, t, 1)
        assert rep.passed and rep.params["p"] == len(prefix), check


def test_rec2_rejects_gamma_zero():
    t, spin, _ = series_parameters(7, 1)
    with pytest.raises(ValueError, match="gamma != 0"):
        check_rec2(1, spin, t, 3, F(0))


def test_chain_ratio_pole_keeps_its_name():
    pt = ParamPoint(F(1, 2), F(1), SpinParams((F(2),), F(1, 3)), (F(1, 2), F(1, 5)))
    with pytest.raises(PoleError) as err:
        part_factors(pt.u, pt.spin, 0)
    assert str(err.value) == "vanishing denominator: 1 - s_0*u"


def test_series_vertex_pole_names_its_factor():
    # s_0 u = 1 at x = 0: the column-0 denominator 1 - s_0 u has no constant term
    with pytest.raises(PoleError, match=r"1 - s\*u"):
        check_main1(2, SpinParams((F(3),), F(1, 3)), F(1, 2), 2)


@pytest.mark.parametrize(
    "spin",
    [SpinParams((F(2),), F(1, 2)), SpinParams((F(1, 3), F(3)), F(1, 3))],
    ids=["column 0", "column 1"],
)
def test_series_transfer_pole_keeps_its_message(spin):
    # 1 - s_c s = 0 in prefix column c: the first row's walks reach the
    # column, and its weights there divide by 1 - s_c u
    t = F(1, 3)
    for check in (
        lambda: _lhs_sum(2, spin, t, 2, poch_main1(t * t), 3, {}),
        lambda: check_main1(2, spin, t, 2),
    ):
        with pytest.raises(PoleError) as err:
            check()
        assert str(err.value) == "vanishing denominator: 1 - s*u"


@pytest.mark.parametrize("t", (1, -1))
def test_family_weights_at_q_one_raise_before_the_transfer(t, monkeypatch):
    # every weight divides by (q; q)_m, which vanishes at q = 1 for m >= 1;
    # the transfer there would sum to 0 and report a false fail
    def no_sweep(*args):
        raise AssertionError("the transfer ran at q = 1")

    monkeypatch.setattr(spinhl.identities, "_transfer_sweep", no_sweep)
    spin = SpinParams((), F(1, 3))
    for check in (
        lambda: check_main1(2, spin, t, 2),
        lambda: check_hl_corollary(2, t, 2),
        lambda: check_rec1(2, spin, t, 2),
        lambda: check_rec2v(2, spin, t, 2),
        lambda: check_kawanaka(2, t, 2),
        lambda: _lhs_sum(2, spin, F(t), 2, poch_main1(F(1)), 2, {}),
    ):
        with pytest.raises(PoleError) as err:
            check()
        assert str(err.value) == "vanishing denominator: 1 - q"


def test_hl_and_kawanaka_small():
    t, _, _ = series_parameters(11, 0)
    assert check_hl_corollary(1, t, 5).passed
    assert check_hl_corollary(2, t, 4).passed
    assert check_kawanaka(2, t, 4).passed


def test_smoke_bounded_specialization():
    # tail spin -1/q stays well defined and internally consistent
    t = F(2, 5)
    spin = SpinParams((), -1 / (t * t))
    assert check_main1(2, spin, t, 3).passed


def test_recurrences_small():
    cache = {}
    t, spin, gamma = series_parameters(13, 1)
    assert check_rec1(2, spin, t, 3, cache=cache).passed
    assert check_rec2v(2, spin, t, 3, cache=cache).passed
    assert check_rec2(2, spin, t, 3, gamma, cache=cache).passed
    assert check_rec1(1, spin, t, 4, cache=cache).passed


def test_key_lemma1_length_one_is_exact_identity():
    # (1 - s u) = (1 + s)(1 - u) + (u - s) for every u, s
    for u in (F(3, 7), F(9, 2)):
        for s in (F(1, 5), F(4, 3)):
            lhs, rhs = key_lemma1_sides((u,), F(2, 9), s)
            assert lhs == (1 - s * u)
            assert lhs == rhs


def test_key_lemma1_vanishes_at_coincident_values():
    pt = lemma_point(19, 3)
    u = (pt.u[0], pt.u[1], pt.u[1])
    lhs, rhs = key_lemma1_sides(u, pt.q, pt.spin.tail)
    assert lhs == 0 and rhs == 0


def test_key_lemma1_at_u_equals_s():
    pt = lemma_point(23, 3)
    s = pt.spin.tail
    u = pt.u[:2] + (s,)
    lhs, rhs = key_lemma1_sides(u, pt.q, s)
    assert lhs == rhs


def test_key_lemma_reports():
    for n in (1, 2, 3):
        assert check_lemma1_report(n, seed=29).passed
        assert check_lemma2_report(n, seed=31).passed


def _off_by_one(monkeypatch, name, calls):
    """Patch the sides function ``name`` so its right side is off by one on
    the calls whose 0-based index ``calls`` accepts."""
    side = getattr(spinhl.identities, name)
    seen = []

    def patched(*args, **kwargs):
        lhs, rhs = side(*args, **kwargs)
        seen.append(None)
        return lhs, rhs + int(calls(len(seen) - 1))

    monkeypatch.setattr(spinhl.identities, name, patched)


LEMMA_REPORT_FAILURES = [
    ("lemma1", "key_lemma1_sides", lambda k: k == 3, {"point_index": 3}),
    ("lemma2", "key_lemma2_sides", lambda k: k == 3, {"point_index": 3, "identity": "subset sum"}),
    ("lemma2", "key_lemma2_A_sides", lambda k: k == 2, {"point_index": 2, "identity": "u_1 = s"}),
    # past the ten sampled points, only the expansion in one variable calls
    ("lemma1", "key_lemma1_sides", lambda k: k >= 10, {"expansion": "coefficients differ"}),
    ("lemma2", "key_lemma2_sides", lambda k: k >= 10, {"expansion": "coefficients differ"}),
]


@pytest.mark.parametrize(
    "check, side, calls, witness",
    LEMMA_REPORT_FAILURES,
    ids=["lemma1 point", "lemma2 subset sum", "lemma2 u_1 = s", "lemma1 expansion", "lemma2 expansion"],
)
def test_lemma_reports_name_their_failure(monkeypatch, check, side, calls, witness):
    _off_by_one(monkeypatch, side, calls)
    rep = run_check(check, n=2, seed=29)
    assert rep.to_dict() == {
        "check": check,
        "params": {"n": 2, "seed": 29, "points": 10},
        "status": "fail",
        "witness": witness,
    }


def test_key_lemma2_gamma_one():
    pt = lemma_point(37, 2)
    lhs, rhs = key_lemma2_sides(pt, pt.spin.tail, F(1))
    assert lhs == rhs
    lhs, rhs = key_lemma2_A_sides(pt, pt.spin.tail, pt.gamma)
    assert lhs == rhs


def test_key_lemma2_empty_family():
    pt = sample_point(41, 0)
    lhs, rhs = key_lemma2_sides(pt, pt.spin.tail, pt.gamma)
    assert lhs == 1 and rhs == 1


def test_rec2_at_gamma_one_reduces_to_rec2v():
    # the gamma exponent is an Iverson bracket at the smallest part zero, so
    # gamma = 1 collapses the refined recurrence onto the plain one termwise
    cache = {}
    t, spin, _ = series_parameters(17, 1)
    assert check_rec2(2, spin, t, 3, F(1), cache=cache).passed
    assert check_rec2v(2, spin, t, 3, cache=cache).passed


def test_recurrences_with_empty_prefix():
    # p = 0 exercises the pure geometric-tail path (no explicit l terms for
    # the plain recurrences, a single gamma term for the refined one)
    cache = {}
    t, spin, gamma = series_parameters(19, 0)
    assert check_rec1(2, spin, t, 3, cache=cache).passed
    assert check_rec2v(2, spin, t, 3, cache=cache).passed
    assert check_rec2(2, spin, t, 3, gamma, cache=cache).passed


def test_polynomial_expansion_helper():
    nodes = [F(k, 3) for k in range(1, 9)]
    f = lambda x: 2 * x * x + x - 3
    g = lambda x: (2 * x - 1) * x + 2 * x - 3
    assert polynomial_expansion_equal(lambda x: (f(x), g(x)), 2, nodes)
    assert not polynomial_expansion_equal(lambda x: (f(x), f(x) + 1), 2, nodes)
    # past the first three nodes a cubic term breaks the degree bound
    assert not polynomial_expansion_equal(lambda x: (f(x) + x**3, g(x) + x**3), 2, nodes)


@pytest.mark.parametrize("n, calls", [(1, 16), (2, 18)])
@pytest.mark.parametrize("check, side", [("lemma1", "key_lemma1_sides"), ("lemma2", "key_lemma2_sides")])
def test_lemma_reports_evaluate_each_node_once(monkeypatch, check, side, n, calls):
    # ten sampled points, then one call per interpolation node (2n + 4)
    seen = []
    sides = getattr(spinhl.identities, side)

    def counting(*args, **kwargs):
        seen.append(None)
        return sides(*args, **kwargs)

    monkeypatch.setattr(spinhl.identities, side, counting)
    assert run_check(check, n=n, seed=29).passed
    assert len(seen) == calls


def test_reduction_chains():
    for n in (1, 2):
        for which in ("main1", "cor", "main2"):
            rep = check_reduction_chain(n, 1, which, seed=7)
            assert rep.passed, (n, which, rep.witness)
    rep0 = check_reduction_chain(2, 0, "main1", seed=9)
    assert rep0.passed


def test_reduction_chains_catch_a_wrong_split_kernel(monkeypatch):
    # every chain equation built from the subset sums must see the split
    # kernel; ``reuse`` and ``final_display`` run over all subsets, the full
    # one too.  Doubling the factor of the pair (1, 2) with only u_1 in T
    # doubles every term whose subset holds 1 and not 2.
    split = spinhl.identities._split_kernel

    def doubled_on_one_pair(u, q, i, j):
        return split(u, q, i, j) * (2 if (i, j) == (0, 1) else 1)

    monkeypatch.setattr(spinhl.identities, "_split_kernel", doubled_on_one_pair)
    failing = {}
    for which in ("main1", "cor", "main2"):
        rep = check_reduction_chain(4, 2, which, seed=7)
        assert rep.status == "fail", which
        failing[which] = rep.witness["equations"]
    assert "reuse[l=0]" in failing["cor"]
    assert "final_display" in failing["main2"]


def test_run_check_dispatch_and_reports():
    rep = run_check("main1", n=1, p=0, D=4, seed=3)
    assert rep.passed and rep.params["seed"] == 3
    with pytest.raises(ValueError):
        run_check("nonsense")


@pytest.mark.parametrize(
    "name, n, p, D",
    [
        ("rec1", 0, 1, 4),
        ("chain", 0, 1, 4),
        ("hl", 2, 1, -2),
        ("lemma1", 0, 1, 4),
        ("main1", -1, 1, 4),
        ("main1", 2, 1, -1),
        ("main2", 2, -1, 4),
    ],
)
def test_run_check_rejects_bad_arguments(name, n, p, D):
    with pytest.raises(ValueError, match="need n >= 1, p >= 0 and D >= 0"):
        run_check(name, n=n, p=p, D=D)


RANGE_T, RANGE_SPIN, RANGE_GAMMA = series_parameters(7, 1)


@pytest.mark.parametrize(
    "call, least_n",
    [
        pytest.param(lambda: check_rec1(0, RANGE_SPIN, RANGE_T, 2), 1, id="rec1 n=0"),
        pytest.param(lambda: check_rec2(0, RANGE_SPIN, RANGE_T, 2, RANGE_GAMMA), 1, id="rec2 n=0"),
        pytest.param(lambda: check_rec2v(0, RANGE_SPIN, RANGE_T, 2), 1, id="rec2v n=0"),
        pytest.param(lambda: check_reduction_chain(0, 1, "main1", 7), 1, id="chain n=0"),
        pytest.param(lambda: check_lemma1_report(0, 7), 1, id="lemma1 n=0"),
        pytest.param(lambda: check_lemma2_report(0, 7), 1, id="lemma2 n=0"),
        pytest.param(lambda: check_main1(2, RANGE_SPIN, RANGE_T, -1), 0, id="main1 D=-1"),
        pytest.param(lambda: check_rec1(2, RANGE_SPIN, RANGE_T, -1), 1, id="rec1 D=-1"),
        pytest.param(lambda: check_hl_corollary(2, RANGE_T, -1), 0, id="hl D=-1"),
        pytest.param(lambda: check_main1(-1, RANGE_SPIN, RANGE_T, 2), 0, id="main1 n=-1"),
        pytest.param(lambda: check_reduction_chain(2, -1, "main1", 7), 1, id="chain p=-1"),
    ],
)
def test_public_checks_reject_inputs_out_of_range(call, least_n):
    # the range rule of run_check: p >= 0 and D >= 0 everywhere, n >= 0 for
    # the series identities (n = 0 passes) and n >= 1 for the rest
    with pytest.raises(ValueError, match="need n >= %d, p >= 0 and D >= 0, got n=" % least_n):
        call()


def test_run_all_battery():
    reports = run_all(n=2, p=1, D=3, seed=7)
    assert all(r.passed for r in reports), [(r.check, r.status) for r in reports]
    assert [r.check for r in reports] == [name for name, _ in _BATTERY]
    for rep, (_, gamma) in zip(reports, _BATTERY):
        if gamma is not None:
            assert rep.params["gamma"] == rat_str(gamma)
    names = [r.check for r in reports]
    assert names.count("main2") == 2
    d = reports[0].to_dict()
    assert set(d) == {"check", "params", "status", "witness"}


def test_main2_and_cor_invert_no_series(monkeypatch):
    # the vertex weights, the Pfaffian-side entries and its kernel are closed
    # forms in x; a series inverse on this path would be a regression
    calls = []
    inv = TruncSeries.inv

    def counting(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(TruncSeries, "inv", counting)
    t, spin, gamma = series_parameters(7, 1)
    assert check_main2(3, spin, t, 4, gamma).passed
    assert check_cor_main2(3, spin, t, 4).passed
    assert calls == []


# SHA-256 of json.dumps(report.to_dict(), sort_keys=True) for two single
# checks, and of the Pfaffian side of the first as ``to_json``, taken before
# the series vertex weights, the Pfaffian-side entries and its kernel were
# written in closed form in x
RUN_CHECK_DIGESTS = {
    ("main2", 3, 1, 4, 7): "fc635fc5151efbb66954378087507700b3ba5ef42af9872f957644c73fb4eab0",
    ("main1", 4, 1, 0, 7): "0747b59115e2e034706b47a5403532851944a5f366bc4388786d29f1cbdb7c3b",
    ("hl", 2, 1, 4, 7): "e624c24070445c71351974204233c21d2b02f54567ad6eb6a298c77b35090dce",
    ("kawanaka", 2, 1, 4, 7): "ad824a0e335a8c6b4eeef1bd955fc70316043b5ce31a76b2e873331385886528",
    ("cor", 4, 2, 3, 3): "4bc29b8a9454bb628cf3d5e74e4f80cc26ce887aa04d80d2ec5d8af98cef09c7",
    ("main2", 4, 0, 3, 5): "160ba168e30c738bffb19fc3bd4861db268e84cf71eceec84571fd85e9329e55",
    ("rec1", 3, 2, 2, 7): "57c4120810154ebd918cc96abee6baf025fd264a51194cca3fa22825dc40fa7e",
    ("rec2", 3, 2, 2, 7): "5e9bf0be765b3004480480715295cbd207bae3e8287cf9e57793747fe2d6dfe1",
    ("rec2v", 3, 2, 2, 7): "a93d295277ba66bbfaa134b482b2dd0ab10bd8ef4c0261448f53f50abbc6dea8",
    ("chain", 4, 2, 0, 7): "811670200c3ba15cf8fa5d2b404b666d8c7055a806a1e515beca6816123bda62",
}
MAIN2_SIDE_DIGEST = "fbfc9ef40468d8071d28b6d32e18de3200c3b30785749fcaeda8064cdc844c4f"
# f_lambda_series(lam, spin, t, 3, nvars=3).to_json() over bounded_partitions(3, 3)
# at series_parameters(7, p) for p = 0, 1, 2, one list per p
F_LAMBDA_SERIES_DIGEST = "ece4cb70f5035c8d2497a690668c3a33750f10eddaa317047cb59b5c856d48dc"


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_single_check_reports_are_pinned():
    for (name, n, p, D, seed), digest in RUN_CHECK_DIGESTS.items():
        assert sha256_json(run_check(name, n=n, p=p, D=D, seed=seed).to_dict()) == digest, name
    t, spin, gamma = series_parameters(7, 1)
    assert sha256_json(_rhs_pf_series(3, spin, t, gamma, 4).to_json()) == MAIN2_SIDE_DIGEST


def test_f_lambda_series_is_pinned():
    out = []
    for p in (0, 1, 2):
        t, spin, _ = series_parameters(7, p)
        out.append([f_lambda_series(lam, spin, t, 3, nvars=3).to_json() for lam in bounded_partitions(3, 3)])
    assert sha256_json(out) == F_LAMBDA_SERIES_DIGEST


def test_a_reduction_chain_builds_its_smallest_part_table_once(monkeypatch):
    # the chain's table runs to l = p + 1; the sampler's two ratio poles read
    # tables to l = p and max(p, 1), which at p = 2 are both 2
    calls = []

    def counting(u, spin, top):
        calls.append(top)
        return part_factors(u, spin, top)

    monkeypatch.setattr(spinhl.identities, "part_factors", counting)
    for which in ("main1", "cor", "main2"):
        calls.clear()
        assert check_reduction_chain(3, 2, which, 7).passed
        assert calls.count(3) == 1 and set(calls) <= {2, 3}, (which, calls)


def rational_scalar_poles(p):
    """The pole lists of the samplers as rationals, the reference for the
    integer tests of ``_scalar_poles``, ``_lemma_poles`` and ``_chain_poles``."""
    out = [lambda pt: 1 - pt.spin.tail * pt.spin.tail]
    out.append(lambda pt: 1 - pt.q * pt.spin.tail * pt.spin.tail)
    out.append(lambda pt: 1 - pt.spin.tail)
    for j in range(p):
        out.append(lambda pt, j=j: 1 - pt.s(j) * pt.spin.tail)
        out.append(lambda pt, j=j: 1 - pt.s(j))
    return out


def rational_lemma_poles(n):
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(lambda pt, i=i, j=j: 1 - pt.u[i] * pt.u[j])
            out.append(lambda pt, i=i, j=j: 1 - pt.q * pt.u[i] * pt.u[j])
    for i in range(n):
        out.append(lambda pt, i=i: 1 - pt.spin.tail * pt.u[i])
        out.append(lambda pt, i=i: 1 - pt.q * pt.spin.tail * pt.u[i])
        out.append(lambda pt, i=i: pt.u[i] - pt.spin.tail)
    out.append(lambda pt: 1 - pt.spin.tail * pt.spin.tail)
    out.append(lambda pt: 1 - pt.q * pt.spin.tail * pt.spin.tail)
    return out


def rational_chain_poles(n, p):
    poles = rational_lemma_poles(n) + rational_scalar_poles(p)
    for l in range(p + 3):
        for i in range(n):
            poles.append(lambda pt, l=l, i=i: 1 - pt.s(l) * pt.u[i])
    for l in (p, max(p, 1)):
        poles.append(lambda pt, l=l: 1 - prod((ui - pt.s(l)) / (1 - pt.s(l) * ui) for ui in pt.u))
    return poles


def test_integer_pole_lists_sample_the_rational_lists_points():
    for seed in range(200):
        for p in range(3):
            assert sample_point(seed, 0, p, _scalar_poles(p)) == sample_point(seed, 0, p, rational_scalar_poles(p))
        for n in range(1, 6):
            assert sample_point(seed, n, 0, _lemma_poles(n)) == sample_point(seed, n, 0, rational_lemma_poles(n))
            for p in range(3):
                want = sample_point(seed, n, p, rational_chain_poles(n, p))
                assert sample_point(seed, n, p, _chain_poles(n, p)) == want, (seed, n, p)


def test_integer_poles_vanish_with_the_rational_ones():
    # values drawn from a small set, so that the poles are hit
    values = [F(v) for v in (-2, -1, 0, 1, 2, 3)] + [F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(3, 2), F(1, 4)]
    rng = random.Random(3)
    hits = 0
    for _ in range(400):
        n, p = rng.randint(1, 3), rng.randint(0, 2)
        u = []
        while len(u) < n:
            v = rng.choice(values)
            if v not in u:
                u.append(v)
        spin = SpinParams(tuple(rng.choice(values) for _ in range(p)), rng.choice(values))
        point = ParamPoint(rng.choice(values), F(1), spin, tuple(u))
        # left out: the chain's last two poles, on the ratios, divide by 1 - s_l u_i
        pairs = list(zip(_chain_poles(n, p)[:-2], rational_chain_poles(n, p)[:-2]))
        for integer, rational in pairs:
            assert (integer(point) == 0) == (rational(point) == 0), (point,)
            hits += integer(point) == 0
    assert hits


def test_pochhammer_lists_are_the_factors_at_each_multiplicity():
    t, spin, gamma = series_parameters(7, 2)
    q = t * t
    # (family, r) -> its factor at m by the definition, one qpoch per factor
    definitions = {
        (poch_main1(q), 1): lambda m: qpoch(-spin.lookup(1), q, m),
        (poch_uniform(t), 2): lambda m: qpoch(-t, t, m) * qpoch(-spin.lookup(2), t, m),
        (poch_gamma(t, gamma), 0): lambda m: qpoch(-gamma * t, t, m) * qpoch(-spin.lookup(0) / gamma, t, m),
        (poch_gamma(t, gamma), 3): lambda m: qpoch(-t, t, m) * qpoch(-spin.lookup(3), t, m),
        (poch_hl(t), 0): lambda m: qpoch(-t, t, m),
        (poch_hl(t, 1), 0): lambda m: 1,
    }
    for (poch, r), factor in definitions.items():
        for n in range(6):
            want = [factor(m) for m in range(n + 1)]
            assert poch.pochs(spin, r, n) == want, (r, n)
            assert [poch(spin, r, m) for m in range(n + 1)] == want, (r, n)
