"""Verification harness: every identity, recurrence, and lemma as an
executable check with a structured pass/fail report.

Identity checks come in two modes.  Statements that only hold as power series
(the two Littlewood-type identities, their corollaries, and the recurrences
for the weighted sums H) are verified coefficientwise on truncated series in
the x variables after substituting u_i = (s + x_i)/(1 + s x_i).  Polynomial
and rational-function statements (the key lemmas, the length recurrence, and
the reduction chains) are verified exactly at seeded generic rational points.

Truncation of the infinite partition sums: the series are carried to total
degree D and no further.  The partition budget keeps a margin: each F_lambda
has x-order at least sum_i max(lambda_i - p, 0) - n(n-1)/2 (the pair
denominators of the symmetrizer formula can each absorb one order of
vanishing), so summing over partitions with excess at most D + n(n-1)/2 is
exact to degree D.  The sum is one row-by-row transfer of the higher spin six
vertex model on series, whose final states are the multiplicity rows
(m_0, m_1, ...) of the partitions; it needs no symmetrizer and no division.
The transfer is ``vertex.row_transfer``, the same one that computes the
scalar ``f_lambda_vertex``, over every row but the last.  Each state keeps
its partial F_mu in the monomial-symmetric basis, the new row's variable
taking the smallest part (``series.SymmetricSum``), so row k reads its
univariate weights to degree cap // k only.  A final state's weight is a
product of one factor per column, so the family weights are pulled back
through the last row: its walks form a graph shared by suffix, which no
family enters (``vertex.last_row_graph``), each family evaluates it once
(``series.weigh_states``), and the values of its nodes past the spin
prefix, which read only the spin tail's factors, are kept per tail row of
factors, so families that share that row evaluate the rest only.  Each
state before the last row then adds its sum times its node's value, in the
same basis, and only the total is expanded into a series, once.
Every series check additionally extends the budget by one and confirms that
no coefficient moves (the stabilization check): the weighting at budget
B + 1 keeps the final states of excess B + 1 apart, and the check passes
exactly when they add nothing.  The Pfaffian sides are
``series.pfaffian_side_series``: by the minor summation formula the series
Pfaffian over the u-differences is a sum of scalar block Pfaffians times
Schur polynomials, so no series Pfaffian is taken.

The recurrences are checked after clearing denominators by the Vandermonde
polynomial V, so each weighted sum H over a variable subset T is read only to
degree D + |T| |Tc|, the degree its cofactor V(T) V(Tc) leaves; H is
symmetric, so each subset size and shift takes one sum, and one product with
the subset factor, relabeled onto every subset of that size (see
``_check_rec``).

Every point-mode sum over the subsets T of [n] (both key-lemma right sides,
every reduction-chain term and the chain's second identification) is one
``_subset_product_sum`` over plain factor tables: a Pochhammer factor per
n - |T|, two factors per index and four per pair, chosen by which ends lie
in T, and optionally a block per T.  The callers evaluate every factor before
the sum, each table row is cleared to integers over its own least common
denominator, and the terms are summed on integers and divided once.  The
chains and the second key lemma take every subset's block Pfaffian from one
table of matrix entries per point (``block_pfaffians``).

Each kind of check has one driver (``_series_check`` for the five series
identities, ``_check_rec``, ``_lemma_report``, ``check_reduction_chain``), and
each checks its inputs by one range rule, ``_check_inputs``.  ``_BATTERY``
lists the checks in ``run_all``'s order; ``CHECK_NAMES`` is read from it.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .arith import (
    ParamPoint,
    PoleError,
    SpinParams,
    invert,
    over_common_denominator,
    perm_sign,
    PochFamily,
    one_minus,
    part_factors,
    qpochs,
    qpochs_product,
    rat_str,
    sample_point,
)
from .pfaffian import (
    MGammaSpec,
    block_pfaffians,
    conjugated_pfaffian,
    pfaffian_side,
    rhs_main1,
    rhs_main2,
    s_over_gamma,
)
from .series import (
    SymmetricSum,
    TruncSeries,
    expand_symmetric,
    littlewood_series,
    pfaffian_side_series,
    series_diff,
    u_part_factors,
    u_substitution,
    vandermonde_exponents,
    weigh_states,
)
from .vertex import last_row_graph, row_transfer

# the battery of ``run_all``, (check, gamma) in report order: every check at
# its sampled parameters, and main2 once more at gamma = 7/5
_BATTERY = (
    ("main1", None), ("cor", None), ("main2", None), ("main2", Fraction(7, 5)),
    ("hl", None), ("kawanaka", None), ("rec1", None), ("rec2", None), ("rec2v", None),
    ("lemma1", None), ("lemma2", None), ("chain", None),
)
CHECK_NAMES = tuple(dict.fromkeys(name for name, _ in _BATTERY))
# the checks that take a gamma; their weights divide s_0 by it
GAMMA_CHECKS = ("main2", "rec2")


@dataclass
class CheckReport:
    """Outcome of one check: pass/fail plus the first witness of failure."""

    check: str
    params: dict
    status: str
    witness: object = None

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
        }


def _coeff_witness(diff):
    exps, lhs, rhs = diff
    return {
        "coefficient": list(exps),
        "lhs": rat_str(lhs),
        "rhs": rat_str(rhs),
    }


# ----------------------------------------------------------------------
# weights of the partition sums: each Littlewood family is defined by its
# Pochhammer factor (spin, r, m) -> the factor of a part r of multiplicity m,
# which at m = n - |T| is also the subset factor of the recurrences and chains;
# the weight of lambda is prod_r poch(spin, r, m_r) / (q; q)_{m_r}


def poch_main1(q):
    """(-s_r; q)_m: the product-form family."""
    return PochFamily(lambda spin, r, n: qpochs(-spin.lookup(r), q, n), ("main1", q))


def poch_uniform(t):
    """(-t; t)_m (-s_r; t)_m: the Pfaffian-form family at gamma = 1."""
    return PochFamily(lambda spin, r, n: qpochs_product(-t, -spin.lookup(r), t, n), ("uniform", t))


def poch_gamma(t, gamma):
    """(-gamma t; t)_m (-s_0/gamma; t)_m at r = 0, and the gamma = 1 factor
    above it: the gamma-refined family.  s_0/gamma is ``s_over_gamma``, so
    gamma = 0 needs s_0 = 0 (the Kawanaka limit)."""
    uniform = poch_uniform(t).pochs

    def pochs(spin, r, n):
        if r == 0:
            return qpochs_product(-gamma * t, -s_over_gamma(spin.lookup(0), gamma), t, n)
        return uniform(spin, r, n)

    return PochFamily(pochs, ("gamma", t, gamma))


def poch_hl(t, from_part=0):
    """(-t; t)_m for the parts r >= from_part and 1 below: the Hall-Littlewood
    sums with P_lambda = F_lambda(all spins 0) / prod_r (q; q)_{m_r}.
    from_part is 0 or 1, as a ``PochFamily`` reads r only through s_r and
    whether r is 0."""
    return PochFamily(lambda spin, r, n: qpochs(-t, t, n) if r >= from_part else [1] * (n + 1), ("hl", t, from_part))


# ----------------------------------------------------------------------
# series-mode machinery


def _pair_extra(n):
    return n * (n - 1) // 2


def _transfer_sweep(nrows, spin, t, cap, budget, cache):
    """The vertex-model transfer on series over ``nrows`` rows, its last row
    pulled back onto the states before it.

    Row k's spectral value is u = (s + x)/(1 + s x) in one variable to degree
    d = cap // k, handed to the transfer as the pair (s, d): its vertex
    weights are written in closed form (``vertex.series_weight``) and kept in
    ``cache`` per degree, as integer coefficient lists over their
    denominators.  The columns run to p + budget, and states whose excess
    passes the budget are dropped as they appear.  Rows 1..nrows-1 run
    forward (``vertex.row_transfer``), kept in ``cache`` at the largest
    budget requested so far; their states map to F_mu(x_1, ..., x_(nrows-1))
    truncated at ``cap`` as ``SymmetricSum``s, so one sweep serves every list
    of ``nrows`` variables.  The last row is the graph of its walks
    (``vertex.last_row_graph``), which no family weight enters, so one graph
    per budget serves every family (``series.weigh_states``)."""
    rows = []
    for d in (cap // k for k in range(1, nrows + 1)):
        rows.append(((spin.tail, d), cache.setdefault(("vertex weights", d, t, spin.tail), {})))
    key = ("transfer", nrows, spin.prefix, spin.tail, t, cap)
    sweep = cache.get(key)
    if sweep is None or sweep[0] < budget:
        room = [nrows] * (spin.p + budget + 1) + [0]
        states = row_transfer([(u, w, None) for u, w in rows[:-1]], spin, t * t, SymmetricSum.one(cap), room, budget)
        sweep = cache[key] = (budget, states)
    return last_row_graph(sweep[1], rows[-1] if rows else None, spin, t * t, budget)


def _lhs_sum(n, spin, t, cap, poch, budget, cache, var_indices=None):
    """Truncated partition sum of the family weight
    prod_r poch(spin, r, m_r) / (q; q)_{m_r} times F_lambda, as a series in n
    variables, over the partitions of excess at most ``budget``.

    The weights depend on lambda only through its multiplicities m_r, the
    final states of one vertex-model transfer, so the transfer is shared by
    every family and every list of as many variables: its rows before the
    last are kept in ``cache`` at the largest budget requested so far, and
    its last row, pulled back into a graph, per budget
    (``_transfer_sweep``).  Each family evaluates the graph once
    (``series.weigh_states``; the values at the columns past the spin
    prefix are kept on it per tail row of factors), into the sum at
    ``budget`` and, apart, the final states of excess exactly ``budget``,
    which the stabilization gate reads; the sum is expanded onto the listed
    variables once.  ``cache``
    keeps one such weighting per family, spin, t, cap, budget and variable
    list (None meaning range(n)), so families of equal ``PochFamily.key``
    share it (``_weighing``).  At q = 1 the factor 1/(q; q)_m has a pole
    for every m >= 1, raised as ``PoleError`` before the transfer runs."""
    return _weighing(n, spin, t, cap, poch, budget, cache, var_indices)[0]


def _weighing(n, spin, t, cap, poch, budget, cache, var_indices):
    """The cache entry of ``_lhs_sum``: its series, the ``SymmetricSum``
    below the budget when the gate fails (else None), and the variable
    list, from the family's pass over the cached last-row graph of its
    transfer (``_transfer_sweep``, one graph per number of variables, spin,
    t, cap and budget)."""
    if t * t == 1:
        raise PoleError("1 - q")
    var_indices = tuple(range(n)) if var_indices is None else tuple(var_indices)
    key = ("weighing", poch, spin, t, cap, budget, n, var_indices)
    got = cache.get(key)
    if got is None:
        nrows = len(var_indices)
        graph_key = ("last row", nrows, spin.prefix, spin.tail, t, cap, budget)
        graph = cache.get(graph_key)
        if graph is None:
            graph = cache[graph_key] = _transfer_sweep(nrows, spin, t, cap, budget, cache)
        total, below = weigh_states(graph, poch, spin, t * t, nrows, budget, cap)
        got = cache[key] = (expand_symmetric(total, n, cap, var_indices), below, var_indices)
    return got


def _rhs_main1_series(n, s, t, cap):
    return littlewood_series(n, s, t, cap)


def _vandermonde_series(var_indices, nvars, cap):
    return TruncSeries(nvars, cap, vandermonde_exponents(tuple(var_indices), nvars))


def _rhs_pf_series(n, spin, t, gamma, cap):
    """Kernel times Pfaffian over the u-differences as a series, with s_0 in
    the matrix entries and u_i = (s + x_i)/(1 + s x_i) at the spin tail s:
    the scalar block Pfaffians times Schur polynomials of
    ``series.pfaffian_side_series``."""
    spec = MGammaSpec(ParamPoint(t, gamma, spin, ()), gamma, spin.lookup(0))
    return pfaffian_side_series(spec, n, cap)


def _gated_sum(n, spin, t, cap, poch, budget, cache, var_indices=None):
    """The stabilization gate: the partition sum at budget B + 1, and the
    first coefficient where the sum at B differs from it (None when none
    does), from one weighting at B + 1 (``_lhs_sum``).  The sums differ
    exactly when the states of excess B + 1 add a nonzero partition
    coefficient, so only then is the sum at B expanded, for the witness."""
    extended = _lhs_sum(n, spin, t, cap, poch, budget + 1, cache, var_indices)
    _, below, var_indices = _weighing(n, spin, t, cap, poch, budget + 1, cache, var_indices)
    if below is None:
        return extended, None
    return extended, series_diff(expand_symmetric(below, n, cap, var_indices), extended)


def _check_inputs(least_n, n, p=0, D=0, cache=None):
    """The input range of every check: p >= 0, D >= 0 and n >= ``least_n``,
    0 for the series identities (n = 0 passes) and 1 for ``run_check``, the
    recurrences, lemmas and chains.  Returns the memo: ``cache`` or a new one."""
    if n < least_n or p < 0 or D < 0:
        raise ValueError("need n >= %d, p >= 0 and D >= 0, got n=%s, p=%s, D=%s" % (least_n, n, p, D))
    return {} if cache is None else cache


def _nonzero_gamma(name, gamma):
    """gamma as a rational; the checks of GAMMA_CHECKS refuse 0."""
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValueError("%s needs gamma != 0: its weights divide s_0 by gamma" % name)
    return gamma


def _series_check(name, n, spin, t, D, poch, gamma, cache, other_poch=None):
    """The one driver of the series identities: the gated partition sum of
    the family ``poch`` (``_gated_sum``, one weighting at budget B + 1)
    against the right side, the product side for ``gamma`` None and the
    Pfaffian side at ``gamma`` otherwise, built before the sum.  The
    zero-spin checks (reports of n, D and t only) first compare the sum at
    B + 1 with that of ``other_poch``, an independent route to the same left
    side; the gate then reads the weighting of ``poch`` from ``cache``."""
    cache = _check_inputs(0, n, spin.p, D, cache)
    if other_poch is None:
        params = _series_params(n, spin, t, D)
    else:
        params = {"n": n, "D": D, "t": rat_str(t)}
    if n == 0:
        return CheckReport(name, params, "pass")
    budget = D + _pair_extra(n)
    if other_poch is not None:
        # the two weights agree partition by partition, so any budget compares
        # them; B + 1 is the one the transfer of the gate is kept at
        lhs, other = (_lhs_sum(n, spin, t, D, f, budget + 1, cache) for f in (poch, other_poch))
        drift = series_diff(lhs, other)
        if drift is not None:
            return CheckReport(name, params, "fail", _coeff_witness(drift))
    if gamma is None:
        rhs = _rhs_main1_series(n, spin.tail, t, D)
    else:
        rhs = _rhs_pf_series(n, spin, t, gamma, D)
    extended, drift = _gated_sum(n, spin, t, D, poch, budget, cache)
    if drift is not None:
        return CheckReport(name, params, "stabilization_failed", _coeff_witness(drift))
    diff = series_diff(extended, rhs)
    if diff is not None:
        return CheckReport(name, params, "fail", _coeff_witness(diff))
    return CheckReport(name, params, "pass")


def _series_params(n, spin, t, D):
    return {"n": n, "p": spin.p, "D": D, "t": rat_str(t), "s": rat_str(spin.tail)}


def check_main1(n, spin, t, D, cache=None):
    """Product-form Littlewood identity, coefficientwise to total degree D."""
    return _series_check("main1", n, spin, t, D, poch_main1(t * t), None, cache)


def check_cor_main2(n, spin, t, D, cache=None):
    """Pfaffian-form identity at gamma = 1, coefficientwise to degree D."""
    return _series_check("cor", n, spin, t, D, poch_uniform(t), Fraction(1), cache)


def check_main2(n, spin, t, D, gamma, cache=None):
    """Gamma-refined Pfaffian identity, coefficientwise to degree D."""
    gamma = _nonzero_gamma("main2", gamma)
    rep = _series_check("main2", n, spin, t, D, poch_gamma(t, gamma), gamma, cache)
    rep.params["gamma"] = rat_str(gamma)
    return rep


def check_hl_corollary(n, t, D, cache=None):
    """Littlewood identity for Hall-Littlewood polynomials: all spins zero, so
    u_i = x_i and each summand is homogeneous of degree |lambda|.

    The left side is formed literally as the Hall-Littlewood weighted sum
    prod_r (-t; t)_{m_r} P_lambda (``poch_hl``); it must also agree with the
    zero-spin specialization of the gamma = 1 weights."""
    zero = SpinParams.constant(0)
    return _series_check("hl", n, zero, t, D, poch_hl(t), Fraction(1), cache, poch_uniform(t))


def check_kawanaka(n, t, D, cache=None):
    """Specialization path s_0 = 0, then gamma = 0, then all spins 0: the
    gamma-refined identity must degenerate without pole errors and its left
    side must match the classical Hall-Littlewood weighted sum
    prod_{r>=1} (-t; t)_{m_r} P_lambda (``poch_hl`` from part 1)."""
    kawanaka = poch_gamma(t, Fraction(0))
    zero = SpinParams.constant(0)
    return _series_check("kawanaka", n, zero, t, D, kawanaka, Fraction(0), cache, poch_hl(t, 1))


# ----------------------------------------------------------------------
# recurrences for the weighted sums, as series identities


def _rec_h(n, k, spin, t, D, poch, cache):
    """The stabilization gate on H over the first k of n variables, carried
    to degree D + k (n - k): the degree the cleared recurrence reads of it."""
    cap = D + k * (n - k)
    return _gated_sum(n, spin, t, cap, poch, cap + _pair_extra(k), cache, tuple(range(k)))


def _rec_block(T, n, s, q, cap):
    """The subset factor sgn(T) V(T) V(Tc) prod_{i in T, j in Tc} (u_i - q u_j)
    (1 + s x_i)(1 + s x_j)/(1 - s^2), a polynomial: each pair factor is
    ((s + x_i)(1 + s x_j) - q (s + x_j)(1 + s x_i))/(1 - s^2)."""
    full = tuple(range(n))
    Tc = tuple(j for j in full if j not in T)
    unit = Fraction(1) / (1 - s * s)
    const, lin_i, lin_j = s * (1 - q) * unit, (1 - q * s * s) * unit, (s * s - q) * unit
    block = TruncSeries.const(n, cap, perm_sign(T + Tc))
    for i in T:
        for j in Tc:
            x_i = tuple(int(v == i) for v in full)
            x_j = tuple(int(v == j) for v in full)
            x_ij = tuple(a + b for a, b in zip(x_i, x_j))
            pair = {(0,) * n: const, x_i: lin_i, x_j: lin_j, x_ij: const}
            block = block * TruncSeries(n, cap, pair)
    block = block * _vandermonde_series(T, n, cap)
    return block * _vandermonde_series(Tc, n, cap)


def _check_rec(name, n, spin, t, D, poch, inner_poch, L0, cache):
    """Shared engine for the three recurrences.

    Both sides are multiplied by the full Vandermonde polynomial V in x, of
    degree n(n-1)/2, which clears the u-difference denominators of the
    shuffle factors termwise; agreement to degree D + n(n-1)/2 of the cleared
    identity certifies the recurrence itself to degree D.  The tail of the
    sum over the smallest part l is geometric from max(L0, p) on and is
    summed in closed form.

    Each H is computed only as far as the cleared identity reads it.  The
    subset term of T carries V(T) V(Tc), homogeneous of degree
    n(n-1)/2 - |T| |Tc|, so H(T) is needed to degree D + |T| |Tc| only, and
    H over all n variables (against V) to degree D only.  H is symmetric, so
    H(T) is H over the first |T| variables relabeled: one sum per subset size
    and shift, not one per subset.  Each sum is weighed once, at budget
    B + 1 (B the cap plus the margin of ``_lhs_sum``), and fails the
    stabilization gate when its states of excess B + 1 move a coefficient
    (``_gated_sum``).  In one ``cache`` the full H is the left side of the
    series check of its family, and the H(T) of one family are weighed once
    for all the recurrences that read them.  The subset factor
    (``_rec_block``) of T is that of the first |T| variables relabeled, times
    the crossing sign of T, so the whole T-dependent part of the l-th term is
    one product per subset size, relabeled onto each subset.  The factors
    that do not depend on T multiply the sum over T once per l: outers[l] of
    one ``series.u_part_factors`` table over the series u, and at the last l
    the geometric tail 1/(1 - ratios[l]).

    ``poch`` is the Pochhammer factor of the family of H, and ``inner_poch``
    that of the sums H(T) over the spins past l.
    """
    cache = _check_inputs(1, n, spin.p, D, cache)
    params = _series_params(n, spin, t, D)
    q = t * t
    s = spin.tail
    cap = D + _pair_extra(n)
    full = tuple(range(n))
    max_l = max(L0, spin.p)

    h_full, drift = _rec_h(n, n, spin, t, D, poch, cache)
    if drift is not None:
        return CheckReport(name, params, "stabilization_failed", _coeff_witness(drift))
    # the T-dependent part of the l-th term for T = (0, ..., k-1): the subset
    # factor times poch(spin, l, n - k) prod_{i in T} (u_i - s_l) H(T, spin
    # shifted past l); renaming x_0..x_{k-1} to T and the rest to Tc, in
    # order, carries it onto sgn(T) times the part for T
    subset_sums = [TruncSeries.zero(n, cap) for _ in range(max_l + 1)]
    for k in range(n):
        block = _rec_block(full[:k], n, s, q, cap)
        renamings = []
        for T in combinations(full, k):
            order = T + tuple(j for j in full if j not in T)
            renamings.append((perm_sign(order), order))
        for l in range(max_l + 1):
            h, drift = _rec_h(n, k, spin.shift(l + 1), t, D, inner_poch, cache)
            if drift is not None:
                return CheckReport(name, params, "stabilization_failed", _coeff_witness(drift))
            sl = spin.lookup(l)
            term = h * poch(spin, l, n - k)
            for i in range(k):
                term = term * (u_substitution(i, s, h.cap, n) - sl)
            term = block * term.relabeled(full, cap)
            subset_sums[l] = subset_sums[l] + term.relabeled_sum(renamings, cap)

    lhs = _vandermonde_series(full, n, cap) * h_full.relabeled(full, cap)

    # the factors of the l-th term that do not depend on the subset T:
    # outers[l] and, at the last l (where s_l is the tail), the geometric tail
    ratios, outers = u_part_factors(full, s, spin, max_l, n, cap)
    rhs = TruncSeries.zero(n, cap)
    for l, subset_sum in enumerate(subset_sums):
        factor = outers[l]
        if l == max_l:
            factor = factor * (1 - ratios[max_l]).inv()
        rhs = rhs + factor * subset_sum
    diff = series_diff(lhs, rhs)
    if diff is not None:
        return CheckReport(name, params, "fail", _coeff_witness(diff))
    return CheckReport(name, params, "pass")


def check_rec1(n, spin, t, D, cache=None):
    """Recurrence of the product-form sum H_1 under removing the smallest part."""
    poch = poch_main1(t * t)
    return _check_rec("rec1", n, spin, t, D, poch, poch, 0, cache)


def check_rec2v(n, spin, t, D, cache=None):
    """Recurrence of the gamma = 1 Pfaffian-form sum."""
    poch = poch_uniform(t)
    return _check_rec("rec2v", n, spin, t, D, poch, poch, 0, cache)


def check_rec2(n, spin, t, D, gamma, cache=None):
    """Recurrence of the gamma-refined sum H_2; the right side involves the
    gamma = 1 sums, and gamma enters the Pochhammer weights only at l = 0."""
    gamma = _nonzero_gamma("rec2", gamma)
    rep = _check_rec("rec2", n, spin, t, D, poch_gamma(t, gamma), poch_uniform(t), 1, cache)
    rep.params["gamma"] = rat_str(gamma)
    return rep


# ----------------------------------------------------------------------
# subset sums (point mode): the right sides of the key lemmas and the terms
# of the reduction chains


def _subset_product_sum(n, poch, index, pair, block=None, proper=False):
    """The sum over the subsets T of range(n) (the proper ones when
    ``proper``) of poch[n - |T|] prod_i index[i][i in T]
    prod_{i<j} pair[i, j][i in T, j in T], times block[T] (T ascending) when
    ``block`` is not None.

    Each row of the tables (the poch list, each index's two factors, each
    pair's four, the block table) is cleared to integer numerators over its
    own least common denominator once, every term is a product of those
    integers, and the sum is divided once."""
    den = 1

    def cleared(row):
        # the dict ``row`` on integer numerators over its lcm, which den takes on
        nonlocal den
        nums, d = over_common_denominator(row.values())
        den *= d
        return dict(zip(row, nums))

    poch = cleared(dict(enumerate(poch)))
    index = [cleared(dict(enumerate(row))) for row in index]
    pair = {ij: cleared(ends) for ij, ends in pair.items()}
    if block is not None:
        block = cleared(block)
    total = 0
    for size in range(n if proper else n + 1):
        for T in combinations(range(n), size):
            bits = [0] * n
            for i in T:
                bits[i] = 1
            term = poch[n - size] * prod(index[i][bits[i]] for i in range(n))
            term *= prod(ends[bits[i], bits[j]] for (i, j), ends in pair.items())
            if block is not None:
                term *= block[T]
            total += term
    return Fraction(total, den)


# ----------------------------------------------------------------------
# key polynomial lemmas (point mode)


def _key_lemma_sum(u, q, poch, inside, pair_inside, block=None):
    """The right side shared by both key lemmas: the sum over the subsets T
    of [n] of perm_sign(T + Tc) poch[|Tc|] prod_{j in Tc} (1 - u_j)
    prod_{i in T} inside(u_i) prod_{i in T, j in Tc} (u_i - q u_j)(1 - u_i u_j)
    prod_{i<j in Tc} (1 - u_i u_j)(u_i - u_j) prod_{i<j in T} pair_inside(u_i, u_j),
    times block[T] (0-based T) when ``block`` is given.  The sign is the
    parity of the pairs i < j with only j in T, so it rides on those pair
    factors."""
    n = len(u)
    pair = {}
    for i, j in combinations(range(n), 2):
        ui, uj = u[i], u[j]
        pair[i, j] = {
            (0, 0): (1 - ui * uj) * (ui - uj),
            (1, 0): (ui - q * uj) * (1 - ui * uj),
            (0, 1): (q * ui - uj) * (1 - ui * uj),  # -(u_j - q u_i)(1 - u_i u_j)
            (1, 1): pair_inside(ui, uj),
        }
    index = [(1 - ui, inside(ui)) for ui in u]
    return _subset_product_sum(n, poch, index, pair, block)


def key_lemma1_sides(u, q, s):
    """Both sides of the polynomial identity behind the product-form proof."""
    u = tuple(Fraction(v) for v in u)
    q, s = Fraction(q), Fraction(s)
    n = len(u)
    lhs = Fraction(1)
    for ui in u:
        lhs *= 1 - s * ui
    for i in range(n):
        for j in range(i + 1, n):
            lhs *= (1 - q * u[i] * u[j]) * (u[i] - u[j])
    rhs = _key_lemma_sum(
        u,
        q,
        qpochs(-s, q, n),
        lambda ui: ui - s,
        lambda ui, uj: (1 - q * ui * uj) * (ui - uj),
    )
    return lhs, rhs


def key_lemma2_sides(point, s, gamma, gamma_inv_s=None):
    """Both sides of the Pfaffian identity (sum over subsets with crossing
    signs) driving the Pfaffian-form proof."""
    specg = MGammaSpec(point, gamma, s, gamma_inv_s)
    conjugated = conjugated_pfaffian(specg, range(1, point.n + 1))
    blocks = _zero_based(block_pfaffians(MGammaSpec(point, Fraction(1), s)))
    return _key_lemma2_from(point, specg, conjugated, blocks)


def _zero_based(pfs):
    """The table of ``block_pfaffians``, keyed by the 0-based T."""
    return {tuple(i - 1 for i in T): pf for T, pf in pfs.items()}


def _key_lemma2_from(point, spec, conjugated, blocks):
    """``key_lemma2_sides`` at the parameters of ``spec``, given the Pfaffian
    ``conjugated`` of ``m_conjugated(spec, [n])`` (``conjugated_pfaffian``)
    and the gamma = 1 block Pfaffians ``blocks`` (``block_pfaffians`` keyed
    by the 0-based T).  The blocks do not depend on s, and at gamma = 1
    neither does ``conjugated``, so callers at several s can share both.

    Both sides use Pf(B M B) = det(B) Pf(M) for a diagonal B, so no matrix
    is conjugated entry by entry: ``conjugated`` is det(B(n, n)) times the
    Pfaffian of ``m_gamma``, and the right side conjugates each gamma = 1
    block over T by the diagonal B(T, T) of ``b_matrix``, which is the
    block's Pfaffian times the pair products (1 - u_i u_j)(1 - q u_i u_j)
    over the pairs of T."""
    t, q, u, n = point.t, point.q, point.u, point.n
    s, gamma, gis = spec.s, spec.gamma, spec.gamma_inv_s
    lhs = conjugated
    for ui in u:
        lhs *= (1 + t) * (1 - s * ui)
    rhs = _key_lemma_sum(
        u,
        q,
        qpochs_product(-gis, -gamma * t, t, n),
        lambda ui: (1 + t) * (ui - s),
        lambda ui, uj: (1 - ui * uj) * (1 - q * ui * uj),
        blocks,
    )
    return lhs, rhs


def key_lemma2_A_sides(point, s, gamma):
    """Both sides of the companion identity obtained at u_1 = s, relating the
    full conjugated matrix to the one on labels 2..n at shifted parameters."""
    n = point.n
    t = point.t
    q = point.q
    s = Fraction(s)
    gamma = Fraction(gamma)
    u = point.u
    specg = MGammaSpec(point, gamma, s)
    u_sub = (s,) + u[1:]
    lhs = (1 + t) * (1 - s * s) * conjugated_pfaffian(specg, range(1, n + 1), u=u_sub)
    for ui in u[1:]:
        lhs *= 1 - s * ui
    spec_shift = MGammaSpec(point, t * gamma, q * s)
    rhs = (
        (1 + gamma * t)
        * (1 + s / gamma)
        * (1 - s)
        * conjugated_pfaffian(spec_shift, range(2, n + 1))
    )
    for ui in u[1:]:
        rhs *= (s - ui) * (1 - s * ui) * (1 - s * q * ui)
    return lhs, rhs


# ----------------------------------------------------------------------
# polynomial expansion in one variable (exact interpolation)


def _interpolate(values):
    """Coefficients (ascending) of the unique polynomial through (x_i, y_i)."""
    nodes = [x for x, _ in values]
    n = len(values)
    # Newton divided differences
    coef = [y for _, y in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    # expand Newton form to monomial coefficients
    poly = [Fraction(0)] * n
    for j in range(n - 1, -1, -1):
        # poly = poly * (x - nodes[j]) + coef[j]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [shifted[k] - nodes[j] * poly[k] for k in range(n)]
        poly[0] += coef[j]
    return poly


def _poly_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def polynomial_expansion_equal(sides, degree_bound, nodes):
    """Interpolate both sides of ``sides(x) -> (lhs, rhs)`` through the first
    degree_bound + 1 nodes, confirm the interpolants also match the sides at
    the remaining nodes (certifying the degree bound), and compare
    coefficient lists.  Each node evaluates ``sides`` once."""
    values = [(x, sides(x)) for x in nodes]
    base = values[: degree_bound + 1]
    lhs_poly = _interpolate([(x, lhs) for x, (lhs, _) in base])
    rhs_poly = _interpolate([(x, rhs) for x, (_, rhs) in base])
    for x, (lhs, rhs) in values[degree_bound + 1 :]:
        if _poly_eval(lhs_poly, x) != lhs or _poly_eval(rhs_poly, x) != rhs:
            return False
    return lhs_poly == rhs_poly


# ----------------------------------------------------------------------
# reduction chains (point mode)


def _split_kernel(u, q, i, j):
    """(u_i - q u_j)/(u_i - u_j), 0-based: the split kernel's factor of a
    pair with only u_i in the subset."""
    return (u[i] - q * u[j]) * invert(u[i] - u[j], "u_%d - u_%d" % (i + 1, j + 1))


_ChainKernel = namedtuple("_ChainKernel", "inside pairs block ratios outers")


def _chain_kernel(point, inside, pair_inside, block=None):
    """The tables of a chain, each computed once per chain: the T-tables,
    which do not depend on l (``inside(i)`` per index in T; per pair, by
    which of its ends lie in T, ``pair_inside(i, j)`` for both and
    ``_split_kernel`` for one; and the table ``block``, keyed by the 0-based
    T), and beside them the smallest-part factors ``ratios`` and ``outers``
    at l = 0..p+1 (``arith.part_factors``)."""
    u, q = point.u, point.q
    pairs = {}
    for i, j in combinations(range(point.n), 2):
        one_end = _split_kernel(u, q, i, j), _split_kernel(u, q, j, i)
        pairs[i, j] = {(0, 0): 1, (1, 0): one_end[0], (0, 1): one_end[1], (1, 1): pair_inside(i, j)}
    index = [inside(i) for i in range(point.n)]
    return _ChainKernel(index, pairs, block, *part_factors(u, point.spin, point.spin.p + 1))


def _littlewood_in_subset(point):
    """``_chain_kernel`` with the in-subset factors of ``littlewood_kernel``:
    1/(1 - u_i) per index and (1 - q u_i u_j)/(1 - u_i u_j) per pair."""
    u, q = point.u, point.q
    return _chain_kernel(
        point,
        lambda i: invert(1 - u[i], "1 - u_%d" % (i + 1)),
        lambda i, j: (1 - q * u[i] * u[j]) * invert(1 - u[i] * u[j], "1 - u_%d*u_%d" % (i + 1, j + 1)),
    )


def _pfaffian_in_subset(point, pfs):
    """``_chain_kernel`` with the in-subset factors of ``pfaffian_side``:
    (1 + t)/(1 - u_i) per index, (1 - q u_i u_j)/(u_i - u_j) per pair, and
    the block Pfaffian of T from the table ``pfs`` (``block_pfaffians``),
    re-keyed by the 0-based T."""
    u, t, q = point.u, point.t, point.q
    return _chain_kernel(
        point,
        lambda i: (1 + t) * invert(1 - u[i], "1 - u_%d" % (i + 1)),
        lambda i, j: (1 - q * u[i] * u[j]) * invert(u[i] - u[j], "u_%d - u_%d" % (i + 1, j + 1)),
        _zero_based(pfs),
    )


def _subset_sum(point, l, poch, kernel, proper=True):
    """The l-th term of a reduction chain: the sum over the subsets T of [n]
    (the proper ones unless ``proper`` is false) of poch(spin, l, n - |T|)
    prod_{i in T} (u_i - s_l) times the split kernel
    prod_{i in T, j not in T} (u_i - q u_j)/(u_i - u_j) times the kernel
    over T, times outers[l] (both from ``_chain_kernel``).  The factors
    poch(spin, l, m), m = 0..n, are the family's one list (``PochFamily``)."""
    u, sl, n = point.u, point.s(l), point.n
    total = _subset_product_sum(
        n,
        poch.pochs(point.spin, l, n),
        [(1, (u[i] - sl) * kernel.inside[i]) for i in range(n)],
        kernel.pairs,
        kernel.block,
        proper,
    )
    return total * kernel.outers[l]


def _chain_steps(ratios, letter, full, sums, telescope=False):
    """The l-steps that the main1 and cor chains share, for the chain's
    ``ratios``, the full side ``full`` and the subset sums ``sums`` at
    l = 0..p+1, X being the upper-case ``letter``: ``letter``[l=l] checks
    prefix_l (1 - ratio_l) full against sums[l]; X'' checks (1 - ratio_p)
    full against the sums up to p less ratio_p times those below p, and
    ``telescope`` the same of the left sides; X checks full against the sums
    below p plus the geometric tail sums[p] / (1 - ratio_p).  Each prefix
    product is computed once.  Returns the results, in that order, and the
    prefix products."""
    p = len(ratios) - 2
    prefix = [Fraction(1)]
    for ratio in ratios[:-1]:
        prefix.append(prefix[-1] * ratio)
    lhs = [prefix[l] * (1 - ratios[l]) * full for l in range(p + 2)]
    results = {"%s[l=%d]" % (letter, l): lhs[l] == sums[l] for l in range(p + 2)}
    ratio_p = ratios[p]
    lhs_pp = (1 - ratio_p) * full
    results[letter.upper() + "''"] = lhs_pp == sum(sums[: p + 1]) - ratio_p * sum(sums[:p])
    if telescope:
        results["telescope"] = sum(lhs[: p + 1]) - ratio_p * sum(lhs[:p]) == lhs_pp
    # full sum over l with geometric tail
    results[letter.upper()] = full == sum(sums[:p]) + sums[p] / (1 - ratio_p)
    return results, prefix


def _chain_main1(point):
    """Each displayed step reducing the product-form identity to the key lemma."""
    kernel = _littlewood_in_subset(point)
    k1_full = rhs_main1(point)
    sums = [_subset_sum(point, l, poch_main1(point.q), kernel) for l in range(point.spin.p + 2)]
    return _chain_steps(kernel.ratios, "a", k1_full, sums, telescope=True)[0]


def _chain_cor(point):
    """Each displayed step reducing the Pfaffian-form identity (gamma = 1)."""
    p = point.spin.p
    spec1 = MGammaSpec(point, Fraction(1), point.s(0))
    full = tuple(range(1, point.n + 1))
    pf_full = pfaffian_side(spec1, full)
    # pfaffian_side(spec1, T), its block restricted from one entry table
    kernel = _pfaffian_in_subset(point, block_pfaffians(spec1))
    poch = poch_uniform(point.t)
    sums = [_subset_sum(point, l, poch, kernel) for l in range(p + 2)]
    results, prefix = _chain_steps(kernel.ratios, "b", pf_full, sums)
    for l in range(p + 2):
        rhs = _subset_sum(point, l, poch, kernel, proper=False)
        results["reuse[l=%d]" % l] = prefix[l] * pf_full == rhs

    # the second identification is the second key lemma at gamma = 1 and
    # s = s_l; at gamma = 1 neither its conjugated Pfaffian nor its blocks
    # depend on s, so both are taken once
    conjugated = conjugated_pfaffian(spec1, full)
    for l in range(p + 2):
        spec = MGammaSpec(point, Fraction(1), point.s(l))
        lhs, rhs = _key_lemma2_from(point, spec, conjugated, kernel.block)
        results["second_id[l=%d]" % l] = lhs == rhs
    return results


def _chain_main2(point):
    """Steps reducing the gamma-refined identity to the key lemma via the
    gamma = 1 case."""
    t, gamma, s0 = point.t, point.gamma, point.s(0)
    specg = MGammaSpec(point, gamma, s0)
    spec1 = MGammaSpec(point, Fraction(1), s0)
    results = {}
    lhs_main = rhs_main2(specg)
    kernel = _pfaffian_in_subset(point, block_pfaffians(spec1))
    poch_1 = poch_uniform(t)
    poch_g = poch_gamma(t, gamma)
    L0 = max(point.spin.p, 1)
    ratio_p = kernel.ratios[L0]

    def total(poch):
        sums = [_subset_sum(point, l, poch, kernel) for l in range(L0 + 1)]
        return sum(sums[:L0]) + sums[L0] / (1 - ratio_p)

    rhs_total = total(poch_g)
    results["to_show"] = lhs_main == rhs_total
    # the sum runs over all subsets, matching the subset sum of the key lemma
    # it reduces to
    results["final_display"] = lhs_main == _subset_sum(point, 0, poch_g, kernel, proper=False)

    # splitting off the l = 0 term: the gamma-weighted sum equals the uniform
    # sum plus the correction that cancels against the reused identity
    difference = PochFamily(
        lambda sp, l, n: [g - one for g, one in zip(poch_g.pochs(sp, l, n), poch_1.pochs(sp, l, n))]
    )
    correction = _subset_sum(point, 0, difference, kernel, proper=False)
    results["cancel_split"] = rhs_total == total(poch_1) + correction
    return results


def check_reduction_chain(n, p, which, seed):
    """Verify every displayed intermediate equation of a reduction chain as an
    exact scalar identity at a seeded generic point with p prefix spins."""
    _check_inputs(1, n, p)
    point = _chain_point(seed, n, p)
    if which == "main1":
        results = _chain_main1(point)
    elif which == "cor":
        results = _chain_cor(point)
    elif which == "main2":
        results = _chain_main2(point)
    else:
        raise ValueError("unknown chain %r" % (which,))
    params = {"n": n, "p": p, "which": which, "seed": seed}
    failing = [name for name, ok in results.items() if not ok]
    if failing:
        return CheckReport("chain", params, "fail", {"equations": failing})
    return CheckReport("chain", params, "pass", {"equations": sorted(results)})


# ----------------------------------------------------------------------
# seeded sampling with the pole lists of each check


def _scalar_poles(p):
    out = [lambda pt: one_minus(pt.spin.tail, pt.spin.tail)]
    out.append(lambda pt: one_minus(pt.spin.tail, pt.spin.tail, pt.t))
    out.append(lambda pt: one_minus(pt.spin.tail, 1))
    for j in range(p):
        out.append(lambda pt, j=j: one_minus(pt.s(j), pt.spin.tail))
        out.append(lambda pt, j=j: one_minus(pt.s(j), 1))
    return out


def series_parameters(seed, p):
    """Sample (t, spin, gamma) suitable for the series-mode checks."""
    point = sample_point(seed, 0, p, pole_list=_scalar_poles(p))
    return point.t, point.spin, point.gamma


def _lemma_poles(n):
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(lambda pt, i=i, j=j: one_minus(pt.u[i], pt.u[j]))
            out.append(lambda pt, i=i, j=j: one_minus(pt.u[i], pt.u[j], pt.t))
    for i in range(n):
        out.append(lambda pt, i=i: one_minus(pt.spin.tail, pt.u[i]))
        out.append(lambda pt, i=i: one_minus(pt.spin.tail, pt.u[i], pt.t))
        out.append(  # u_i - s
            lambda pt, i=i: pt.u[i].numerator * pt.spin.tail.denominator - pt.spin.tail.numerator * pt.u[i].denominator
        )
    out.append(lambda pt: one_minus(pt.spin.tail, pt.spin.tail))
    out.append(lambda pt: one_minus(pt.spin.tail, pt.spin.tail, pt.t))
    return out


def lemma_point(seed, n):
    """Generic point for the key-lemma checks; the free variable s is the
    sampled spin tail."""
    return sample_point(seed, n, 0, pole_list=_lemma_poles(n))


def _chain_poles(n, p):
    poles = _lemma_poles(n) + _scalar_poles(p)
    for l in range(p + 3):
        for i in range(n):
            poles.append(lambda pt, l=l, i=i: one_minus(pt.s(l), pt.u[i]))
    for l in (p, max(p, 1)):
        poles.append(lambda pt, l=l: 1 - part_factors(pt.u, pt.spin, l)[0][l])
    return poles


def _chain_point(seed, n, p):
    return sample_point(seed, n, p, pole_list=_chain_poles(n, p))


def _interp_nodes(point, count):
    """Deterministic interpolation nodes avoiding the denominators that the
    conjugated matrices carry in the free variable, at s the spin tail."""
    s = point.spin.tail
    nodes = []
    k = 1
    while len(nodes) < count:
        cand = Fraction(k * 7 + 3, 5)
        k += 1
        if cand in point.u or cand == s:
            continue
        bad = False
        for ui in point.u:
            if cand * ui == 1 or point.q * cand * ui == 1:
                bad = True
        if s * cand == 1 or point.q * s * cand == 1 or cand * cand == 1:
            bad = True
        if not bad:
            nodes.append(cand)
    return nodes


def _lemma_report(name, n, seed, stride, identities, moved):
    """The report of a key lemma: every (witness label, sides of a point) in
    ``identities`` at max(2n + 2, 10) seeded points, then, for n <= 2, the
    two sides of ``moved(point, x)`` compared as polynomials in the free x."""
    _check_inputs(1, n)
    npoints = max(2 * n + 2, 10)
    params = {"n": n, "seed": seed, "points": npoints}
    for k in range(npoints):
        point = lemma_point(seed + stride * k, n)
        for label, sides in identities:
            lhs, rhs = sides(point)
            if lhs != rhs:
                return CheckReport(name, params, "fail", {"point_index": k, **label})
    if n <= 2:
        point = lemma_point(seed, n)
        nodes = _interp_nodes(point, 2 * n + 4)
        if not polynomial_expansion_equal(lambda x: moved(point, x), 2 * n - 1, nodes):
            return CheckReport(name, params, "fail", {"expansion": "coefficients differ"})
        params["expansion_degree"] = 2 * n - 1
    return CheckReport(name, params, "pass")


def check_lemma1_report(n, seed):
    """The first key lemma at seeded points, and in its last variable."""

    def sides(pt):
        return key_lemma1_sides(pt.u, pt.q, pt.spin.tail)

    def moved(pt, x):
        return key_lemma1_sides((pt.u[: n - 1] + (x,))[:n], pt.q, pt.spin.tail)

    return _lemma_report("lemma1", n, seed, 101, (({}, sides),), moved)


def check_lemma2_report(n, seed):
    """The second key lemma and its u_1 = s companion at seeded points, and
    the lemma in its first variable."""

    def sides(pt):
        return key_lemma2_sides(pt, pt.spin.tail, pt.gamma)

    def at_s(pt):
        return key_lemma2_A_sides(pt, pt.spin.tail, pt.gamma)

    def moved(pt, x):
        return key_lemma2_sides(pt.with_u((x,) + pt.u[1:]), pt.spin.tail, pt.gamma)

    identities = (({"identity": "subset sum"}, sides), ({"identity": "u_1 = s"}, at_s))
    return _lemma_report("lemma2", n, seed, 211, identities, moved)


# ----------------------------------------------------------------------
# drivers


def _chain_report(n, p, seed):
    """The three reduction chains as one report: each chain's status, or the
    witness of each failing chain."""
    reports = {which: check_reduction_chain(n, p, which, seed) for which in ("main1", "cor", "main2")}
    params = {"n": n, "p": p, "seed": seed}
    failing = [{which: rep.witness} for which, rep in reports.items() if not rep.passed]
    if failing:
        return CheckReport("chain", params, "fail", failing)
    return CheckReport("chain", params, "pass", {which: rep.status for which, rep in reports.items()})


# the checks run at the sampled (t, spin), and at the sampled gamma unless one is given
_SAMPLED_CHECKS = {
    "main1": check_main1, "cor": check_cor_main2, "main2": check_main2,
    "rec1": check_rec1, "rec2": check_rec2, "rec2v": check_rec2v,
}


def run_check(name, n=2, p=1, D=4, seed=7, gamma=None, cache=None):
    """Run one named check with deterministically sampled parameters."""
    _check_inputs(1, n, p, D)
    if name in _SAMPLED_CHECKS:
        t, spin, sampled_gamma = series_parameters(seed, p)
        gammas = (sampled_gamma if gamma is None else gamma,) if name in GAMMA_CHECKS else ()
        rep = _SAMPLED_CHECKS[name](n, spin, t, D, *gammas, cache=cache)
    elif name in ("hl", "kawanaka"):
        t, _, _ = series_parameters(seed, 0)
        check = check_hl_corollary if name == "hl" else check_kawanaka
        rep = check(min(n, 2), t, D, cache=cache)
    elif name in ("lemma1", "lemma2"):
        rep = (check_lemma1_report if name == "lemma1" else check_lemma2_report)(n, seed)
    elif name == "chain":
        rep = _chain_report(n, p, seed)
    else:
        raise ValueError("unknown check %r" % (name,))
    rep.params["seed"] = seed
    return rep


def run_all(n=2, p=1, D=4, seed=7):
    """Run the whole battery at one parameter choice; reports in fixed order."""
    cache = {}
    return [run_check(name, n=n, p=p, D=D, seed=seed, gamma=gamma, cache=cache) for name, gamma in _BATTERY]
