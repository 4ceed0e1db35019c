"""Higher spin six vertex model: local weights and the path-ensemble oracle.

An ensemble consists of n lattice paths in columns 0..max_col and rows 1..n:
path i enters row i from the left and exits upward at column lambda_i in the
top row.  Vertical edges may carry any multiplicity g >= 0, horizontal edges
carry at most one path.  Summing products of local vertex weights over all
ensembles reproduces F_lambda, giving an oracle that never touches the
symmetrizer formula.  ``row_transfer`` sums them row by row; it serves the
scalar ``f_lambda_vertex``, which forms only the states that can still reach
the one top state lambda, and, on series, the truncated partition sums of
``spinhl.identities``, which want every top state weighted: they run it up
to the last row and take the last row as a graph (``last_row_graph``).
``enumerate_ensembles`` and ``ensemble_weight`` materialize every ensemble
instead and are the brute-force reference.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .arith import PoleError, invert, linear_quotient, truncated_product
from .symfun import as_parts


def vertex_weight(cfg, u, s, q):
    """Local weight of a vertex configuration (i1, i2; j1, j2).

    i1/i2 count paths entering from below / exiting above, j1/j2 in {0, 1}
    flag paths entering from the left / exiting right.  Arrow preservation
    i1 + j1 = i2 + j2 is required.
    """
    i1, i2, j1, j2 = cfg
    if j1 not in (0, 1) or j2 not in (0, 1) or i1 < 0 or i2 < 0 or i1 + j1 != i2 + j2:
        raise ValueError("arrow preservation fails for configuration %r" % (cfg,))
    inv = invert(1 - s * u, "1 - s*u")
    g = i1
    if j1 == 0 and j2 == 0:
        return (1 - s * u * q**g) * inv
    if j1 == 0 and j2 == 1:
        return u * (1 - s * s * q ** (g - 1)) * inv
    if j1 == 1 and j2 == 0:
        return (1 - q ** (g + 1)) * inv
    return (u - s * q**g) * inv


def row_scale(u, s, q, n):
    """The integer L(s) = num(1 - s u) den(u) den(s)^2 den(q)^n, numerator
    taken without sign, by which a row of spectral value u scales its local
    weights of spin s, for vertices holding at most n paths (see
    ``scaled_weight``).  With s = a/b, u = c/d in lowest terms and
    N = bd - ac, 1 - s u = N/bd, so L(s) = |N|/gcd(N, bd) d b^2 den(q)^n.
    A pole N = 0 raises ``PoleError``."""
    a, b = s.numerator, s.denominator
    c, d = u.numerator, u.denominator
    N = b * d - a * c
    if not N:
        raise PoleError("1 - s*u")
    return abs(N) // gcd(N, b * d) * d * b * b * q.denominator**n


def scaled_weight(cfg, u, s, q, n):
    """``vertex_weight(cfg, u, s, q)`` times ``row_scale(u, s, q, n)``, written
    out as an integer for an admissible configuration (i1, i2, j1, j2) whose
    vertical edges hold at most n paths each; g = i1.

    With s = a/b, u = c/d, q = e/f in lowest terms and N = bd - ac,
    1/(1 - s u) = bd/N, so 1/(1 - s u) times L(s) is k b^2 d f^n with
    k = sign(N) bd/gcd(N, bd), and each weight's own denominator divides
    b^2 d f^n.  The pole N = 0 is left to ``row_scale``."""
    g, _, j1, j2 = cfg
    a, b = s.numerator, s.denominator
    c, d = u.numerator, u.denominator
    e, f = q.numerator, q.denominator
    bd = b * d
    N = bd - a * c
    k = bd // gcd(N, bd)
    if N < 0:
        k = -k
    if j1 == 0 and j2 == 0:
        return k * (bd * f**g - a * c * e**g) * b * f ** (n - g)
    if j1 == 0:
        return k * c * (b * b * f ** (g - 1) - a * a * e ** (g - 1)) * f ** (n - g + 1)
    if j2 == 0:
        return k * (f ** (g + 1) - e ** (g + 1)) * b * b * d * f ** (n - g - 1)
    return k * (c * b * f**g - a * d * e**g) * b * f ** (n - g)


@dataclass(frozen=True)
class PathEnsemble:
    """Occupancy snapshot of an ensemble: ``occ[r]`` gives the vertical-edge
    multiplicities between rows r and r+1 (``occ[0]`` is all zeros below the
    bottom row, ``occ[n]`` the top boundary)."""

    lam: tuple
    occ: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(self.lam))
        object.__setattr__(self, "occ", tuple(tuple(row) for row in self.occ))

    @property
    def n(self):
        return len(self.occ) - 1

    @property
    def max_col(self):
        return len(self.occ[0]) - 1

    def flux(self, row):
        """Horizontal flux bits h_0..h_{max_col+1} along the given row (1-based),
        reconstructed left to right from the occupancy delta."""
        below = self.occ[row - 1]
        above = self.occ[row]
        h = [1]
        for c in range(self.max_col + 1):
            h.append(below[c] + h[-1] - above[c])
        return tuple(h)

    def vertices(self, include_empty=False):
        """Yield (row, column, (i1, i2, j1, j2)) over the lattice."""
        for row in range(1, self.n + 1):
            h = self.flux(row)
            below = self.occ[row - 1]
            above = self.occ[row]
            for c in range(self.max_col + 1):
                cfg = (below[c], above[c], h[c], h[c + 1])
                if include_empty or cfg != (0, 0, 0, 0):
                    yield row, c, cfg

    def max_multiplicity(self):
        return max(max(row) for row in self.occ)


def series_weight(cfg, s, d, c, q):
    """``vertex_weight(cfg, u, c, q)`` at u = (s + x)/(1 + s x), read to
    degree d, as the pair ([c_0, ..., c_d], den) of its integer x^0..x^d
    coefficients over their denominator, in lowest terms with den > 0.

    Over 1 - c u = ((1 - c s) + (s - c) x)/(1 + s x) every local weight is
    (alpha + beta x)/((1 - c s) + (s - c) x) with g = i1 and
    (alpha, beta) = (1 - c s q^g, s - c q^g) for (0, 0),
    (s, 1)(1 - c^2 q^(g-1)) for (0, 1), (1, s)(1 - q^(g+1)) for (1, 0) and
    (s - c q^g, 1 - c s q^g) for (1, 1).  With s = a/b, c = m/k, q = e/f in
    lowest terms, N0 = bk - am and N1 = ak - bm, and alpha, beta = A/D, B/D,
    the weight is bk (A + B x)/(D (N0 + N1 x)), expanded over D N0^(d+1) by
    ``arith.linear_quotient``; past the spin prefix c = s, so N1 = 0 and the
    weight is linear.  The pole 1 - c s = 0 raises ``PoleError("1 - s*u")``,
    as ``vertex_weight`` does."""
    g, _, j1, j2 = cfg
    a, b = s.numerator, s.denominator
    m, k = c.numerator, c.denominator
    e, f = q.numerator, q.denominator
    bk = b * k
    N0 = bk - a * m
    if not N0:
        raise PoleError("1 - s*u")
    if j1 == j2:
        # (0, 0) and (1, 1) share their two terms, swapped
        one, two = bk * f**g - a * m * e**g, a * k * f**g - b * m * e**g
        A, B = (one, two) if j1 == 0 else (two, one)
        den = bk * f**g
    elif j1 == 0:
        K = k * k * f ** (g - 1) - m * m * e ** (g - 1)
        A, B, den = a * K, b * K, b * k * k * f ** (g - 1)
    else:
        K = f ** (g + 1) - e ** (g + 1)
        A, B, den = b * K, a * K, b * f ** (g + 1)
    coeffs = [bk * v for v in linear_quotient(A, B, N0, a * k - b * m, d)]
    den *= N0 ** (d + 1)
    if den < 0:
        den = -den
        coeffs = [-v for v in coeffs]
    common = gcd(den, *coeffs)
    return [v // common for v in coeffs], den // common


def _weighted_successors(state, u, spin, q, memos, scale, low, room, budget):
    """All admissible next occupancy rows above ``state`` with their weight,
    scanning columns left to right with the entering flux fixed to 1.

    ``memos[c]`` memoizes the local weights of column c by configuration,
    one memo per spin value.  With ``scale`` None the row is a series row of
    ``spinhl.identities``: ``u`` is the pair (s, d) of the spin tail s of
    u = (s + x)/(1 + s x) in the row's one variable and the degree d the row
    reads (a smaller one each row, and d = 0 once the rows outnumber the
    cap, see ``row_transfer``).  Each local weight is then computed once, in
    closed form, as the pair ([c_0, ..., c_d], den) of its integer
    coefficients over its denominator (``series_weight``), a walk weight is
    the product of such pairs (``arith.truncated_product`` of the lists),
    whose denominator is never
    reduced, and empty vertices (weight 1) are skipped.  Otherwise ``u`` is
    the row's rational spectral value and ``scale`` is the path bound n of
    the integer row scales L(s) = ``row_scale(u, s, q, n)``: the row's
    weights are the integers ``scaled_weight(cfg, u, s, q, n)``, an empty
    vertex included (it weighs L(s)), and every walk carries the extra
    factor prod_c L(s_c).  A walk whose weight is zero ends.  Without a
    scale, a walk with no path entering column c and none of ``state`` at or
    past it is empty from c on, and ends there.  Paths only move right going
    up, so two counts of the new row only grow as it is built and bound it
    column by column: its paths in the columns >= c, fixed once the flux
    leaving column c - 1 is, may not exceed ``room[c]`` (``room[width]`` is
    0, so no path leaves on the right) nor fall below ``low[c]``, and its
    excess sum_c m_c max(c - p, 0) past the spin prefix length p may not
    exceed ``budget``."""
    width = len(state)
    p = spin.p
    tail = [0] * (width + 1)  # paths of ``state`` in the columns >= c
    for c in range(width - 1, -1, -1):
        tail[c] = tail[c + 1] + state[c]
    out = []
    stack = [(0, 1, sum(m * (c - p) for c, m in enumerate(state) if c > p), None, ())]
    while stack:
        c, h, excess, w, row = stack.pop()
        if c == width:
            out.append((row, w))
            continue
        if not h and not tail[c] and scale is None:
            out.append((row + (0,) * (width - c), w))
            continue
        g = state[c]
        for g2 in (g + h - 1, g + h):
            if g2 < 0:
                continue
            h2 = g + h - g2
            # the columns left of c are final; h2 paths move on to c + 1
            excess2 = excess + h2 if c >= p else excess
            if excess2 > budget or not low[c + 1] <= tail[c + 1] + h2 <= room[c + 1]:
                continue
            cfg = (g, g2, h, h2)
            if cfg == (0, 0, 0, 0) and scale is None:
                w2 = w
            else:
                vw = memos[c].get(cfg)
                if vw is None:
                    s = spin.lookup(c)
                    if scale is None:
                        vw = series_weight(cfg, *u, s, q)
                    else:
                        vw = scaled_weight(cfg, u, s, q, scale)
                    memos[c][cfg] = vw
                if scale is None:
                    w2 = vw if w is None else (truncated_product(w[0], vw[0]), w[1] * vw[1])
                    if not any(w2[0]):
                        continue
                else:
                    w2 = vw if w is None else w * vw
                    if not w2:
                        continue
            stack.append((c + 1, h2, excess2, w2, row + (g2,)))
    return out


class LastRowGraph(namedtuple("LastRowGraph", "states nodes roots tail spin q nrows cap tail_values")):
    """The last row of a series transfer, pulled back from the final states
    onto the states before it (``last_row_graph``), with the spin, q, number
    of rows and cap of the transfer.

    ``states`` maps each state before the last row to its ``SymmetricSum``,
    and ``roots`` each of them within the budget to its node.  ``nodes`` are
    listed children first: nodes 0 and 1 are the two end classes, final
    excess below the budget and exactly at it, and every other node is the
    tuple of its edges (child, walk weight, c, g2), the walk weight the
    ``series_weight`` pair of the vertex at column c that leaves g2 paths
    above it.  The first ``tail`` nodes lie at the columns c >= max(p, 1),
    where every family reads the spin tail's factors alike, and the dict
    ``tail_values`` keeps their values per tail row of factors
    (``series.weigh_states``)."""

    __slots__ = ()


def last_row_graph(states, row, spin, q, nrows, budget, cap):
    """The last row of a series transfer as a graph that no family weight
    enters: the walks of the row from every state before it, shared by
    suffix.

    A walk at column c is fixed, for what it can still reach, by the paths h
    entering c from the left, its excess so far and the suffix S[c:] of the
    state below, so each distinct triple is one node, and its edges are the
    (at most two) ways through column c that keep the excess within
    ``budget`` and leave no path on the right (``_weighted_successors``).
    An empty vertex weighs 1 and has one way through, so a node with h = 0
    and S[c] = 0 is its child; past the last column, or with h = 0 and
    nothing left of S, a walk ends in the class of its excess.  Edges of
    weight zero are dropped, and so are nodes left without an edge, so a
    state whose excess passes ``budget``, which has no edge within it, gets
    no root.  ``row`` is the last row's pair ((s, d), weights) as
    ``row_transfer`` takes it, each weight computed once into the row's memo
    (``series_weight``), or None for a sum over no rows (``nrows`` 0),
    whose one state is its own final state: its root is an end class.  The
    states' sums are truncated at ``cap``."""
    p = spin.p
    levels, roots = {}, {}

    def node(c, h, excess, suffix):
        while not h and suffix and not suffix[0]:
            c, suffix = c + 1, suffix[1:]
        if not suffix:
            return 0 if excess < budget else 1
        key = (c, h, excess, suffix)
        levels.setdefault(c, {}).setdefault(key, ())
        return key

    for state in states:
        excess = sum(m * (c - p) for c, m in enumerate(state) if c > p)
        roots[state] = node(0, 1, excess, state) if row is not None else int(excess == budget)
    if levels:
        (s, d), weights = row
        width = len(next(iter(states)))
        spins = [spin.lookup(c) for c in range(width)]
        memos = [weights.setdefault(sc, {}) for sc in spins]
        for c in range(width):  # a child lies in a later column
            level = levels.get(c, {})
            for key in level:
                _, h, excess, suffix = key
                g, rest = suffix[0], suffix[1:]
                edges = []
                for g2 in (g + h - 1, g + h):
                    h2 = g + h - g2
                    excess2 = excess + h2 if c >= p else excess
                    if g2 < 0 or excess2 > budget or (h2 and not rest):
                        continue
                    cfg = (g, g2, h, h2)
                    vw = memos[c].get(cfg)
                    if vw is None:
                        vw = memos[c][cfg] = series_weight(cfg, s, d, spins[c], q)
                    if any(vw[0]):
                        edges.append((node(c + 1, h2, excess2, rest), vw, g2))
                level[key] = edges
    nodes, index, tail = [(), ()], {0: 0, 1: 1}, 2
    for c in sorted(levels, reverse=True):
        for key, edges in levels[c].items():
            live = tuple((index[child], vw, c, g2) for child, vw, g2 in edges if child in index)
            if live:
                index[key] = len(nodes)
                nodes.append(live)
        if c >= max(p, 1):
            tail = len(nodes)
    roots = {state: index[key] for state, key in roots.items() if key in index}
    return LastRowGraph(states, nodes, roots, tail, spin, q, nrows, cap, {})


def row_transfer(rows, spin, q, one, room, budget, single_top=False):
    """Row-by-row transfer sum of the higher spin six vertex model.

    ``rows`` lists one (u, weights, scale) triple per row from the bottom up,
    with ``weights`` the row's memo of local weights, a dict from spin value
    to a dict from configuration to weight, and ``scale`` None or the path
    bound of its integer scales (see ``_weighted_successors``); ``one`` is
    the unit of the ring the weights live in.  States are the occupancy
    rows between rows, starting from the empty row of width len(room) - 1,
    and every new row obeys the bounds ``room`` and ``budget`` of
    ``_weighted_successors``.  Returns the nonzero summed weights of the top
    states by state.

    With ``single_top`` the caller wants only the top state holding exactly
    room[c] paths in the columns >= c.  A horizontal edge carries at most one
    path, so those paths grow by at most one per row, and a state after row
    r holding fewer than room[c] - (rows left) of them cannot reach the top;
    such states are never formed, and the last row yields the top alone.
    Otherwise every top state is wanted and the lower bound is 0.

    On series, ``one`` is ``series.SymmetricSum.one(cap)``: after r rows a
    state's sum is its partial F_mu in the r row variables, symmetric in
    them, and is kept in the monomial-symmetric basis, one integer per
    partition nu with |nu| <= cap over one denominator.  The new row's
    variable takes the smallest part, so a target state's coefficient at
    nu + (e,) adds acc[nu] times the x^e coefficient of a walk weight, one
    product per stored partition, and row r reads its walk weights only to
    degree cap // r, each one an integer coefficient list over a denominator
    that is never reduced.  Each target state sums these products in one
    ``SymmetricSum``, made by the unit's ``product_sum``, on integers over
    the lcm of their denominators, and is reduced once, when it first serves
    as a predecessor.  The partition sums of ``spinhl.identities`` run all
    rows but the last here: their last row is pulled back into a graph
    (``last_row_graph``) that each family weighs once, its tail values
    cached per tail row (``series.weigh_states``), and only the weighted
    total is expanded into a series (``series.expand_symmetric``).  Pruning
    drops whole states only, and a
    state's excess never falls from row to row, so every kept state keeps
    all its predecessors and stays symmetric.  Scalars have no
    ``product_sum`` and add the products as they come."""
    spins = [spin.lookup(c) for c in range(len(room) - 1)]
    product_sum = getattr(one, "product_sum", None)
    states = {(0,) * len(spins): one}
    low = [0] * len(room)
    for r, (u, weights, scale) in enumerate(rows, 1):
        memos = [weights.setdefault(s, {}) for s in spins]
        if single_top:
            low = [paths - (len(rows) - r) for paths in room]
        nxt = {}
        for state, acc in states.items():
            successors = _weighted_successors(state, u, spin, q, memos, scale, low, room, budget)
            if product_sum is not None:
                for row, w in successors:
                    total = nxt.get(row)
                    if total is None:
                        total = nxt[row] = product_sum()
                    total.add(acc, w)
                continue
            for row, w in successors:
                term = acc * w
                got = nxt.get(row)
                nxt[row] = term if got is None else got + term
        states = {state: acc for state, acc in nxt.items() if acc}
    return states


def f_lambda_vertex(lam, point):
    """F_lambda as the weighted sum over path ensembles, by a row-by-row
    transfer sum over occupancy states.  Columns beyond the largest part only
    hold empty weight-1 vertices, so the transfer stops at the largest part.

    Each row memoizes its local weights.  The number of paths in the columns
    >= c never decreases from row to row and grows by at most one per row,
    so a state after row r holding more of them than the top boundary, or
    fewer than the top boundary less n - r, for some c cannot reach lambda
    and is never formed (``row_transfer``'s ``single_top``); the upper bound
    also keeps every state's excess within |lambda|.

    The transfer runs on integers.  A vertex of row r holds at most n paths,
    so every local weight of spin s is one of 1 - s u q^g, u (1 - s^2 q^(g-1)),
    1 - q^(g+1), u - s q^g with g + 1 <= n (g <= n for the first), over
    1 - s u; the row scale L(s) = num(1 - s u) den(u) den(s)^2 den(q)^n clears
    all of them, and ``scaled_weight`` writes each product out in integers.
    Each walk of the row then weighs prod_c L(s_c) times its rational weight,
    and the sum is divided by the product of those row denominators once.  A
    pole 1 - s_c u_r = 0 in a column c up to the largest part raises
    ``PoleError`` from ``row_scale``.
    """
    lam = as_parts(lam)
    n = len(lam)
    if n == 0:
        return Fraction(1)
    if len(point.u) != n:
        raise ValueError("partition length mismatch")
    top = [0] * (lam[0] + 1)
    for part in lam:
        top[part] += 1
    room = [sum(top[c:]) for c in range(len(top) + 1)]
    spin, q = point.spin, point.q
    # the columns past the spin prefix all take the tail spin's scale
    powers = [(spin.lookup(c), 1) for c in range(min(spin.p, len(top)))]
    if len(top) > spin.p:
        powers.append((spin.tail, len(top) - spin.p))
    den = prod(row_scale(u, s, q, n) ** k for u in point.u for s, k in powers)
    rows = [(u, {}, n) for u in point.u]
    states = row_transfer(rows, point.spin, q, 1, room, sum(lam), single_top=True)
    return Fraction(states.get(tuple(top), 0), den)


def _successor_states(state, cap):
    maxc = len(state) - 1
    out = []

    def rec(c, h, acc):
        if c > maxc:
            if h == 0:
                out.append(tuple(acc))
            return
        g = state[c]
        for g2 in (g + h - 1, g + h):
            if g2 < 0 or (cap is not None and g2 > cap):
                continue
            acc.append(g2)
            rec(c + 1, g + h - g2, acc)
            acc.pop()

    rec(0, 1, [])
    return out


def enumerate_ensembles(lam, cap=None, max_col=None):
    """Materialize every admissible ensemble for lam; ``cap`` bounds the
    vertical multiplicities (cap=1 gives the degenerate non-intersecting model)."""
    lam = as_parts(lam)
    n = len(lam)
    maxc = (lam[0] if lam else 0) if max_col is None else max_col
    if lam and maxc < lam[0]:
        raise ValueError("max_col must be at least the largest part")
    top = [0] * (maxc + 1)
    for part in lam:
        top[part] += 1
    top = tuple(top)
    if cap is not None and any(v > cap for v in top):
        return []
    out = []

    def rec(row, rows):
        if row == n:
            if rows[-1] == top:
                out.append(PathEnsemble(lam, tuple(rows)))
            return
        for state in _successor_states(rows[-1], cap):
            rows.append(state)
            rec(row + 1, rows)
            rows.pop()

    rec(0, [(0,) * (maxc + 1)])
    return out


def ensemble_weight(ens, point):
    """Product of local weights of an ensemble at a point."""
    if ens.n != len(point.u):
        raise ValueError("row count mismatch")
    q = point.q
    w = Fraction(1)
    for row, col, cfg in ens.vertices():
        w *= vertex_weight(cfg, point.u[row - 1], point.spin.lookup(col), q)
    return w
