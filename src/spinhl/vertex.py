"""Higher spin six vertex model: local weights and the path-ensemble oracle.

An ensemble consists of n lattice paths in columns 0..max_col and rows 1..n:
path i enters row i from the left and exits upward at column lambda_i in the
top row.  Vertical edges may carry any multiplicity g >= 0, horizontal edges
carry at most one path.  Summing products of local vertex weights over all
ensembles reproduces F_lambda, giving an oracle that never touches the
symmetrizer formula.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import PoleError
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
    den = 1 - s * u
    if den == 0:
        raise PoleError("1 - s*u")
    g = i1
    if j1 == 0 and j2 == 0:
        return (1 - s * u * q**g) / den
    if j1 == 0 and j2 == 1:
        return u * (1 - s * s * q ** (g - 1)) / den
    if j1 == 1 and j2 == 0:
        return (1 - q ** (g + 1)) / den
    return (u - s * q**g) / den


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


def _weighted_successors(state, u, spin, q, weights, room):
    """All admissible next occupancy rows above ``state`` with their weight,
    scanning columns left to right with the entering flux fixed to 1.

    ``weights`` memoizes the local weights of the row by (column,
    configuration).  ``room[c]`` is the most paths the new row may hold in
    the columns >= c; a row exceeding it anywhere is skipped."""
    maxc = len(state) - 1
    tail = [0] * (maxc + 2)  # paths of ``state`` in the columns >= c
    for c in range(maxc, -1, -1):
        tail[c] = tail[c + 1] + state[c]
    out = []

    def rec(c, h, acc, w):
        if c > maxc:
            if h == 0:
                out.append((tuple(acc), w))
            return
        g = state[c]
        for g2 in (g + h - 1, g + h):
            if g2 < 0:
                continue
            h2 = g + h - g2
            # the paths right of c in the new row: those of ``state`` plus h2
            if c < maxc and tail[c + 1] + h2 > room[c + 1]:
                continue
            cfg = (g, g2, h, h2)
            if cfg == (0, 0, 0, 0):
                w2 = w
            else:
                vw = weights.get((c, cfg))
                if vw is None:
                    vw = weights[c, cfg] = vertex_weight(cfg, u, spin.lookup(c), q)
                w2 = w * vw
                if w2 == 0:
                    continue
            acc.append(g2)
            rec(c + 1, h2, acc, w2)
            acc.pop()

    rec(0, 1, [], Fraction(1))
    return out


def f_lambda_vertex(lam, point, max_col=None):
    """F_lambda as the weighted sum over path ensembles, by a row-by-row
    transfer sum over occupancy states.  Columns beyond max_col would only
    hold empty weight-1 vertices, so truncating at the largest part is exact.

    Each row memoizes its local weights by (column, configuration).  Paths
    only move right going up, so the number of paths in the columns >= c
    never decreases from row to row; a state holding more of them than the
    top boundary for some c cannot reach lambda and is never formed.
    """
    lam = as_parts(lam)
    n = len(lam)
    if n == 0:
        return Fraction(1)
    if len(point.u) != n:
        raise ValueError("partition length mismatch")
    maxc = lam[0] if max_col is None else max_col
    if maxc < lam[0]:
        raise ValueError("max_col must be at least the largest part")
    top = [0] * (maxc + 1)
    for part in lam:
        top[part] += 1
    room = [sum(top[c:]) for c in range(maxc + 1)]
    q = point.q
    states = {(0,) * (maxc + 1): Fraction(1)}
    for row in range(1, n + 1):
        u = point.u[row - 1]
        weights = {}
        nxt = {}
        for state, acc in states.items():
            for new_state, w in _weighted_successors(state, u, point.spin, q, weights, room):
                nxt[new_state] = nxt.get(new_state, Fraction(0)) + acc * w
        states = nxt
    return states.get(tuple(top), Fraction(0))


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
