"""Exact LP feasibility over the rationals (small scale, dense two-phase simplex).

The only entry point is :func:`lp_feasible`, which decides systems of linear
equations, weak and strict inequalities and returns an exact rational witness.
Strictness is handled by maximizing a slack variable t with 0 <= t <= 1 that
is subtracted from every strict row; the system is strictly feasible iff the
optimum is positive.  Bland's rule guarantees termination, and the capped
objective rules out unboundedness.

This solver is deliberately independent of the double-description machinery
in ``polyhedra`` so the two can serve as cross-checking oracles; it is a test
oracle only and is not part of the package.
"""

from fractions import Fraction


def _pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [x / piv for x in T[r]]
    prow = T[r]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [a - f * b for a, b in zip(T[i], prow)]
    basis[r] = c


def _optimize(T, basis, cost, allowed):
    """Minimize cost.x on the tableau, entering columns restricted to `allowed`.

    Bland's anti-cycling rule: smallest eligible entering column, smallest
    basis index among the tied leaving rows.
    """
    while True:
        in_basis = set(basis)
        base_cost = [cost[b] for b in basis]
        entering = -1
        for j in allowed:
            if j in in_basis:
                continue
            rc = cost[j]
            for i, bc in enumerate(base_cost):
                if bc and T[i][j]:
                    rc -= bc * T[i][j]
            if rc < 0:
                entering = j
                break
        if entering < 0:
            return sum(bc * T[i][-1] for i, bc in enumerate(base_cost) if bc)
        leave = -1
        best = None
        for i in range(len(T)):
            a = T[i][entering]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            raise RuntimeError("unbounded objective in simplex (capped LP cannot reach here)")
        _pivot(T, basis, leave, entering)


def _solve_standard(rows, rhs, cost, ncols):
    """min cost.x s.t. rows.x = rhs, x >= 0.  Returns solution list or None."""
    m = len(rows)
    T = []
    for i in range(m):
        r = [Fraction(x) for x in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            r = [-x for x in r]
            b = -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        T.append(r + art + [b])
    basis = list(range(ncols, ncols + m))
    cost1 = [Fraction(0)] * ncols + [Fraction(1)] * m
    if _optimize(T, basis, cost1, range(ncols + m)) > 0:
        return None
    for i in range(m):
        if basis[i] >= ncols:
            c = next((j for j in range(ncols) if T[i][j] != 0), None)
            if c is not None:
                _pivot(T, basis, i, c)
            # else: redundant 0 = 0 row; the artificial stays basic at value 0
    cost2 = [Fraction(c) for c in cost] + [Fraction(0)] * m
    _optimize(T, basis, cost2, range(ncols))
    x = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            x[b] = T[i][-1]
    return x


def lp_feasible(eqs, strict, weak, nvars):
    """Exact feasibility of a.x = b / a.x > b / a.x >= b row systems.

    Each row is a pair (coefficients, rhs).  Returns (True, witness) with a
    rational witness vector, or (False, None).

    >>> lp_feasible([], [([1], 1)], [([-1], 0)], 1)[0]  # x > 1 and x <= 0
    False
    """
    eqs = [([Fraction(c) for c in a], Fraction(b)) for a, b in eqs]
    strict = [([Fraction(c) for c in a], Fraction(b)) for a, b in strict]
    weak = [([Fraction(c) for c in a], Fraction(b)) for a, b in weak]

    # columns: u (nvars) | w (nvars) | t | one slack per inequality row | cap slack
    nslack = len(weak) + len(strict) + 1
    ncols = 2 * nvars + 1 + nslack
    t_col = 2 * nvars
    rows, rhs = [], []

    def structural(a):
        return list(a) + [-x for x in a]

    slack = 2 * nvars + 1
    for a, b in eqs:
        rows.append(structural(a) + [0] * (1 + nslack))
        rhs.append(b)
    for a, b in weak:
        r = structural(a) + [0] * (1 + nslack)
        r[slack] = -1
        slack += 1
        rows.append(r)
        rhs.append(b)
    for a, b in strict:
        r = structural(a) + [0] * (1 + nslack)
        r[t_col] = -1
        r[slack] = -1
        slack += 1
        rows.append(r)
        rhs.append(b)
    cap = [0] * ncols
    cap[t_col] = 1
    cap[slack] = 1
    rows.append(cap)
    rhs.append(1)

    cost = [Fraction(0)] * ncols
    cost[t_col] = Fraction(-1)
    sol = _solve_standard(rows, rhs, cost, ncols)
    if sol is None:
        return False, None
    t = sol[t_col]
    if strict and t <= 0:
        return False, None
    x = [sol[j] - sol[nvars + j] for j in range(nvars)]
    for a, b in eqs:
        assert sum(c * v for c, v in zip(a, x)) == b
    for a, b in weak:
        assert sum(c * v for c, v in zip(a, x)) >= b
    for a, b in strict:
        assert sum(c * v for c, v in zip(a, x)) > b
    return True, x
