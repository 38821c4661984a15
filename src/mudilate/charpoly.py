"""Spectral radii of A D(z), D(z) = diag(z_1 I_{r_1}, ..., z_s I_{r_s}), in
closed form for n <= 4, from the characteristic polynomial.

det(lambda I - A D(z)) = lambda^n + q_1(z) lambda^(n-1) + ... + q_n(z), where
q_k(z) = (-1)^k sum over k-subsets S of det A[S,S] prod_{i in S} z_{b(i)}
(b(i) the block of row i): the coefficient of lambda^(n-k) is (-1)^k times
the sum of the k x k principal minors (Horn & Johnson, Matrix Analysis,
2nd ed., Thm 1.2.16), and a principal minor of A D(z) is det A[S,S] times
the product of its z's.  ``minor_table`` forms those minors once per
matrix; ``charpoly_radius`` then costs one monomial product per batch of z
rows and the roots by the stable quadratic formula, Cardano or Ferrari.  A
row is accepted only when its roots pass a backward- and forward-error
rule; the caller hands the rest to an eigensolver, as it does every row
for n > CLOSED_DEGREE (Abel-Ruffini: no closed form exists above degree
4).  numpy alone.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

CLOSED_DEGREE = 4
_EPS = np.finfo(float).eps
# first-order root error a closed form may leave, A scaled to entries of modulus <= 1
FORWARD_TOL = 2.0 ** -40
_CUBE_ROOTS = np.array([[1.0], [complex(-0.5, math.sqrt(3.0) / 2.0)],
                        [complex(-0.5, -math.sqrt(3.0) / 2.0)]])  # of unity


@functools.cache
def _minor_pattern(r: tuple) -> tuple:
    """Where the principal minors go in a ``minor_table`` for block sizes r:
    (gathers, steps, scatter).  gathers[k - 1] holds, for each k-subset S
    of {0..n-1} in turn, the flat indices of A[S,S] (of A's diagonal for
    k = 1).  The distinct monomials prod_{i in S} z_{b(i)} are listed order
    by order, each order's sorted (order 1 is z_1, ..., z_s: every block has
    a row); steps[k - 2] = (parent, last) builds those of order k >= 2 as
    the order-(k - 1) monomial ``parent`` times z_last.  scatter maps the
    minors, in the order of the subsets, to the flattened (monomials, n)
    coefficient table: the minor of S adds (-1)^|S| times itself to its
    monomial's row in column |S| - 1."""
    n = sum(r)
    block = [b for b, size in enumerate(r) for _ in range(size)]
    subsets = [list(itertools.combinations(range(n), k)) for k in range(1, n + 1)]
    rows, steps, prev, count = [], [], {}, 0
    for k, sub in enumerate(subsets, start=1):
        keys = [tuple(block[i] for i in subset) for subset in sub]
        mons = sorted(set(keys))
        index = {m: i for i, m in enumerate(mons)}
        rows += [n * (count + index[key]) + k - 1 for key in keys]
        if prev:
            steps.append((np.array([prev[m[:-1]] for m in mons]), np.array([m[-1] for m in mons])))
        count += len(mons)
        prev = index
    rows = np.array(rows)
    scatter = np.zeros((count * n, len(rows)), dtype=complex)
    scatter[rows, np.arange(len(rows))] = (-1.0) ** (rows % n + 1)
    gathers = [(n + 1) * np.arange(n)] + [n * np.array(sub)[:, :, None] + np.array(sub)[:, None, :]
                                          for sub in subsets[1:]]
    return gathers, steps, scatter


def _times_pow2(x, e: int):
    """x * 2^e, exact unless the product leaves the normal range: one factor
    when 2^e is a float, else two (frexp gives exponents -1073..1024)."""
    if -1074 <= e <= 1023:
        return x * 2.0 ** e
    return x * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)


def minor_table(a: np.ndarray, r: tuple) -> tuple:
    """The characteristic polynomial of A D(z) for block sizes r, as a
    table of monomials in z: (steps, coef, e).  2^e is the power of two at
    or above the largest |a_ij| (e = 0 for A = 0), and coef an (m, n) array
    whose column k - 1 holds the signed coefficients of the order-k
    monomials of A / 2^e and zeros elsewhere; ``_monomials(steps, zs) @
    coef`` are the coefficients q for A / 2^e, whose spectral radius is 2^e
    times smaller.  The exact scaling keeps products of up to n entries
    within the float range for every A with finite entries.  The 2 x 2
    minors are products of entries, as in ``domains._minor``; each higher
    order takes one batched determinant.

    Subsets with the same monomial are summed, so for E(3;3;1,1,1) the table
    is -+gamma7_coords(A) (the defining polynomial of Gamma_E(3;3;1,1,1) is
    det(I - A D(z))) and for E(3;2;1,2) -+gamma5_coords(A)."""
    gathers, steps, scatter = _minor_pattern(tuple(r))
    e = math.frexp(np.abs(a).max())[1]
    flat = _times_pow2(a, -e).ravel()
    minors = [flat[gathers[0]]]
    for g in gathers[1:]:
        sub = flat[g]
        minors.append(sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
                      if g.shape[1] == 2 else np.linalg.det(sub))
    return steps, (scatter @ np.concatenate(minors)).reshape(-1, len(gathers)), e


def _monomials(steps, zs: np.ndarray) -> np.ndarray:
    """The monomials of a ``minor_table`` at each z row (one row each),
    order by order: an order-k monomial is its order-(k - 1) parent times
    one z, so no array holds more than one entry per monomial."""
    out = [zs]
    for parent, last in steps:
        out.append(out[-1][:, parent] * zs[:, last])
    return np.concatenate(out, axis=1)


def _linear_roots(b):
    return -b[None]


def _quadratic_roots(b, c):
    """Both roots of x^2 + b x + c (stacked on a new first axis) by the
    stable quadratic formula: the larger root -(b + d)/2 takes the sign of
    d = sqrt(b^2 - 4c) with Re(conj(b) d) >= 0, so that b and d do not
    cancel, and the other root is c over it (Vieta; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 1.8).  A zero larger
    root means b = c = 0, and both roots are 0."""
    d = np.sqrt(b * b - 4.0 * c)
    np.negative(d, out=d, where=(b.conjugate() * d).real < 0.0)
    roots = np.zeros((2, *b.shape), dtype=complex)
    np.multiply(-0.5, b + d, out=roots[0])
    np.divide(c, roots[0], out=roots[1], where=roots[0] != 0.0)
    return roots


def _cubic_roots(a, b, c):
    """The three roots of x^3 + a x^2 + b x + c by Cardano (Abramowitz &
    Stegun, Handbook of Mathematical Functions, 3.8.2): x = t - a/3 turns it
    into t^3 + p t + q, whose roots are u w^k - v conj(w)^k with w a
    primitive cube root of unity, u^3 = -q/2 - sqrt(q^2/4 + p^3/27) (the
    sign chosen so that the two terms do not cancel) and v = p / (3u).
    u = 0 means q = p = 0: a triple root t = 0."""
    shift = a / 3.0
    p = b - a * shift
    q = c - shift * (b - 2.0 * shift * shift)
    d = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    np.negative(d, out=d, where=(q.conjugate() * d).real < 0.0)
    u = (-0.5 * q - d) ** (1.0 / 3.0)
    v = np.divide(p, 3.0 * u, out=np.zeros_like(u), where=u != 0.0)
    return u * _CUBE_ROOTS - v * _CUBE_ROOTS.conjugate() - shift


def _quartic_roots(a, b, c, d):
    """The four roots of x^4 + a x^3 + b x^2 + c x + d by Ferrari (Abramowitz
    & Stegun, 3.8.3, by way of the resolvent cubic): x = y - a/4 turns it
    into y^4 + p y^2 + q y + r, which is
    (y^2 - t y + p/2 + m + h)(y^2 + t y + p/2 + m - h) with t = sqrt(2m) and
    h = q / (2t) whenever m is a root of the resolvent cubic
    m^3 + p m^2 + (p^2/4 - r) m - q^2/8.  The root of largest modulus is
    taken, so t = 0 only when every resolvent root is 0, that is
    p = q = r = 0, and then h = 0 and all four y are 0.  Both quadratics
    go through one stacked call."""
    shift = 0.25 * a
    s2 = shift * shift
    p = b - 6.0 * s2
    q = c - 2.0 * b * shift + 8.0 * s2 * shift
    r = d - c * shift + b * s2 - 3.0 * s2 * s2
    ms = _cubic_roots(p, 0.25 * p * p - r, -0.125 * q * q)
    m = np.choose(np.abs(ms).argmax(axis=0), ms)
    t = np.sqrt(2.0 * m)
    h = np.divide(q, 2.0 * t, out=np.zeros_like(t), where=t != 0.0)
    base = 0.5 * p + m
    y = _quadratic_roots(np.array((-t, t)), np.array((base + h, base - h)))
    return y.reshape(4, -1) - shift


def _vieta_smallest(lam: np.ndarray, last: np.ndarray) -> np.ndarray:
    """lam (k roots per column) with the root of least modulus in each column
    replaced by (-1)^k q_k over the product of the other k - 1 (Vieta), as
    the quadratic formula takes its smaller root: it is scaled by
    (-1)^k q_k over the product of all k.  The closed forms find a small
    root as the difference of large terms (the shift -a/k, u against v),
    whose absolute error is eps times the large roots; the quotient has
    the relative error of the large roots it is formed from."""
    smallest = np.arange(len(lam))[:, None] == np.abs(lam).argmin(axis=0)
    prod = lam.prod(axis=0)
    fix = np.divide((-1) ** len(lam) * last, prod, out=np.ones_like(prod), where=prod != 0.0)
    return np.multiply(lam, fix, out=lam, where=smallest)


_CLOSED_FORMS = (None, _linear_roots, _quadratic_roots, _cubic_roots, _quartic_roots)


def _closed_roots(q: np.ndarray) -> np.ndarray:
    """The k roots of x^k + q[0] x^(k-1) + ... + q[k-1] for each column of
    q (k = len(q) <= 4), one per row of the result."""
    roots = _CLOSED_FORMS[len(q)](*q)
    return _vieta_smallest(roots, q[-1]) if len(q) > 2 else roots


def charpoly_radius(table: tuple, zs: np.ndarray) -> tuple:
    """(rho, ok) for a batch of z rows: rho(A D(z)) as the largest root
    modulus of the characteristic polynomial p(x) = x^n + q_1 x^(n-1) + ...
    + q_n read off ``table`` (a ``minor_table`` of A), and whether the row
    is accepted.  A row is accepted when every root lam has componentwise
    backward error at most 8 n eps, |p(lam)| <= 8 n eps B(lam) with
    B(lam) = sum_k |q_k| |lam|^(n-k) (q_0 = 1), p and B by Horner, whose own
    rounding error is at most gamma_2n B(lam) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 5.1), and when that
    backward error moves the root by at most FORWARD_TOL to first order,
    8 n eps B(lam) <= FORWARD_TOL |p'(lam)| (p' by Horner beside p; a root
    of multiplicity m moves by eps^(1/m), and is left to the eigensolver).
    A row with a non-finite root is not accepted.

    A row whose last j coefficients are exactly 0 has j exact zero roots
    (B(0) = 0 passes both tests), and its other roots are those of
    x^(n-j) + ... + q_(n-j), solved by the closed form of that degree: a
    computed root of the undeflated form near 0 would be a tiny nonzero
    number, with no relative perturbation of the zero coefficient to
    excuse it."""
    steps, coef, e = table
    q = _monomials(steps, zs) @ coef
    n = q.shape[1]
    if n <= 2 or (q[:, -1] != 0.0).all():
        lam = _closed_roots(q.T)
    else:
        lam = np.zeros((n, len(q)), dtype=complex)
        nz = q != 0.0
        deg = np.where(nz.any(axis=1), n - nz[:, ::-1].argmax(axis=1), 0)
        for k in range(1, n + 1):
            rows = deg == k
            if rows.any():
                lam[:k, rows] = _closed_roots(q[rows, :k].T)
    mag, size = np.abs(lam), np.abs(q.T)
    val, slope, bound = lam + q[:, 0], None, mag + size[0]
    for qk, sk in zip(q.T[1:], size[1:]):
        slope = lam + val if slope is None else slope * lam + val
        val = val * lam + qk
        bound = bound * mag + sk
    if slope is None:
        slope = np.ones_like(lam)  # p' = 1 for n = 1
    err = 8.0 * n * _EPS * bound
    ok = ((np.abs(val) <= err) & (err <= FORWARD_TOL * np.abs(slope))).all(axis=0)
    return _times_pow2(mag.max(axis=0), e), ok
