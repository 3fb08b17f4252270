"""Reference computations made apart from helirep.

Nothing here imports helirep.  Each function either evaluates a quantity
by a different formula (the symmetric power of the 2x2 group element,
sympy's Clebsch-Gordan coefficients, the coefficient-table stretch rule,
standard angular-momentum matrices) or tests a property the mathematics
fixes (span dimensions, vector-operator relations, cylinder envelopes).
Spins are passed as twice their value, as plain ints.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb, factorial

import numpy as np


# ---------------------------------------------------------------------------
# Strict output parsing


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """Parse JSON with NaN, Infinity and -Infinity rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def half_str(twice):
    """Spin label as the CLI prints it: "3/2", "-1", "0"."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def parse_half(text):
    """Twice the value of a label such as "3/2" or "-2"."""
    value = Fraction(text) * 2
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not a multiple of 1/2")
    return int(value)


# ---------------------------------------------------------------------------
# Z^l_mn: the spin-l symmetric power of the 2x2 group element
#
# U = [[cos w, i sin w], [i sin w, cos w]] with w = (theta - i tau)/2 acts on
# polynomials in (x, y); the basis vector for projection m is
# x^(l+m) y^(l-m) / sqrt((l+m)! (l-m)!), m descending.


def _z_terms(tl, tm, tn):
    up_m, down_m = (tl + tm) // 2, (tl - tm) // 2
    up_n, down_n = (tl + tn) // 2, (tl - tn) // 2
    norm2 = Fraction(factorial(up_m) * factorial(down_m),
                     factorial(up_n) * factorial(down_n))
    terms = []
    for i in range(max(0, up_m - down_n), min(up_n, up_m) + 1):
        j = up_m - i
        # (cos w)^(i + down_n - j) (i sin w)^(up_n - i + j)
        terms.append((comb(up_n, i) * comb(down_n, j), i + down_n - j, up_n - i + j))
    return norm2, terms


def z_exact(tl, tm, tn, theta, tau, dps=40):
    """Z^l_mn(theta, tau) in mpmath at ``dps`` digits, returned as complex."""
    import mpmath

    with mpmath.workdps(dps):
        w = (mpmath.mpf(theta) - 1j * mpmath.mpf(tau)) / 2
        c, s = mpmath.cos(w), 1j * mpmath.sin(w)
        norm2, terms = _z_terms(tl, tm, tn)
        total = mpmath.mpc(0)
        for coeff, pc, ps in terms:
            total += coeff * c**pc * s**ps
        norm = mpmath.sqrt(mpmath.mpf(norm2.numerator) / norm2.denominator)
        return complex(total * norm)


def z_table(tl, tm, tn, thetas, taus):
    """Z^l_mn on a theta x tau table in float64 (shape len(thetas) x len(taus))."""
    w = (np.asarray(thetas, dtype=float)[:, None]
         - 1j * np.asarray(taus, dtype=float)[None, :]) / 2
    c, s = np.cos(w), 1j * np.sin(w)
    norm2, terms = _z_terms(tl, tm, tn)
    out = np.zeros(w.shape, dtype=complex)
    for coeff, pc, ps in terms:
        out += float(coeff) * c**pc * s**ps
    return out * math.sqrt(norm2)


def z_scale(tl, tau):
    """Largest singular value of the spin-l matrix, e^(l |tau|): the error scale."""
    return np.exp(0.5 * tl * np.abs(np.asarray(tau, dtype=float)))


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients


def cg_reference(t1, t2, t, tm1, tm2, tm):
    """Condon-Shortley <l1 m1; l2 m2 | l m> from sympy's exact closed form."""
    from sympy import Rational
    from sympy.physics.wigner import clebsch_gordan

    args = (Rational(v, 2) for v in (t1, t2, t, tm1, tm2, tm))
    return float(clebsch_gordan(*args))


def cg_hyp_factor(t1, t2, t):
    """sqrt(l1 + l2 + l + 1): the normalization of the series-form route."""
    return math.sqrt((t1 + t2 + t) / 2 + 1)


# ---------------------------------------------------------------------------
# Chains: basis, angular momentum, coefficient-table assembly


def chain_basis(reps):
    """(k, 2l, 2m) labels: rep-major, towers ascending, m descending."""
    out = []
    for k, (a, b) in enumerate(reps):
        for tl in range(abs(a - b), a + b + 1, 2):
            out.extend((k, tl, tm) for tm in range(tl, -tl - 1, -2))
    return out


def interlocking(r, s):
    return abs(r[0] - s[0]) == 1 and abs(r[1] - s[1]) == 1


def admissible_keys(reps):
    """(k', k, 2l', 2l) for every linked (or equal) rep pair and towers at most one apart."""
    keys = []
    for kp, rp in enumerate(reps):
        for k, r in enumerate(reps):
            if kp != k and not interlocking(rp, r):
                continue
            for tlp in range(abs(rp[0] - rp[1]), rp[0] + rp[1] + 1, 2):
                for tl in range(abs(r[0] - r[1]), r[0] + r[1] + 1, 2):
                    if abs(tlp - tl) <= 2:
                        keys.append((kp, k, tlp, tl))
    return keys


def components(reps):
    """Connected components of the interlocking graph, as sorted tuples."""
    parent = list(range(len(reps)))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if interlocking(reps[i], reps[j]):
                parent[root(i)] = root(j)
    groups = {}
    for k in range(len(reps)):
        groups.setdefault(root(k), []).append(k)
    return sorted(tuple(g) for g in groups.values())


def angular_momentum(reps):
    """Hermitian J1, J2, J3 acting tower by tower on the chain basis."""
    basis = chain_basis(reps)
    index = {label: i for i, label in enumerate(basis)}
    dim = len(basis)
    jp = np.zeros((dim, dim), dtype=complex)
    j3 = np.zeros((dim, dim), dtype=complex)
    for (k, tl, tm), i in index.items():
        j3[i, i] = tm / 2
        up = index.get((k, tl, tm + 2))
        if up is not None:
            jp[up, i] = math.sqrt((tl - tm) * (tl + tm + 2)) / 2
    jm = jp.conj().T
    return (jp + jm) / 2, (jp - jm) / 2j, j3


def assemble_lambda3(reps, table):
    """Longitudinal matrix from reduced coefficients {(k', k, 2l', 2l): c}.

    Each coefficient is stretched over the shared projections m:
    sqrt(l^2 - m^2) one tower down, m on the tower, sqrt((l+1)^2 - m^2)
    one tower up.
    """
    basis = chain_basis(reps)
    index = {label: i for i, label in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for (kp, k, tlp, tl), value in table.items():
        for tm in range(min(tlp, tl), -min(tlp, tl) - 1, -2):
            if tlp == tl - 2:
                weight = math.sqrt(tl * tl - tm * tm) / 2
            elif tlp == tl:
                weight = tm / 2
            else:
                weight = math.sqrt((tl + 2) ** 2 - tm * tm) / 2
            out[index[(kp, tlp, tm)], index[(k, tl, tm)]] += value * weight
    return out


_EPS = {(0, 1): 2, (1, 2): 0, (2, 0): 1, (1, 0): 2, (2, 1): 0, (0, 2): 1}
_EPS_SIGN = {(0, 1): 1, (1, 2): 1, (2, 0): 1, (1, 0): -1, (2, 1): -1, (0, 2): -1}


def vector_operator_residual(js, triple):
    """max over i, j of |[J_i, L_j] - i eps_ijk L_k|, the vector-operator law."""
    worst = 0.0
    for i in range(3):
        for j in range(3):
            comm = js[i] @ triple[j] - triple[j] @ js[i]
            if i != j:
                comm = comm - 1j * _EPS_SIGN[(i, j)] * triple[_EPS[(i, j)]]
            worst = max(worst, float(np.max(np.abs(comm))))
    return worst


# ---------------------------------------------------------------------------
# Transpositions


def reachable_permutations(m, max_len):
    """Distinct permutations of m+1 points that are words of length 1..max_len
    in the adjacent transpositions (k, k+1)."""
    seen = set()
    frontier = {tuple(range(m + 1))}
    for _ in range(max_len):
        step = set()
        for perm in frontier:
            for k in range(m):
                p = list(perm)
                p[k], p[k + 1] = p[k + 1], p[k]
                step.add(tuple(p))
        seen |= step
        frontier = step
    return len(seen)


# ---------------------------------------------------------------------------
# Radial solutions


def equation_defect(grid, values, deriv, inv_r, kappa):
    """max |A f' + C f / r + kappa f| on the interior, f' by five-point
    central differences on the uniform grid."""
    h = grid[1] - grid[0]
    df = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    mid = values[2:-2]
    defect = df @ deriv.T + (mid / grid[2:-2, None]) @ inv_r.T + kappa * mid
    return float(np.max(np.abs(defect)))


def envelope_exponent(grid, values):
    """Power-law exponent of the local maxima of |f| for the largest component."""
    comp = int(np.argmax(np.max(np.abs(values), axis=0)))
    mag = np.abs(values[:, comp])
    peaks = np.flatnonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])) + 1
    if len(peaks) < 4:
        return None
    return float(np.polyfit(np.log(grid[peaks]), np.log(mag[peaks]), 1)[0])
