"""Tests for single-spin rotation/boost functions and coupling coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helirep.halfint import HalfInt, half, lrange, mrange
from helirep.kernels import PoleError
from helirep.su2 import cg_su2, cg_su2_hyp, jac_p, sph_p, wigner_d


def expm(a):
    """Matrix exponential oracle (scipy); a test that needs it skips without it."""
    return pytest.importorskip("scipy.linalg").expm(a)


def standard_spin_matrices(l):
    """Hermitian J1, J2, J3 on the m-descending basis (oracle helper)."""
    ms = [float(m) for m in mrange(l)]
    dim = len(ms)
    jp = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim):
        m = ms[i]
        jp[i - 1, i] = math.sqrt((float(l) - m) * (float(l) + m + 1.0))
    j1 = 0.5 * (jp + jp.conj().T)
    j2 = -0.5j * (jp - jp.conj().T)
    j3 = np.diag(ms).astype(complex)
    return j1, j2, j3


class TestRotationFunction:
    def test_half_spin_closed_forms(self):
        th = 0.7
        assert sph_p(half(1), half(1), half(1), th) == pytest.approx(
            math.cos(th / 2), abs=1e-15
        )
        assert sph_p(half(1), half(1), half(-1), th) == pytest.approx(
            1j * math.sin(th / 2), abs=1e-15
        )

    def test_wigner_closed_forms_spin_one(self):
        th = 0.7
        assert wigner_d(half(2), half(2), half(2), th) == pytest.approx(
            (1 + math.cos(th)) / 2, abs=1e-14
        )
        assert wigner_d(half(2), half(2), half(0), th) == pytest.approx(
            -math.sin(th) / math.sqrt(2), abs=1e-14
        )
        assert wigner_d(half(2), half(0), half(0), th) == pytest.approx(
            math.cos(th), abs=1e-14
        )

    def test_against_exponential_oracle(self):
        rng = np.random.default_rng(11)
        for twice_l in range(1, 7):
            l = half(twice_l)
            _, j2, _ = standard_spin_matrices(l)
            for th in rng.uniform(0.0, math.pi, size=4):
                d = expm(-1j * th * j2)
                phase = np.diag(
                    [np.exp(1j * math.pi * float(m) / 2) for m in mrange(l)]
                )
                # The rotation function differs from the real d-matrix
                # by the i^(n-m) phase dressing.
                z = phase.conj() @ d @ phase
                for i, m in enumerate(mrange(l)):
                    for j, n in enumerate(mrange(l)):
                        assert sph_p(l, m, n, th) == pytest.approx(
                            z[i, j], abs=2e-13
                        )

    def test_symmetric_in_projections(self):
        for twice_l in (2, 3, 5):
            l = half(twice_l)
            for m in mrange(l):
                for n in mrange(l):
                    a = sph_p(l, m, n, 1.1)
                    b = sph_p(l, n, m, 1.1)
                    assert a == pytest.approx(b, abs=1e-14)

    def test_obtuse_angles_via_reflection(self):
        # Values past pi/2 route through the reflection identity; the
        # exponential oracle doesn't care, so compare directly.
        l = half(3)
        _, j2, _ = standard_spin_matrices(l)
        for th in (2.0, 2.9, math.pi):
            d = expm(-1j * th * j2)
            phase = np.diag(
                [np.exp(1j * math.pi * float(m) / 2) for m in mrange(l)]
            )
            z = phase.conj() @ d @ phase
            for i, m in enumerate(mrange(l)):
                for j, n in enumerate(mrange(l)):
                    assert sph_p(l, m, n, th) == pytest.approx(z[i, j], abs=2e-13)

    def test_projection_validation(self):
        with pytest.raises(ValueError):
            sph_p(half(1), half(3), half(1), 0.5)
        with pytest.raises(ValueError):
            sph_p(half(2), half(1), half(0), 0.5)  # l - m not an integer


class TestBoostFunction:
    def test_half_spin_closed_forms(self):
        ta = 0.4
        assert jac_p(half(1), half(1), half(1), ta) == pytest.approx(
            math.cosh(ta / 2), abs=1e-15
        )
        assert jac_p(half(1), half(1), half(-1), ta) == pytest.approx(
            math.sinh(ta / 2), abs=1e-15
        )

    def test_against_exponential_oracle(self):
        rng = np.random.default_rng(12)
        for twice_l in range(1, 7):
            l = half(twice_l)
            j1, _, _ = standard_spin_matrices(l)
            for ta in rng.uniform(-2.0, 2.0, size=4):
                w = expm(ta * j1)
                for i, m in enumerate(mrange(l)):
                    for j, n in enumerate(mrange(l)):
                        assert jac_p(l, m, n, ta) == pytest.approx(
                            w[i, j], abs=1e-12, rel=1e-12
                        )

    def test_symmetric_and_real(self):
        for m in mrange(half(4)):
            for n in mrange(half(4)):
                v = jac_p(half(4), m, n, 0.9)
                assert isinstance(v, float)
                assert v == pytest.approx(jac_p(half(4), n, m, 0.9), abs=1e-14)


class TestCouplingCoefficients:
    def test_textbook_values(self):
        assert cg_su2(half(1), half(1), half(2), half(1), half(1), half(2)) == 1.0
        assert cg_su2(
            half(1), half(1), half(0), half(1), half(-1), half(0)
        ) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert cg_su2(
            half(2), half(1), half(1), half(0), half(1), half(1)
        ) == pytest.approx(-1 / math.sqrt(3), abs=1e-15)

    def test_selection_rules_exact_zero(self):
        # m1 + m2 != m.
        assert cg_su2(half(1), half(1), half(2), half(1), half(-1), half(2)) == 0.0
        # l outside the triangle.
        assert cg_su2(half(1), half(1), half(6), half(1), half(1), half(2)) == 0.0

    @pytest.mark.parametrize("route", [cg_su2, cg_su2_hyp])
    @pytest.mark.parametrize("key", [
        (1, 1, 2, 1, -1, 2),   # m != m1 + m2
        (1, 1, 6, 1, 1, 2),    # l above l1 + l2
        (4, 1, 1, 1, 0, 1),    # l below |l1 - l2|
        (1, 1, 1, 1, 0, 1),    # l1 + l2 + l not an integer
        (2, 2, 2, 4, -2, 2),   # |m1| > l1
        (2, 1, 1, 1, 0, 1),    # m1, m2 of the wrong parity for l1, l2
    ], ids=["sum", "above", "below", "half-odd", "range", "parity"])
    def test_both_routes_share_the_selection_rules(self, route, key):
        assert route(*(half(t) for t in key)) == 0.0

    @pytest.mark.parametrize("route", [cg_su2, cg_su2_hyp])
    @pytest.mark.parametrize("key", [
        (-2, 2, 0, 0, 0, 0),
        (2, 2, -2, 0, 0, 0),
        (0, -1, 1, 0, 1, 1),
    ], ids=["l1", "l", "l2"])
    def test_both_routes_reject_negative_labels(self, route, key):
        with pytest.raises(ValueError, match="non-negative"):
            route(*(half(t) for t in key))

    @pytest.mark.parametrize("route", [cg_su2, cg_su2_hyp])
    @pytest.mark.parametrize("key", [
        (2 * 10**6, 2 * 10**6, 0, 0, 0, 0),
        (2001, 1, 2000, 1, 1, 2),
        (2, 2002, 2000, 0, 0, 0),
        (2000, 2, 2002, 0, 0, 0),
        (2002, 2, 0, 0, 0, 0),     # the triangle would zero it
    ], ids=["million", "l1", "l2", "l", "before-selection"])
    def test_both_routes_refuse_spins_past_the_cap(self, route, key):
        with pytest.raises(ValueError, match="exceed the cap 1000"):
            route(*(half(t) for t in key))

    def test_orthogonality_small_sweep(self):
        for tl1 in range(0, 5):
            for tl2 in range(0, 5):
                l1, l2 = half(tl1), half(tl2)
                for l in lrange(abs(l1 - l2), l1 + l2):
                    for lp in lrange(abs(l1 - l2), l1 + l2):
                        for m in mrange(min(l, lp)):
                            s = sum(
                                cg_su2(l1, l2, l, m1, m - m1, m)
                                * cg_su2(l1, l2, lp, m1, m - m1, m)
                                for m1 in mrange(l1)
                                if abs(m - m1) <= l2
                                and (l2 - (m - m1)).is_integer
                            )
                            want = 1.0 if l == lp else 0.0
                            assert s == pytest.approx(want, abs=1e-13)

    def test_series_form_constant_ratio_per_triple(self):
        # The alternative series-form coefficient differs from the
        # standard one by the l-dependent factor sqrt(l1 + l2 + l + 1),
        # constant across all projections of a triple.  Poles of the
        # series denominators make some projections unevaluable; those
        # raise and are skipped.
        for tl1 in range(0, 4):
            for tl2 in range(0, 4):
                l1, l2 = half(tl1), half(tl2)
                for l in lrange(abs(l1 - l2), l1 + l2):
                    expected = math.sqrt(float(l1 + l2 + l) + 1.0)
                    for m in mrange(l):
                        for m1 in mrange(l1):
                            m2 = m - m1
                            if abs(m2) > l2 or not (l2 - m2).is_integer:
                                continue
                            base = cg_su2(l1, l2, l, m1, m2, m)
                            if abs(base) < 1e-14:
                                continue
                            try:
                                alt = cg_su2_hyp(l1, l2, l, m1, m2, m)
                            except PoleError:
                                continue
                            assert alt / base == pytest.approx(
                                expected, abs=1e-11
                            )

    def test_series_form_some_projections_pole_out(self):
        """Exactly the keys with m < l1 - l2 pole out: there the series'
        second denominator parameter l2 - l1 + m + 1 is not positive."""
        hit = 0
        for m in mrange(half(2)):
            for m1 in mrange(half(2)):
                m2 = m - m1
                if abs(m2) > 1:
                    continue
                try:
                    cg_su2_hyp(half(2), half(2), half(2), m1, m2, m)
                except PoleError:
                    hit += 1
        assert hit > 0
        poles = []
        for key in _valid_cg_keys(8):
            try:
                cg_su2_hyp(*key)
            except PoleError:
                poles.append(key)
        want = [key for key in _valid_cg_keys(8) if key[5] < key[0] - key[1]]
        assert poles == want and len(want) == 3222


def _valid_cg_keys(max_twice):
    """Every (l1, l2, l, m1, m2, m) with 2l1, 2l2 <= max_twice and m = m1 + m2."""
    for tl1 in range(max_twice + 1):
        for tl2 in range(max_twice + 1):
            l1, l2 = half(tl1), half(tl2)
            for l in lrange(abs(l1 - l2), l1 + l2):
                for m1 in mrange(l1):
                    for m2 in mrange(l2):
                        if abs(m1 + m2) <= l:
                            yield l1, l2, l, m1, m2, m1 + m2


class TestCouplingAgainstSympy:
    """Both CG routes against sympy's exact coefficient, a third oracle
    that shares no code with either."""

    @pytest.fixture(scope="class")
    def reference(self):
        cg = pytest.importorskip("sympy.physics.quantum.cg")
        sympy = pytest.importorskip("sympy")

        def want(l1, l2, l, m1, m2, m):
            j1, j2, j, u1, u2, u = (
                sympy.Rational(x.twice, 2) for x in (l1, l2, l, m1, m2, m)
            )
            return float(cg.CG(j1, u1, j2, u2, j, u).doit())

        return [(key, want(*key)) for key in _valid_cg_keys(4)]

    def test_condon_shortley_route(self, reference):
        for key, want in reference:
            assert cg_su2(*key) == pytest.approx(want, abs=1e-12), key

    def test_series_route_up_to_its_normalization(self, reference):
        evaluated = 0
        for key, want in reference:
            l1, l2, l = key[:3]
            try:
                got = cg_su2_hyp(*key)
            except PoleError:
                continue
            evaluated += 1
            scale = math.sqrt(float(l1 + l2 + l) + 1.0)
            assert got == pytest.approx(want * scale, abs=1e-12), key
        assert evaluated > len(reference) // 2


def _signed_root(sign, square, bits=160):
    """sign * sqrt(square) for an exact rational square, rounded once:
    an integer square root at ``bits`` fractional bits."""
    root = math.isqrt((square.numerator << 2 * bits) // square.denominator)
    return sign * float(Fraction(root, 1 << bits))


def _cg_closed_form(l1, l2, l, m1):
    """<l1 m1; l2 m2 | l m> from a closed form that shares no code with
    either route (integer spins): l = 0, or m1 = m2 = 0 (with l1 + l2 + l
    even; the stretched case l = l1 + l2 is one of these)."""
    f = math.factorial
    if l == 0:  # (-1)^(l1-m1) / sqrt(2 l1 + 1), with l2 = l1, m2 = -m1
        return _signed_root((-1) ** (l1 - m1), Fraction(1, 2 * l1 + 1))
    assert m1 == 0 and (l1 + l2 + l) % 2 == 0
    j = l1 + l2 + l
    g = j // 2
    square = Fraction((2 * l + 1) * f(j - 2 * l1) * f(j - 2 * l2) * f(j - 2 * l),
                      f(j + 1)) * Fraction(
        f(g), f(g - l1) * f(g - l2) * f(g - l)) ** 2
    return _signed_root((-1) ** (g - l), square)


class TestCouplingAtHighSpin:
    """Where the squared norm passes the float range, ``cg_su2`` scales it
    (and the sum) by exact powers of two; the value is finite, below 1 and
    agrees with a closed form in exact arithmetic.  The gamma-ratio route
    refuses these labels with a ValueError that names the overflow."""

    KEYS = [
        (100, 100, 200, 0), (200, 200, 400, 0), (400, 400, 800, 0),
        (150, 250, 200, 0), (60, 60, 120, 0),
        (300, 300, 0, 1), (400, 400, 0, -7),
    ]

    @pytest.mark.parametrize("key", KEYS, ids=str)
    def test_condon_shortley_route_matches_closed_form(self, key):
        l1, l2, l, m1 = key
        got = cg_su2(l1, l2, l, m1, -m1 if l == 0 else 0, 0)
        want = _cg_closed_form(l1, l2, l, m1)
        assert math.isfinite(got) and abs(got) < 1
        assert got == pytest.approx(want, rel=1e-14, abs=0), key

    @pytest.mark.parametrize("key", KEYS, ids=str)
    def test_series_route_refuses_with_value_error(self, key):
        l1, l2, l, m1 = key
        with pytest.raises(ValueError, match="overflows or underflows a float"):
            cg_su2_hyp(l1, l2, l, m1, -m1 if l == 0 else 0, 0)

    def test_closed_form_agrees_at_low_spin(self):
        # The oracle itself, on labels where both routes fit a float.
        for key in ((1, 1, 2, 0), (2, 1, 1, 0), (3, 2, 3, 0), (2, 2, 0, 1)):
            l1, l2, l, m1 = key
            want = _cg_closed_form(l1, l2, l, m1)
            got = cg_su2(l1, l2, l, m1, -m1 if l == 0 else 0, 0)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-15), key


def _bits(value):
    """The bit patterns of a float or complex, signed zeros included."""
    return np.array([value]).view(np.uint64).tolist()


def _cg_fraction_loop(l1, l2, l, m1, m2, m):
    """``cg_su2`` with a Fraction per term of its z-sum and for its squared
    norm, scaled as ``cg_su2`` scales them: the reference of the integer
    sum (valid labels only)."""
    f = math.factorial
    t1, t2, t, u1, u2, u = (HalfInt(x).twice for x in (l1, l2, l, m1, m2, m))
    norm2 = Fraction(
        (t + 1) * f((t1 + t2 - t) // 2) * f((t1 - t2 + t) // 2) * f((t2 - t1 + t) // 2)
        * f((t1 + u1) // 2) * f((t1 - u1) // 2) * f((t2 + u2) // 2)
        * f((t2 - u2) // 2) * f((t + u) // 2) * f((t - u) // 2),
        f((t1 + t2 + t) // 2 + 1))
    a, b, c = (t1 + t2 - t) // 2, (t1 - u1) // 2, (t2 + u2) // 2
    d, e = (t - t2 + u1) // 2, (t - t1 - u2) // 2
    total = Fraction(0)
    for z in range(max(0, -d, -e), min(a, b, c) + 1):
        total += Fraction((-1) ** z, f(z) * f(a - z) * f(b - z) * f(c - z)
                          * f(d + z) * f(e + z))
    p, q = norm2.numerator, norm2.denominator
    s = (max(0, p.bit_length() - q.bit_length() - 1000) + 1) // 2
    r = max(0, total.denominator.bit_length() - total.numerator.bit_length() - 1000)
    root = math.sqrt(Fraction(p, q << 2 * s))
    return math.ldexp(float(Fraction(total.numerator << r, total.denominator)) * root,
                      s - r)


class TestCouplingSumInIntegers:
    """``cg_su2`` adds its z-sum over one common integer denominator; a
    Fraction per term gives the same rational, so the same bits."""

    def test_low_spin_keys_keep_their_bits(self):
        for key in _valid_cg_keys(6):
            assert _bits(cg_su2(*key)) == _bits(_cg_fraction_loop(*key)), key

    @pytest.mark.parametrize("key", TestCouplingAtHighSpin.KEYS, ids=str)
    def test_high_spin_keys_keep_their_bits(self, key):
        l1, l2, l, m1 = key
        labels = (l1, l2, l, m1, -m1 if l == 0 else 0, 0)
        assert _bits(cg_su2(*labels)) == _bits(_cg_fraction_loop(*labels))


class TestLabelBlocksAgainstOneRowLoop:
    """The label-block tabulators against the one-pair evaluation they
    replace: one Horner loop per (m, k) pair, a scalar t-exponent, and the
    reflection theta -> pi - theta taken pair by pair.  Equal bits."""

    @staticmethod
    def _one_pair(tl, tm, tn, c, t, sign):
        from helirep.su2 import _pair_norm, _series_coeffs

        ta, tb = max(tm, tn), min(tm, tn)
        coeffs = _series_coeffs(tl, ta, tb)
        poly = np.zeros_like(t) + coeffs[-1]
        for value in reversed(coeffs[:-1]):
            poly = poly * (sign * t * t) + value
        return _pair_norm(tl, ta, tb) * c**tl * t ** ((ta - tb) // 2) * poly

    def _rotation(self, tl, tm, tn, theta):
        from helirep.kernels import ipow

        if np.cos(theta) < 0.0:
            return ipow(tl - tm - tn) * self._rotation(tl, tm, -tn, math.pi - theta)
        half_angle = np.array([0.5 * theta])
        value = self._one_pair(
            tl, tm, tn, np.cos(half_angle), np.tan(half_angle), -1.0
        )
        return ipow(abs(tm - tn) // 2) * value[0]

    def test_rotation_and_boost_rows(self):
        from helirep.su2 import _jac_vec, _sph_vec

        thetas = [0.0, 0.4, 1.2, math.pi / 2, 1.9, 2.7, math.pi, 4.4, -0.9]
        taus = [-2.5, -0.3, 0.0, 0.8, 3.0]
        for tl in range(0, 13):
            labels = range(tl, -tl - 1, -2)
            for tm in labels:
                rot = _sph_vec(tl, tm, thetas)
                boost = _jac_vec(tl, tm, taus)
                for row, tn in enumerate(labels):
                    for i, theta in enumerate(thetas):
                        want = self._rotation(tl, tm, tn, theta)
                        assert _bits(rot[row, i]) == _bits(want)
                    for j, tau in enumerate(taus):
                        half_tau = np.array([0.5 * tau])
                        want = self._one_pair(
                            tl, tn, tm, np.cosh(half_tau), np.tanh(half_tau), 1.0
                        )[0]
                        assert _bits(boost[row, j]) == _bits(want)
