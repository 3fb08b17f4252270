"""Tests for the complexified-rotation matrix functions."""

import cmath
import math
import warnings

import numpy as np
import pytest

from helirep.core import CMatrix, GroupPoint, enumerate_basis
from helirep.halfint import half, mrange
from helirep.hyperspherical import (
    euler_product,
    fundamental_matrix,
    m_function,
    m_matrix,
    rep_matrix,
    z_factorized,
    z_grid,
    z_matrix,
    z_series,
    z_series_grid,
)
from helirep.su2 import jac_p, sph_p, wigner_d

SEED = 20260822


def random_points(n, scale=1.5, seed=SEED):
    rng = np.random.default_rng(seed)
    return [GroupPoint(*rng.uniform(-scale, scale, size=6)) for _ in range(n)]


class TestDualRoute:
    def test_series_equals_factorized_on_grid(self):
        thetas = np.linspace(0.05, 1.5, 5)
        taus = np.linspace(-1.2, 1.2, 5)
        keys = [
            (half(twice_l), m, n)
            for twice_l in range(1, 9)
            for m in mrange(half(twice_l))
            for n in mrange(half(twice_l))
        ]
        for count, (l, m, n) in enumerate(keys):
            series = z_series_grid(l, m, n, thetas, taus)
            factorized = z_grid(l, m, n, thetas, taus)
            assert np.max(np.abs(series - factorized)) <= 1e-10
            # The one-point views reproduce their tables; the spot cell
            # cycles through the grid from key to key.
            i, j = divmod(count % thetas.size**2, thetas.size)
            assert z_series(l, m, n, thetas[i], taus[j]) == series[i, j]
            assert z_factorized(l, m, n, thetas[i], taus[j]) == factorized[i, j]

    def test_frozen_values(self):
        assert z_factorized(half(2), half(2), half(0), 0.9, -0.6) == pytest.approx(
            -0.2798376592673116 + 0.6566241694913136j, abs=1e-13
        )
        assert z_factorized(half(3), half(1), half(-1), 0.9, -0.6) == pytest.approx(
            -0.10005941654669123 + 0.9350503387680362j, abs=1e-13
        )
        assert z_factorized(half(4), half(0), half(0), 0.9, -0.6) == pytest.approx(
            -0.05853855324784854 - 1.10248902365275j, abs=1e-13
        )

    def test_boost_off_identity(self):
        # tau = 0 reduces the two-variable function to the rotation one.
        from helirep.su2 import sph_p

        l = half(3)
        for m in mrange(l):
            for n in mrange(l):
                assert z_factorized(l, m, n, 0.8, 0.0) == pytest.approx(
                    sph_p(l, m, n, 0.8), abs=1e-14
                )


class TestMatrixFunctions:
    def test_z_matrix_entries(self):
        l = half(2)
        zm = z_matrix(l, 0.7, 0.3)
        for m in mrange(l):
            for n in mrange(l):
                assert zm.at(m, n) == pytest.approx(
                    z_factorized(l, m, n, 0.7, 0.3), abs=1e-14
                )

    def test_m_function_frozen_value(self):
        g = GroupPoint(phi=0.3, eps=-0.2, theta=0.9, tau=0.5, psi=1.1, veps=0.15)
        assert m_function(half(2), half(2), half(2), g) == pytest.approx(
            0.3633998413087496 - 0.8445995084650628j, abs=1e-13
        )

    def test_m_matrix_phase_dressing(self):
        g = GroupPoint(phi=0.4, eps=0.2, theta=1.1, tau=-0.7, psi=2.0, veps=-0.3)
        l = half(3)
        mm = m_matrix(l, g)
        for m in mrange(l):
            for n in mrange(l):
                assert mm.at(m, n) == pytest.approx(
                    m_function(l, m, n, g), abs=1e-13
                )

    def test_fundamental_equals_spin_half_m_matrix(self):
        for g in random_points(10):
            # Both are labeled by HalfInt projections; the compare aligns
            # the ascending labels of one to the descending of the other.
            assert m_matrix(half(1), g).residual_vs(fundamental_matrix(g)) <= 1e-12

    def test_fundamental_equals_euler_product(self):
        for g in random_points(25):
            assert fundamental_matrix(g).residual_vs(euler_product(g)) <= 1e-12

    def test_determinant_one(self):
        for g in random_points(10, seed=SEED + 2):
            fm = fundamental_matrix(g)
            assert np.linalg.det(fm.data) == pytest.approx(1.0, abs=1e-12)


class TestGroupLaws:
    def test_rotation_composition(self):
        for twice_l in range(1, 7):
            l = half(twice_l)
            for t1, t2 in [(0.3, 0.4), (1.0, 0.8), (0.2, 2.1)]:
                a = z_matrix(l, t1, 0.0) @ z_matrix(l, t2, 0.0)
                b = z_matrix(l, t1 + t2, 0.0)
                assert a.residual_vs(b) <= 1e-10

    def test_boost_composition(self):
        for twice_l in range(1, 7):
            l = half(twice_l)
            for t1, t2 in [(0.3, 0.4), (-0.9, 0.5), (1.1, 1.0)]:
                a = z_matrix(l, 0.0, t1) @ z_matrix(l, 0.0, t2)
                b = z_matrix(l, 0.0, t1 + t2)
                assert a.residual_vs(b) <= 1e-10

    def test_rotation_unitary(self):
        for twice_l in range(1, 7):
            l = half(twice_l)
            zm = z_matrix(l, 1.234, 0.0)
            ident = zm @ zm.dagger()
            assert ident.residual_vs(
                type(zm).identity(zm.row_labels)
            ) <= 1e-12


class TestRepMatrix:
    def test_spin_half_undotted_is_fundamental(self):
        for g in random_points(5, seed=SEED + 3):
            rm = rep_matrix(half(1), half(0), g)
            fm = fundamental_matrix(g).reindexed(mrange(half(1)))
            want = CMatrix(fm.data, enumerate_basis(half(1), half(0)))
            assert rm.residual_vs(want) <= 1e-12

    def test_factorizes_as_product(self):
        g = GroupPoint(phi=0.2, eps=0.1, theta=0.8, tau=0.4, psi=-0.5, veps=0.25)
        l, ldot = half(2), half(1)
        rm = rep_matrix(l, ldot, g)
        a = m_matrix(l, g)
        b = m_matrix(ldot, g)
        for r in enumerate_basis(l, ldot):
            for c in enumerate_basis(l, ldot):
                want = a.at(r.m, c.m) * np.conj(b.at(r.mdot, c.mdot))
                assert rm.at(r, c) == pytest.approx(want, abs=1e-13)

    def test_dimension(self):
        g = GroupPoint(theta=0.3)
        assert rep_matrix(half(3), half(2), g).shape == (12, 12)


class TestGridEvaluation:
    """The factorized grid against the series route, point by point."""

    def test_matches_scalar_route(self):
        thetas = np.linspace(0.02, 1.55, 7)
        taus = np.linspace(-1.5, 1.5, 6)
        for twice_l in (1, 3, 4, 8):
            l = half(twice_l)
            for m in (mrange(l)[0], mrange(l)[-1]):
                for n in (mrange(l)[0], mrange(l)[len(mrange(l)) // 2]):
                    grid = z_grid(l, m, n, thetas, taus)
                    assert grid.shape == (7, 6)
                    for i, th in enumerate(thetas):
                        for j, ta in enumerate(taus):
                            assert grid[i, j] == pytest.approx(
                                z_series(l, m, n, th, ta), abs=1e-11
                            )

    def test_obtuse_angles_included(self):
        thetas = np.array([0.4, 2.0, 3.0])
        taus = np.array([0.0, 0.6])
        grid = z_grid(half(3), half(1), half(-1), thetas, taus)
        for i, th in enumerate(thetas):
            for j, ta in enumerate(taus):
                assert grid[i, j] == pytest.approx(
                    z_series(half(3), half(1), half(-1), th, ta), abs=1e-11
                )


class TestNonFiniteAngles:
    """A non-finite angle or rapidity is a ValueError, raised before any
    evaluation: no numpy warning, no endless reflection, no NaN value."""

    CALLS = {
        "sph_p": lambda x: sph_p(half(2), half(0), half(2), x),
        "wigner_d": lambda x: wigner_d(half(2), half(0), half(2), x),
        "jac_p": lambda x: jac_p(half(2), half(0), half(2), x),
        "z_series theta": lambda x: z_series(half(2), half(0), half(2), x, 0.1),
        "z_series tau": lambda x: z_series(half(2), half(0), half(2), 0.1, x),
        "z_factorized theta": lambda x: z_factorized(half(2), half(0), half(2), x, 0.1),
        "z_factorized tau": lambda x: z_factorized(half(2), half(0), half(2), 0.1, x),
        "z_grid thetas": lambda x: z_grid(half(2), half(0), half(2), [0.1, x], [0.1]),
        "z_grid taus": lambda x: z_grid(half(2), half(0), half(2), [0.1], [0.1, x]),
        "z_series_grid thetas": lambda x: z_series_grid(half(2), half(0), half(2), [x], [0.1]),
        "z_series_grid taus": lambda x: z_series_grid(half(2), half(0), half(2), [0.1], [x]),
        "z_matrix theta": lambda x: z_matrix(half(2), x, 0.1),
        "z_matrix tau": lambda x: z_matrix(half(2), 0.1, x),
        "m_function": lambda x: m_function(half(2), half(0), half(2), GroupPoint(theta=x)),
        "m_matrix": lambda x: m_matrix(half(2), GroupPoint(tau=x)),
        **{
            f"{name} {coord}": (
                lambda x, call=call, coord=coord: call(GroupPoint(**{coord: x}))
            )
            for name, call in (
                ("m_function", lambda g: m_function(half(2), half(0), half(2), g)),
                ("m_matrix", lambda g: m_matrix(half(2), g)),
                ("rep_matrix", lambda g: rep_matrix(half(1), half(2), g)),
                ("fundamental_matrix", fundamental_matrix),
                ("euler_product", euler_product),
            )
            for coord in ("phi", "eps", "theta", "tau", "psi", "veps")
        },
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_rejected(self, entry, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                self.CALLS[entry](value)


class TestOverflowingElements:
    """A finite rapidity whose 2x2 entries pass the float range is a
    ValueError naming the overflow: no OverflowError, no inf or NaN
    matrix, no numpy warning.  Up to |rapidity| = 1400 the entries fit
    and the two forms still agree."""

    CALLS = {"fundamental_matrix": fundamental_matrix,
             "euler_product": euler_product}

    @pytest.mark.parametrize("value", [2000.0, -2000.0, 1500.0, -1500.0])
    @pytest.mark.parametrize("coord", ["tau", "eps", "veps"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_refused(self, name, coord, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows a float"):
                self.CALLS[name](GroupPoint(**{coord: value}))

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_product_of_fitting_factors_refused(self, name):
        # Each factor fits a float; the product of the two does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows a float"):
                self.CALLS[name](GroupPoint(eps=1400.0, tau=1400.0))

    @pytest.mark.parametrize("value", [1400.0, -1400.0])
    @pytest.mark.parametrize("coord", ["tau", "eps", "veps"])
    def test_fits_up_to_1400(self, coord, value):
        g = GroupPoint(theta=0.3, **{coord: value})
        fm, ep = fundamental_matrix(g), euler_product(g)
        assert np.isfinite(fm.data).all() and np.isfinite(ep.data).all()
        scale = np.abs(fm.data).max()
        assert np.abs(fm.data - ep.data).max() <= 1e-13 * scale


class TestOverflowingMatrices:
    """The phase-dressed element and the representation matrices refuse a
    point whose value or entries pass the float range as the 2x2 elements
    do, with a ValueError naming the overflow and no numpy warning; a
    phase or a rotation never overflows."""

    CALLS = {
        "m_function": lambda g: m_function(half(2), half(2), half(-2), g),
        "m_matrix": lambda g: m_matrix(half(2), g),
        "rep_matrix": lambda g: rep_matrix(half(1), half(2), g),
    }

    @staticmethod
    def _overflows(name, coord, value):
        if coord in ("phi", "theta", "psi"):
            return False
        # The element (m, n) = (1, -1) carries exp(-eps) and exp(veps);
        # the matrices carry both signs of every rapidity.
        if name == "m_function" and coord != "tau":
            return (value < 0) == (coord == "eps")
        return True

    @pytest.mark.parametrize("value", [2000.0, -2000.0])
    @pytest.mark.parametrize("coord", ["phi", "eps", "theta", "tau", "psi", "veps"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_refused_where_it_overflows(self, name, coord, value):
        g = GroupPoint(**{coord: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if self._overflows(name, coord, value):
                with pytest.raises(ValueError, match="overflows a float"):
                    self.CALLS[name](g)
            else:
                out = self.CALLS[name](g)
                assert np.isfinite(getattr(out, "data", out)).all()

    @pytest.mark.parametrize("name, call, g", [
        ("m_function", lambda g: m_function(half(1), half(1), half(-1), g),
         GroupPoint(eps=-1400.0, tau=1400.0)),
        ("m_matrix", lambda g: m_matrix(half(1), g), GroupPoint(eps=-1400.0, tau=1400.0)),
        # Each spin-1/2 factor of the Kronecker product fits; their product does not.
        ("rep_matrix", lambda g: rep_matrix(half(1), half(1), g), GroupPoint(eps=-1400.0)),
    ])
    def test_product_of_fitting_factors_refused(self, name, call, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name}: .* overflows a float"):
                call(g)

    def test_fitting_points_keep_their_values(self):
        g = GroupPoint(phi=0.2, eps=-700.0, theta=0.3, tau=0.4, psi=0.5, veps=0.6)
        z = z_factorized(half(1), half(1), half(-1), 0.3, 0.4)
        left, right = cmath.exp(-0.5 * (-700.0 + 0.2j)), cmath.exp(0.5 * (0.6 + 0.5j))
        assert m_function(half(1), half(1), half(-1), g) == left * z * right
        assert np.isfinite(m_matrix(half(1), g).data).all()
        assert np.isfinite(rep_matrix(half(1), half(1), GroupPoint(eps=-700.0)).data).all()


class TestSeriesGridEvaluation:
    """The series grid against the factorized route, scalar and grid."""

    def test_matches_scalar_series(self):
        thetas = np.linspace(0.0, 1.5, 6)
        taus = np.linspace(-1.2, 1.2, 5)
        for twice_l in (1, 4, 8):
            l = half(twice_l)
            for m in (mrange(l)[0], mrange(l)[-1]):
                for n in (mrange(l)[0], mrange(l)[len(mrange(l)) // 2]):
                    grid = z_series_grid(l, m, n, thetas, taus)
                    assert grid.shape == (6, 5)
                    for i, th in enumerate(thetas):
                        for j, ta in enumerate(taus):
                            assert grid[i, j] == pytest.approx(
                                z_factorized(l, m, n, th, ta), abs=1e-11
                            )

    def test_matches_factorized_grid(self):
        thetas = np.linspace(0.05, 2.9, 40)
        taus = np.linspace(-1.8, 1.8, 30)
        for l, m, n in (
            (half(3), half(1), half(-3)),
            (half(6), half(0), half(4)),
        ):
            series = z_series_grid(l, m, n, thetas, taus)
            factorized = z_grid(l, m, n, thetas, taus)
            assert np.max(np.abs(series - factorized)) <= 1e-10


def _z_mpmath(tl, tm, tn, theta, tau):
    """Z^l_mn from the Wigner closed form at the complex angle theta - i tau.

    Labels are twice-ints; the sum runs in mpmath at 50 digits, apart
    from either library route.
    """
    mpmath = pytest.importorskip("mpmath")
    f = math.factorial
    d = (tm - tn) // 2
    with mpmath.workdps(50):
        w = (mpmath.mpf(theta) - 1j * mpmath.mpf(tau)) / 2
        c, s = mpmath.cos(w), mpmath.sin(w)
        total = mpmath.mpc(0)
        for k in range(tl + 1):
            e = ((tl + tn) // 2 - k, k, d + k, (tl - tm) // 2 - k)
            if min(e) >= 0:
                total += (-1) ** k * c ** (tl - d - 2 * k) * s ** (d + 2 * k) / (
                    f(e[0]) * f(e[1]) * f(e[2]) * f(e[3])
                )
        norm = mpmath.sqrt(
            f((tl + tm) // 2) * f((tl - tm) // 2)
            * f((tl + tn) // 2) * f((tl - tn) // 2)
        )
        return complex(norm * total * mpmath.mpc(0, 1) ** d)


class TestSeriesNearPi:
    """The series route stays finite and accurate up to theta = pi."""

    @pytest.mark.parametrize("l, theta", [(40, 3.14159), (60, 3.14), (80, 3.13)])
    def test_high_spin_against_mpmath(self, l, theta):
        tau = 0.4
        want = _z_mpmath(2 * l, 2, -2, theta, tau)
        scale = math.exp(l * abs(tau))
        got = z_series(l, 1, -1, theta, tau)
        assert abs(got - want) <= 1e-12 * scale
        grid = z_series_grid(l, 1, -1, [theta], [tau])[0, 0]
        assert abs(grid - want) <= 1e-12 * scale

    def test_extreme_projections_at_pi(self):
        # m = l, n = -l: the whole value sits in the highest power of sin.
        tau = 0.4
        got = z_series(40, 40, -40, math.pi, tau)
        want = _z_mpmath(80, 80, -80, math.pi, tau)
        assert abs(got - want) <= 1e-12 * math.exp(40 * tau)


def _fresh_memos(monkeypatch):
    """Both routes' label-block memos replaced by empty ones over the same
    builders for one test, so both routes rebuild their blocks under its
    patches: a memoized block would hide a broken helper."""
    import helirep.hyperspherical as hs
    import helirep.su2 as su2

    for module, name in ((su2, "_label_block"), (hs, "_series_block")):
        memo = getattr(module, name)
        monkeypatch.setattr(module, name, type(memo)(memo.__wrapped__))


class TestRouteIndependence:
    """Each route still evaluates with the other route's helpers broken."""

    ARGS = (half(5), half(3), half(-1))

    @staticmethod
    def _broken(*args, **kwargs):
        raise AssertionError("evaluated through the other route")

    def test_series_route_without_factor_tabulators(self, monkeypatch):
        import helirep.hyperspherical as hs
        import helirep.su2 as su2

        for module in (su2, hs):
            monkeypatch.setattr(module, "_sph_vec", self._broken)
            monkeypatch.setattr(module, "_jac_vec", self._broken)
        monkeypatch.setattr(su2, "_series_coeffs", self._broken)
        monkeypatch.setattr(su2, "_pair_norm", self._broken)
        _fresh_memos(monkeypatch)
        thetas, taus = np.array([0.3, 2.8]), np.array([-0.5, 0.7])
        want = _z_mpmath(5, 3, -1, 2.8, 0.7)
        assert z_series(*self.ARGS, 2.8, 0.7) == pytest.approx(want, abs=1e-12)
        grid = z_series_grid(*self.ARGS, thetas, taus)
        assert grid[1, 1] == pytest.approx(want, abs=1e-12)
        sets = hs._series_table(5, [3, -5], [5, -1], thetas, taus)
        assert sets[0, 1, 1, 1] == grid[1, 1]
        # The patch does reach the factorized route.
        with pytest.raises(AssertionError, match="other route"):
            z_factorized(*self.ARGS, 2.8, 0.7)
        with pytest.raises(AssertionError, match="other route"):
            z_grid(*self.ARGS, thetas, taus)
        with pytest.raises(AssertionError, match="other route"):
            hs._factorized_table(5, [3, -5], [5, -1], thetas, taus)

    def test_factorized_route_without_series_helpers(self, monkeypatch):
        import helirep.hyperspherical as hs
        import helirep.su2 as su2
        from helirep.su2 import jac_p, sph_p

        monkeypatch.setattr(hs, "_gauss_float_coeffs", self._broken)
        monkeypatch.setattr(hs, "_ln_pref", self._broken)
        _fresh_memos(monkeypatch)
        thetas, taus = np.array([0.3, 2.8]), np.array([-0.5, 0.7])
        want = _z_mpmath(5, 3, -1, 2.8, 0.7)
        assert z_factorized(*self.ARGS, 2.8, 0.7) == pytest.approx(want, abs=1e-12)
        grid = z_grid(*self.ARGS, thetas, taus)
        assert grid[1, 1] == pytest.approx(want, abs=1e-12)
        assert sph_p(half(5), half(3), half(-1), 2.8) == pytest.approx(
            _z_mpmath(5, 3, -1, 2.8, 0.0), abs=1e-12
        )
        assert jac_p(half(5), half(3), half(-1), 0.7) == pytest.approx(
            _z_mpmath(5, 3, -1, 0.0, 0.7).real, abs=1e-12
        )
        sets = hs._factorized_table(5, [3, -5], [5, -1], thetas, taus)
        assert sets[0, 1, 1, 1] == grid[1, 1]
        with pytest.raises(AssertionError, match="other route"):
            z_series(*self.ARGS, 2.8, 0.7)
        with pytest.raises(AssertionError, match="other route"):
            z_series_grid(*self.ARGS, thetas, taus)
        with pytest.raises(AssertionError, match="other route"):
            hs._series_table(5, [3, -5], [5, -1], thetas, taus)


class TestTablesKeepTheirBits:
    """Tabulating all internal labels at once, cutting the angle axes
    into tabulator blocks and those into k-sum blocks change no bit: a
    table equals its pieces, and each one-point view equals its table's
    entry."""

    TWICE = (40, 2, -6)
    ROWS = TWICE[0] + 1  # labels k in each k-sum

    @staticmethod
    def _blocks(size, width):
        """Blocks of an axis of ``size`` angles, each angle ``width`` cells."""
        import helirep.hyperspherical as hs

        return len(hs._angle_blocks(size, width))

    @classmethod
    def _step(cls):
        """Angles in one tabulator block."""
        import helirep.hyperspherical as hs

        return hs._CELLS // cls.ROWS

    @classmethod
    def _long(cls):
        return 2 * cls._step() + 7  # three tabulator blocks of angles

    @pytest.mark.parametrize("table", [z_grid, z_series_grid])
    def test_theta_sweep_equals_its_points(self, table):
        args = tuple(half(t) for t in self.TWICE)
        thetas = np.linspace(0.05, 3.1, self._long())
        taus = np.array([-0.7, 0.0, 1.3])
        assert thetas[0] < math.pi / 2 < thetas[-1]
        # Three tabulator blocks of thetas, each cut into k-sums.
        assert self._blocks(thetas.size, self.ROWS) >= 3
        assert self._blocks(self._step(), self.ROWS * taus.size) >= 3
        got = table(*args, thetas, taus)
        pieces = np.vstack([table(*args, [th], taus) for th in thetas])
        assert np.array_equal(got, pieces)

    @pytest.mark.parametrize("table", [z_grid, z_series_grid])
    def test_tau_sweep_equals_its_points(self, table):
        args = tuple(half(t) for t in self.TWICE)
        thetas = np.array([0.4, 2.9])
        taus = np.linspace(-2.5, 2.5, self._long())
        assert self._blocks(taus.size, self.ROWS) >= 3
        got = table(*args, thetas, taus)
        pieces = np.hstack([table(*args, thetas, [ta]) for ta in taus])
        assert np.array_equal(got, pieces)

    @pytest.mark.parametrize("table", [z_grid, z_series_grid])
    def test_table_blocked_on_both_axes_equals_its_rows(self, table):
        args = tuple(half(t) for t in self.TWICE)
        thetas = np.linspace(-1.0, 4.0, 90)
        taus = np.linspace(-2.0, 2.0, self._long())
        # Three tabulator blocks of taus; a full one leaves each k-sum
        # room for one theta.
        assert self._blocks(taus.size, self.ROWS) >= 3
        assert self._blocks(thetas.size, self.ROWS * self._step()) >= 3
        got = table(*args, thetas, taus)
        pieces = np.vstack([table(*args, [th], taus) for th in thetas])
        assert np.array_equal(got, pieces)

    @pytest.mark.parametrize("route", ["series", "factorized"])
    def test_label_set_table_equals_its_one_label_tables(self, route):
        import helirep.hyperspherical as hs

        tl, tms, tns = self.TWICE[0], (40, 2, -38), (-40, -6, 14, 40)
        labels = {"series": (hs._series_table, z_series_grid),
                  "factorized": (hs._factorized_table, z_grid)}
        table, one_label = labels[route]
        # Blocks count every label's cells: three tabulator blocks on each
        # axis, and each k-sum of a full tau block has room for one theta.
        theta_step = hs._CELLS // (self.ROWS * len(tms))
        tau_step = hs._CELLS // (self.ROWS * len(tns))
        thetas = np.linspace(-1.0, 4.0, 2 * theta_step + 7)
        taus = np.linspace(-2.0, 2.0, 2 * tau_step + 5)
        assert np.any((math.pi / 2 < thetas) & (thetas < math.pi))
        assert thetas[-1] > math.pi
        assert self._blocks(thetas.size, self.ROWS * len(tms)) == 3
        assert self._blocks(taus.size, self.ROWS * len(tns)) == 3
        assert self._blocks(theta_step, self.ROWS * len(tns) * tau_step) == theta_step
        got = table(tl, tms, tns, thetas, taus)
        assert got.shape == (len(tms), len(tns), thetas.size, taus.size)
        for i, tm in enumerate(tms):
            for j, tn in enumerate(tns):
                want = one_label(half(tl), half(tm), half(tn), thetas, taus)
                assert got[i, j].tobytes() == want.tobytes(), (tm, tn)

    @pytest.mark.parametrize("table", [z_grid, z_series_grid])
    def test_empty_axes_give_empty_tables(self, table):
        args = tuple(half(t) for t in self.TWICE)
        for thetas, taus in (([], [0.3]), ([0.2], []), ([], [])):
            assert table(*args, thetas, taus).shape == (len(thetas), len(taus))

    def test_one_point_views_equal_table_entries(self):
        from helirep.kernels import ipow
        from helirep.su2 import _jac_vec, _sph_vec

        tl = 7
        l = half(tl)
        thetas = np.array([-0.8, 0.0, 0.9, math.pi / 2, 2.2, math.pi, 4.5])
        taus = np.array([-1.5, 0.0, 0.6])
        labels = range(tl, -tl - 1, -2)
        for tm in labels:
            rot, boost = _sph_vec(tl, tm, thetas), _jac_vec(tl, tm, taus)
            for row, tn in enumerate(labels):
                m, n = half(tm), half(tn)
                for i, th in enumerate(thetas):
                    assert sph_p(l, m, n, th) == rot[row, i]
                    want = ipow((tm - tn) // 2) * rot[row, i]
                    assert wigner_d(l, m, n, th) == want.real
                for j, ta in enumerate(taus):
                    # jac_p(l, m, n) is row m of label n's tabulation, and
                    # by symmetry row n of label m's.
                    assert jac_p(l, m, n, ta) == boost[row, j]
                    assert jac_p(l, n, m, ta) == boost[row, j]
        for tm, tn in ((7, -3), (1, 1), (-7, 5)):
            m, n = half(tm), half(tn)
            series = z_series_grid(l, m, n, thetas, taus)
            grid = z_grid(l, m, n, thetas, taus)
            for i, th in enumerate(thetas):
                for j, ta in enumerate(taus):
                    assert z_series(l, m, n, th, ta) == series[i, j]
                    assert z_factorized(l, m, n, th, ta) == grid[i, j]
