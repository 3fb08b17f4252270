"""Tests for the separated radial systems and their diagnostics."""

import dataclasses
import warnings

import numpy as np
import pytest

from helirep.gelfand_yaglom import (
    CoeffTable,
    RepChain,
    build_system,
    dirac_system,
)
from helirep import radial
from helirep.gelfand_yaglom import system_from_config
from helirep.halfint import half
from helirep.radial import (
    RadialSolution,
    _peaks,
    _zero_crossings,
    assemble_rfs,
    bessel_probe,
    convergence_order,
    integrate,
    residual,
)

DIRAC_INIT = np.array([1.0, 0.0, 1j, 0.0])


def dirac_radial(variant="alt", kappa=1.0):
    return assemble_rfs(dirac_system(kappa=kappa), "1/2", "1/2", variant=variant)


class TestAssembly:
    def test_derivative_matrix_is_twice_longitudinal(self):
        system = dirac_system()
        for variant in ("printed", "alt"):
            rs = assemble_rfs(system, "1/2", "1/2", variant=variant)
            assert np.array_equal(rs.plain.deriv, 2 * system.lambda3.data)
            assert np.array_equal(rs.conjugate.deriv, 2 * system.lambda3c.data)

    def test_dirac_inverse_radius_matrix_printed(self):
        rs = dirac_radial("printed")
        expected = np.array(
            [
                [0.0, 0.0, -0.5, -1j],
                [0.0, 0.0, 0.0, 0.5],
                [0.5, 1j, 0.0, 0.0],
                [0.0, -0.5, 0.0, 0.0],
            ]
        )
        assert np.array_equal(rs.plain.inv_r, expected)

    def test_alt_variant_flips_only_the_diagonal_signs(self):
        printed = dirac_radial("printed").plain.inv_r
        alt = dirac_radial("alt").plain.inv_r
        cross = np.abs(printed.imag) > 0
        assert np.array_equal(alt[cross], printed[cross])
        diag = ~cross
        assert np.array_equal(alt[diag], -printed[diag])

    def test_basis_order(self):
        rs = dirac_radial()
        assert [str(x) for x in rs.plain.labels] == [
            "[0](1/2,1/2)",
            "[0](1/2,-1/2)",
            "[1](1/2,1/2)",
            "[1](1/2,-1/2)",
        ]

    def test_extreme_spectator_kills_raising_cross_terms(self):
        # default projection sits at the top of the spectator ladder, so
        # every (m+1)-neighbor coupling carries a vanishing factor
        rs = dirac_radial("printed")
        c = rs.plain.inv_r
        assert c[1, 2] == 0.0 and c[3, 0] == 0.0

    def test_bottom_spectator_kills_lowering_cross_terms(self):
        rs = assemble_rfs(dirac_system(), "1/2", "1/2", mdot="-1/2")
        c = rs.plain.inv_r
        assert c[0, 3] == 0.0 and c[2, 1] == 0.0
        assert c[1, 2] != 0.0 and c[3, 0] != 0.0

    def test_trivial_single_irrep_zero_coefficients(self):
        system = build_system(RepChain([("1/2", "1/2")]), CoeffTable({}, {}), kappa=2.0)
        rs = assemble_rfs(system, 1, 1)
        assert np.all(rs.plain.deriv == 0)
        assert np.all(rs.plain.inv_r == 0)
        assert rs.plain.kappa == 2.0 + 0j

    def test_assembly_linear_in_coefficients(self):
        chain = RepChain([("1/2", "0"), ("0", "1/2")])
        one = CoeffTable({(0, 1, "1/2", "1/2"): 0.3 + 0.1j}, {})
        two = CoeffTable({(0, 1, "1/2", "1/2"): 0.6 + 0.2j}, {})
        sys_one = build_system(chain, one)
        sys_two = build_system(chain, two)
        a = assemble_rfs(sys_one, "1/2", "1/2")
        b = assemble_rfs(sys_two, "1/2", "1/2")
        np.testing.assert_allclose(b.plain.deriv, 2 * a.plain.deriv, atol=1e-15)
        np.testing.assert_allclose(b.plain.inv_r, 2 * a.plain.inv_r, atol=1e-15)

    def test_neighbor_structure(self):
        rng = np.random.default_rng(7)
        chain = RepChain([("1/2", "1"), ("1", "1/2")])
        keys = {}
        for kp in range(2):
            for k in range(2):
                for lp in chain.reps[kp].tower_spins():
                    for l in chain.reps[k].tower_spins():
                        if abs(lp.twice - l.twice) <= 2:
                            keys[(kp, k, lp, l)] = complex(*rng.normal(size=2))
        system = build_system(chain, CoeffTable(keys, keys))
        rs = assemble_rfs(system, "3/2", "3/2", mdot="1/2", m="1/2")
        basis = rs.plain.labels
        coupled = np.abs(rs.plain.deriv) + np.abs(rs.plain.inv_r)
        for i, row in enumerate(basis):
            for j, col in enumerate(basis):
                if coupled[i, j] != 0:
                    assert abs(row.l.twice - col.l.twice) <= 2
                    assert abs(row.m.twice - col.m.twice) <= 2

    def test_ansatz_weight_must_dominate_chain(self):
        system = dirac_system()
        with pytest.raises(ValueError, match="dominate"):
            assemble_rfs(system, 0, "1/2")

    def test_spectator_projection_range(self):
        with pytest.raises(ValueError, match="projection"):
            assemble_rfs(dirac_system(), "1/2", "1/2", mdot="3/2")

    def test_spectator_projection_parity(self):
        # A projection of the wrong parity for its ansatz weight has no
        # ladder factors to speak of.
        with pytest.raises(ValueError, match="projection"):
            assemble_rfs(dirac_system(), 1, 1, mdot="1/2")
        with pytest.raises(ValueError, match="projection"):
            assemble_rfs(dirac_system(), 1, 1, m="-1/2")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            assemble_rfs(dirac_system(), "1/2", "1/2", variant="mixed")

    def test_coefficient_outside_chain(self):
        chain = RepChain([("1/2", "0"), ("0", "1/2")])
        bad = CoeffTable({(0, 1, "3/2", "1/2"): 1.0}, {})
        with pytest.raises(ValueError, match="absent"):
            assemble_rfs(build_system(chain, bad), "3/2", "3/2")

    def test_radial_assembly_checks_the_table(self):
        # A built system whose table is swapped afterwards reaches the
        # radial assembly without passing the generator assembly.
        bad = CoeffTable({}, {(0, 1, "3/2", "1/2"): 1.0})
        system = dataclasses.replace(dirac_system(), coeffs=bad)
        with pytest.raises(ValueError, match="conjugate coefficient targets "
                                             "tower .* absent"):
            assemble_rfs(system, "3/2", "3/2")


class _Solved(Exception):
    """Raised in place of the solve."""


class TestIntegrate:
    def test_zero_initial_data_stays_zero(self):
        rs = dirac_radial()
        sol = integrate(rs, 0.5, 60.0, np.zeros(4), 200)
        assert np.max(np.abs(sol.values)) == 0.0
        assert residual(rs, sol) == 0.0

    def test_grid_shape(self):
        rs = dirac_radial()
        sol = integrate(rs, 0.5, 10.0, DIRAC_INIT, 250)
        assert sol.grid.shape == (251,)
        assert sol.values.shape == (251, 4)
        assert sol.grid[0] == 0.5 and sol.grid[-1] == 10.0
        assert sol.sector == "plain" and sol.variant == "alt"

    def test_bounded_oscillation_for_real_kappa(self):
        rs = dirac_radial("alt")
        sol = integrate(rs, 0.5, 60.0, DIRAC_INIT, 4000)
        mags = np.abs(sol.values[:, 0])
        assert mags[-1] < mags[0]
        assert np.all(np.isfinite(sol.values))

    def test_deterministic(self):
        rs = dirac_radial()
        a = integrate(rs, 0.5, 30.0, DIRAC_INIT, 500)
        b = integrate(rs, 0.5, 30.0, DIRAC_INIT, 500)
        assert np.array_equal(a.values, b.values)

    def test_halving_tolerance_barely_moves_endpoint(self):
        rs = dirac_radial()
        a = integrate(rs, 0.5, 60.0, DIRAC_INIT, 1000).values[-1]
        b = integrate(rs, 0.5, 60.0, DIRAC_INIT, 1000, rtol=5e-11).values[-1]
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-7

    def test_singular_derivative_matrix_rejected(self):
        system = build_system(RepChain([("1/2", "1/2")]), CoeffTable({}, {}), kappa=2.0)
        rs = assemble_rfs(system, 1, 1)
        with pytest.raises(ValueError, match="normal form"):
            integrate(rs, 0.5, 2.0, np.zeros(rs.plain.dim), 100)

    def test_step_underflow_reports_last_radius(self):
        # a mass scale beyond floating-point resolution forces the
        # required step below the grid spacing of the radius itself
        rs = dirac_radial(kappa=1e20)
        with pytest.raises(RuntimeError, match="stalled at r ="):
            integrate(rs, 0.5, 60.0, DIRAC_INIT, 100)

    def test_input_validation(self):
        rs = dirac_radial()
        with pytest.raises(ValueError, match="r0 > 0"):
            integrate(rs, 0.0, 1.0, DIRAC_INIT, 100)
        with pytest.raises(ValueError, match="r1 > r0"):
            integrate(rs, 2.0, 1.0, DIRAC_INIT, 100)
        for r0, r1 in ((0.5, float("nan")), (float("nan"), 1.0), (0.5, float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                integrate(rs, r0, r1, DIRAC_INIT, 100)
        with pytest.raises(ValueError, match="steps must be an integer >= 100"):
            integrate(rs, 0.5, 1.0, DIRAC_INIT, 50)
        with pytest.raises(ValueError, match="components"):
            integrate(rs, 0.5, 1.0, np.ones(3), 100)

    def test_values_bound(self, monkeypatch):
        # 250000 samples of 4 components are the 10^6 values an integration
        # may return; one sample more is refused before the grid is made.
        # The solver is replaced, so neither grid is integrated.
        def unsolved(*args, **kwargs):
            raise _Solved

        monkeypatch.setattr(radial, "solve_ivp", unsolved)
        with pytest.raises(ValueError, match="^250001 samples of 4 components "
                                             "exceed the 1000000 values"):
            integrate(dirac_radial(), 0.5, 60.0, DIRAC_INIT, 250000)
        with pytest.raises(_Solved):
            integrate(dirac_radial(), 0.5, 60.0, DIRAC_INIT, 249999)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_initial_vector_rejected(self, bad):
        # Refused before the solve: RK45 steps with a NaN step size for ever.
        init = DIRAC_INIT.copy()
        init[1] = bad
        with pytest.raises(ValueError, match="finite"):
            integrate(dirac_radial(), 0.5, 60.0, init, 100)


class TestResidual:
    def test_dirac_residual_small_both_variants(self):
        for variant, bound in (("printed", 5e-8), ("alt", 1e-7)):
            rs = dirac_radial(variant)
            sol = integrate(rs, 0.5, 60.0, DIRAC_INIT, 10000)
            assert residual(rs, sol) < bound

    def test_corrupted_sample_spikes(self):
        rs = dirac_radial()
        sol = integrate(rs, 0.5, 60.0, DIRAC_INIT, 2000)
        clean = residual(rs, sol)
        values = sol.values.copy()
        values[1000, 0] += 1e-3
        dirty = RadialSolution(sol.grid, values, sol.labels, sol.sector, sol.variant)
        assert residual(rs, dirty) > 1e3 * clean

    def test_nonuniform_grid_rejected(self):
        rs = dirac_radial()
        sol = integrate(rs, 0.5, 10.0, DIRAC_INIT, 200)
        warped = RadialSolution(
            sol.grid**1.01, sol.values, sol.labels, sol.sector, sol.variant
        )
        with pytest.raises(ValueError, match="uniform"):
            residual(rs, warped)


class TestConvergenceOrder:
    def test_dirac_order_at_least_four(self):
        rs = dirac_radial()
        report = convergence_order(rs, 0.5, 10.0, DIRAC_INIT, base_steps=200)
        assert report["order"] >= 4.0
        assert report["order"] < 7.0
        assert report["fine_diff"] < report["coarse_diff"]

    def test_input_validation(self):
        # The same radius and initial-vector checks as ``integrate``; a
        # NaN or infinite radius used to run without end.
        rs = dirac_radial()
        with pytest.raises(ValueError, match="r0 > 0"):
            convergence_order(rs, -1.0, 2.0, DIRAC_INIT)
        with pytest.raises(ValueError, match="r1 > r0"):
            convergence_order(rs, 0.5, 0.4, DIRAC_INIT)
        for r0, r1 in ((0.5, float("nan")), (float("nan"), 1.0), (0.5, float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                convergence_order(rs, r0, r1, DIRAC_INIT)
        with pytest.raises(ValueError, match="components"):
            convergence_order(rs, 0.5, 1.0, np.ones(3))
        # base_steps is checked before any solve: 0 used to divide by
        # zero, -5 surfaced the solver's own step error, and 2.5 ran.
        alt = dirac_radial("alt")
        for steps in (0, -5, 2.5):
            with pytest.raises(ValueError, match="base_steps"):
                convergence_order(alt, 0.5, 10.0, DIRAC_INIT, base_steps=steps)

    def test_base_steps_past_the_cap_refused_before_any_step(self, monkeypatch):
        # 10**9 would step for about 40 hours; 20 000 is the largest run.
        steps = []
        monkeypatch.setattr(radial, "_dp5_steps", lambda *args: steps.append(args))
        rs = dirac_radial()
        for bad in (20_001, 10**9):
            with pytest.raises(ValueError, match="^base_steps must be an integer "
                                                 f"between 1 and 20000, got {bad}$"):
                convergence_order(rs, 0.5, 2.0, DIRAC_INIT, base_steps=bad)
        assert steps == []

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_initial_vector_rejected(self, bad):
        init = DIRAC_INIT.copy()
        init[0] = bad
        with pytest.raises(ValueError, match="finite"):
            convergence_order(dirac_radial(), 0.5, 10.0, init)


class TestBesselProbe:
    def test_dirac_alt_variant_passes(self):
        rs = dirac_radial("alt")
        sol = integrate(rs, 0.5, 60.0, DIRAC_INIT, 10000)
        report = bessel_probe(sol)
        assert report["verdict"] == "pass"
        assert abs(report["envelope_exponent"] + 0.5) < 1e-6
        assert abs(report["wavelength_mean"] - 2 * np.pi) < 1e-6
        assert report["wavelength_drift"] < 1e-8
        assert report["periods"] == 9.0

    def test_dirac_printed_variant_grows(self):
        rs = dirac_radial("printed")
        sol = integrate(rs, 0.5, 60.0, DIRAC_INIT, 10000)
        report = bessel_probe(sol)
        assert report["verdict"] == "fail"
        assert abs(report["envelope_exponent"] - 0.5) < 1e-6

    def test_bessel_j0_oracle_passes(self):
        j0 = pytest.importorskip("scipy.special").j0
        r = np.linspace(0.5, 60.0, 4000)
        sol = RadialSolution(r, j0(r).astype(complex)[:, None], ("j0",), "plain", "printed")
        report = bessel_probe(sol)
        assert report["verdict"] == "pass"
        assert abs(report["envelope_exponent"] + 0.5) < 0.01

    def test_pure_exponential_decay_fails(self):
        r = np.linspace(0.5, 60.0, 4000)
        sol = RadialSolution(
            r, np.exp(-0.3 * r).astype(complex)[:, None], ("e",), "plain", "printed"
        )
        report = bessel_probe(sol)
        assert report["verdict"] == "fail"
        assert report["detail"] == "no oscillation detected"

    def test_wrong_envelope_power_fails(self):
        r = np.linspace(0.5, 60.0, 4000)
        sol = RadialSolution(
            r, (np.cos(r) / r).astype(complex)[:, None], ("c",), "plain", "printed"
        )
        report = bessel_probe(sol)
        assert report["verdict"] == "fail"
        assert report["envelope_exponent"] < -0.9

    def test_short_range_inconclusive(self):
        r = np.linspace(0.5, 6.0, 300)
        sol = RadialSolution(
            r,
            (np.cos(r) / np.sqrt(r)).astype(complex)[:, None],
            ("s",),
            "plain",
            "printed",
        )
        report = bessel_probe(sol)
        assert report["verdict"] == "inconclusive"
        assert report["periods"] < 3

    def test_zero_solution_has_no_oscillation(self):
        sol = integrate(dirac_radial("printed"), 0.5, 20.0, np.zeros(4), 200)
        assert not sol.values.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = bessel_probe(sol)
        assert report == {
            "component": "[0](1/2,1/2)", "sector": "plain", "variant": "printed",
            "verdict": "fail", "detail": "no oscillation detected", "periods": 0.0,
            "envelope_exponent": None, "wavelength_drift": None,
        }

    @pytest.mark.parametrize("sector", ["plain", "conjugate"])
    @pytest.mark.parametrize("variant", ["printed", "alt"])
    def test_imaginary_init_reads_as_the_real_one(self, variant, sector):
        """The Dirac radial system is real, so the 1j init's solution is
        exactly 1j times the 1 init's, with an all-zero real part."""
        rs = dirac_radial(variant)
        real, imag = (integrate(rs, 0.5, 60.0, [scale, 0, 0, 0], 2000, sector)
                      for scale in (1.0, 1j))
        assert np.array_equal(imag.values, 1j * real.values)
        assert not imag.values.real.any()
        want = bessel_probe(real)
        assert want["periods"] == 9.0
        assert bessel_probe(imag) == want


def _crossings_by_loop(x, y):
    out = []
    for i in range(len(y) - 1):
        a, b = y[i], y[i + 1]
        if a == 0.0:
            out.append(x[i])
        elif a * b < 0:
            out.append(x[i] - a * (x[i + 1] - x[i]) / (b - a))
    return np.asarray(out)


def _peaks_by_loop(mag):
    return [i for i in range(1, len(mag) - 1)
            if mag[i] >= mag[i - 1] and mag[i] >= mag[i + 1]]


class TestProbeScans:
    """The array scans of ``bessel_probe`` against the per-sample loops
    they replace, on data with exact zeros, plateaus and NaN."""

    def samples(self, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.01, 1.0, 400))
        y = np.round(rng.normal(size=400), 1)  # ties and exact zeros
        y[rng.integers(0, 400, 40)] = 0.0
        y[rng.integers(0, 400, 5)] = np.nan
        return x, y

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_crossings_match_the_loop(self, seed):
        x, y = self.samples(seed)
        got, want = _zero_crossings(x, y), _crossings_by_loop(x, y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_zero_crossings_edge_cases(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert _zero_crossings(x, np.array([0.0, 0.0, 0.0, 0.0])).tolist() == [0.0, 1.0, 2.0]
        assert _zero_crossings(x, np.array([1.0, -1.0, 1.0, 0.0])).tolist() == [0.5, 1.5]
        assert _zero_crossings(x[:1], np.array([0.0])).size == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_peaks_match_the_loop(self, seed):
        _, y = self.samples(seed)
        mag = np.abs(y)
        assert _peaks(mag).tolist() == _peaks_by_loop(mag)

    def test_probe_report_is_unchanged_on_a_plateau_signal(self):
        r = np.linspace(0.5, 60.0, 10001)
        y = np.round(np.cos(r) / np.sqrt(r), 3)  # flat peaks, exact zeros
        sol = RadialSolution(r, y.astype(complex)[:, None], ("p",), "plain", "printed")
        report = bessel_probe(sol)
        crossings = _crossings_by_loop(r, y)
        assert report["periods"] == (len(crossings) - 1) / 2.0
        wavelengths = np.diff(crossings) * 2.0
        assert report["wavelength_mean"] == float(np.mean(wavelengths))
        peaks = _peaks_by_loop(np.abs(y))
        slope = np.polyfit(np.log(r[peaks]), np.log(np.abs(y)[peaks]), 1)[0]
        assert report["envelope_exponent"] == float(slope)


KAPPA_CONFIG = {
    "reps": [{"l1": "1/2", "l2": "0"}, {"l1": "0", "l2": "1/2"}],
    "coeffs": [
        {"from": 2, "to": 1, "lp": "1/2", "l": "1/2", "re": 1.0, "im": 0.0},
        {"from": 1, "to": 2, "lp": "1/2", "l": "1/2", "re": -1.0, "im": 0.0},
    ],
}


class TestSolverMatchesScipy:
    """``radial.solve_ivp`` takes scipy RK45's steps bit for bit: the same
    samples, right-hand-side count, status and message."""

    def check(self, rs, init, r0, r1, sector="plain", **options):
        _, r0, r1, start, rhs = radial._prepare(rs, r0, r1, init, sector)
        return self.match(rhs, r0, r1, start, **options)

    def match(self, rhs, r0, r1, start, **options):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        ours = radial.solve_ivp(rhs, (r0, r1), start, **options)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns when it raises rtol
            ref = scipy_integrate.solve_ivp(rhs, (r0, r1), start, method="RK45",
                                            **options)
        assert ours.t.tobytes() == np.asarray(ref.t, dtype=float).tobytes()
        assert ours.y.tobytes() == np.asarray(ref.y, dtype=float).tobytes()
        assert (ours.nfev, ours.success, ours.message) == (
            ref.nfev, ref.success, ref.message)
        return ours

    @pytest.mark.parametrize("variant", ["printed", "alt"])
    @pytest.mark.parametrize("sector", ["plain", "conjugate"])
    def test_cli_solves(self, variant, sector):
        # ``radial --chain dirac`` with its default grid and init
        rs = assemble_rfs(dirac_system(), "1/2", "1/2", variant=variant)
        ours = self.check(rs, [1, 0, 0, 0], 0.5, 60.0, sector,
                          t_eval=np.linspace(0.5, 60.0, 10001), rtol=1e-10, atol=1e-12)
        assert ours.success and ours.t.shape == (10001,)

    @pytest.mark.parametrize("variant", ["printed", "alt"])
    def test_verify_radial_init(self, variant):
        rs = assemble_rfs(dirac_system(), "1/2", "1/2", variant=variant)
        self.check(rs, DIRAC_INIT, 0.5, 60.0,
                   t_eval=np.linspace(0.5, 60.0, 10001), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("kappa", [[0.0, 400.0], [1e300, 1e300]],
                             ids=["kappa400", "kappa1e300"])
    def test_stall_and_overflow(self, kappa):
        rs = assemble_rfs(system_from_config({**KAPPA_CONFIG, "kappa": kappa}),
                          "1/2", "1/2")
        ours = self.check(rs, [1, 0, 0, 0], 0.5, 60.0,
                          t_eval=np.linspace(0.5, 60.0, 201), rtol=1e-10, atol=1e-12)
        assert not ours.success and ours.message == radial.STALL

    def test_kappa400_stalls_after_samples(self):
        # A grid fine enough that many steps before the stall (near
        # r = 2.25) reach samples, and the samples past it are dropped.
        rs = assemble_rfs(system_from_config({**KAPPA_CONFIG, "kappa": [0.0, 400.0]}),
                          "1/2", "1/2")
        ours = self.check(rs, [1, 0, 0, 0], 0.5, 60.0,
                          t_eval=np.linspace(0.5, 3.0, 4001), rtol=1e-10, atol=1e-12)
        assert not ours.success and 100 < ours.t.size < 4001

    # The dense output at sample layouts the Dirac CLI grid never makes.
    DENSE_OPTIONS = dict(rtol=1e-10, atol=1e-12)

    def dirac_rhs(self):
        _, r0, r1, start, rhs = radial._prepare(dirac_radial("printed"), 0.5, 60.0,
                                                [1, 0, 0, 0], "plain")
        return rhs, r0, r1, start

    def test_single_sample_at_the_start(self):
        rhs, r0, r1, start = self.dirac_rhs()
        ours = self.match(rhs, r0, r1, start, t_eval=[r0], **self.DENSE_OPTIONS)
        assert ours.t.tolist() == [r0] and ours.y[:, 0].tolist() == start.tolist()

    def test_every_sample_inside_the_first_step(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rhs, r0, r1, start = self.dirac_rhs()
        first = scipy_integrate.solve_ivp(rhs, (r0, r1), start, method="RK45",
                                          **self.DENSE_OPTIONS).t[1]
        grid = np.linspace(r0, first, 9)
        ours = self.match(rhs, r0, r1, start, t_eval=grid, **self.DENSE_OPTIONS)
        assert ours.success and ours.t.size == 9

    @pytest.mark.parametrize("r1, samples", [(60.0, 5), (60.0, 37), (2.0, 30001)],
                             ids=["coarse5", "coarse37", "fine"])
    def test_grids_coarser_and_finer_than_the_steps(self, r1, samples):
        # Over (0.5, 60) the solver takes about 1650 steps, so most steps
        # reach no sample; over (0.5, 2) a step holds hundreds.
        rhs, r0, _, start = self.dirac_rhs()
        ours = self.match(rhs, r0, r1, start, t_eval=np.linspace(r0, r1, samples),
                          **self.DENSE_OPTIONS)
        assert ours.success and ours.t.size == samples

    def test_last_sample_before_the_end(self):
        rhs, r0, r1, start = self.dirac_rhs()
        grid = np.linspace(r0, 47.3, 700)
        ours = self.match(rhs, r0, r1, start, t_eval=grid, **self.DENSE_OPTIONS)
        assert ours.success and ours.t.tolist() == grid.tolist()

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_seeded_linear_systems(self, dim):
        # y' = (P/t + Q) y with seeded real P and Q, as the radial
        # normal form is, at the dimensions of small and large chains.
        rng = np.random.default_rng(1000 + dim)
        p, q = rng.normal(scale=0.5, size=(2, dim, dim))
        start = rng.normal(size=dim)

        def rhs(t, y):
            return (p / t + q).dot(y)

        grid = np.sort(rng.uniform(0.3, 4.0, 60))
        ours = self.match(rhs, 0.3, 4.0, start, t_eval=grid, rtol=1e-8, atol=1e-10)
        assert ours.success and ours.t.size == 60

    # On y' = -y over (0, 1) scipy's RK45 refuses each of these.
    @pytest.mark.parametrize("t_eval, message", [
        ([-0.5, 0.0, 0.5, 1.0], "not within"),
        ([0.5, 1.0, 1.5], "not within"),
        ([1.0, 0.5, 0.0], "not properly sorted"),
        ([0.0, 0.5, 0.5, 1.0], "not properly sorted"),
        ([[0.0, 0.5]], "1-dimensional"),
    ], ids=["before_start", "past_end", "decreasing", "repeated", "two_dimensional"])
    def test_refuses_samples_scipy_refuses(self, t_eval, message):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        with pytest.raises(ValueError, match=message):
            scipy_integrate.solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="RK45",
                                      t_eval=t_eval)
        with pytest.raises(ValueError, match=message):
            radial.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.ones(1), t_eval=t_eval)

    def test_refuses_a_nan_sample(self):
        # scipy lets a NaN point through and drops it from the output;
        # a NaN lies in no interval, so it is refused with the span.
        with pytest.raises(ValueError, match="not within"):
            radial.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.ones(1),
                             t_eval=[0.0, np.nan])

    def test_nan_step_size_stalls(self):
        # A NaN derivative makes the first step size NaN; RK45 would keep
        # stepping with it for ever.
        result = radial.solve_ivp(lambda t, y: np.full_like(y, np.nan), (0.0, 1.0),
                                  np.ones(2), t_eval=np.linspace(0.0, 1.0, 5))
        assert not result.success and result.message == radial.STALL
        assert result.t.size == 0 and result.y.shape == (2, 0)
        assert result.nfev == 2

    def test_rtol_below_the_floor_is_raised_to_it(self):
        # scipy raises rtol to 100 eps; the loop must too
        grid = np.linspace(0.5, 20.0, 1001)
        low = self.check(dirac_radial(), DIRAC_INIT, 0.5, 20.0, t_eval=grid,
                         rtol=1e-20, atol=1e-12)
        floor = self.check(dirac_radial(), DIRAC_INIT, 0.5, 20.0, t_eval=grid,
                           rtol=100 * np.finfo(float).eps, atol=1e-12)
        assert low.success and low.y.tobytes() == floor.y.tobytes()


class TestFixedStepLoop:
    """The order runs of ``convergence_order``: plain Dormand-Prince 5
    steps of one size, with no step control."""

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_calls_and_stage_radii(self, n):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        radial._dp5_steps(rhs, 0.5, np.ones(3), 0.25, n)
        assert len(calls) == 6 * n + 1
        # five stages, then the end point, whose slope the next step reuses
        c = [1/5, 3/10, 4/5, 8/9, 1, 1]
        want = [0.5] + [0.5 + i * 0.25 + ci * 0.25 for i in range(n) for ci in c]
        assert calls == want

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_matches_the_stability_polynomial(self, n):
        # On y' = A y one step is y -> R(hA) y with the DP5 stability
        # polynomial R(z) = sum_{k<=5} z^k/k! + z^6/600.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        y0 = rng.normal(size=4)
        h = 0.05
        z = h * a
        power, r = np.eye(4), np.eye(4)
        for k in range(1, 6):
            power = power @ z / k
            r = r + power
        r = r + np.linalg.matrix_power(z, 6) / 600
        want = np.linalg.matrix_power(r, n) @ y0
        got = radial._dp5_steps(lambda t, y: a @ y, 0.0, y0, h, n)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_order_runs_make_6n_plus_1_calls_each(self, monkeypatch):
        counts = []
        steps = radial._dp5_steps

        def counted(fun, t0, y0, h, n):
            calls = []

            def rhs(t, y):
                calls.append(t)
                return fun(t, y)

            out = steps(rhs, t0, y0, h, n)
            counts.append((n, len(calls)))
            return out

        monkeypatch.setattr(radial, "_dp5_steps", counted)
        convergence_order(dirac_radial(), 0.5, 10.0, DIRAC_INIT, base_steps=200)
        assert counts == [(200, 1201), (400, 2401), (800, 4801)]


class TestConjugateSector:
    def test_dirac_conjugate_mirrors_plain(self):
        rs = dirac_radial("alt")
        sol = integrate(rs, 0.5, 60.0, DIRAC_INIT, 10000, sector="conjugate")
        assert residual(rs, sol) < 1e-7
        report = bessel_probe(sol)
        assert report["sector"] == "conjugate"
        assert report["verdict"] == "pass"

    def test_independent_mass_parameters(self):
        system = dirac_system(kappa=1.0, kappa_dot=2.0)
        rs = assemble_rfs(system, "1/2", "1/2", variant="alt")
        assert rs.plain.kappa == 1.0 + 0j
        assert rs.conjugate.kappa == 2.0 + 0j
        sol = integrate(rs, 0.5, 60.0, DIRAC_INIT, 4000, sector="conjugate")
        report = bessel_probe(sol)
        # twice the mass, half the wavelength
        assert abs(report["wavelength_mean"] - np.pi) < 1e-6
