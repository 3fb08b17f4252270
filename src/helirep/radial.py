"""Separated radial first-order systems and their numerical diagnostics.

Separating the angular dependence from a chain wave equation leaves,
per sector, a linear system  A f'(r) + C f(r)/r + kappa f(r) = 0  on
the chain components.  The derivative matrix A is twice the assembled
longitudinal matrix; the 1/r matrix C carries the printed diagonal and
ladder cross terms, the latter weighted by the opposite sector's
spectator ladder factors.  The printed diagonal signs are kept
literally under ``variant="printed"``; ``variant="alt"`` flips the
three diagonal 1/r signs for sensitivity runs (the source typesets a
dangling sign pair there, so both readings are kept on equal footing).

Diagnostics: adaptive integration, a finite-difference residual, a
fixed-step convergence-order estimate, and an asymptotics probe that
tests for cylinder-function behavior (envelope ~ r^(-1/2), constant
wavelength).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gelfand_yaglom import GYSystem, RepChain, _sector_index, _stretch
from .generators import _alpha
from .halfint import HalfInt, _weights
from .kernels import _finite, _int_arg

_VARIANTS = ("printed", "alt")


@dataclass(frozen=True)
class RadialBlock:
    """One sector's system  A f' + C f/r + kappa f = 0."""

    labels: tuple
    deriv: np.ndarray
    inv_r: np.ndarray
    kappa: complex

    @property
    def dim(self):
        return len(self.labels)


@dataclass(frozen=True)
class RadialSystem:
    """Both sectors of the separated system for one ansatz weight pair."""

    chain: RepChain
    l0: HalfInt
    l0_dot: HalfInt
    variant: str
    plain: RadialBlock
    conjugate: RadialBlock

    def block(self, sector):
        return (self.plain, self.conjugate)[_sector_index(sector)]


@dataclass(frozen=True)
class RadialSolution:
    """Samples of one sector's components on an increasing radius grid."""

    grid: np.ndarray
    values: np.ndarray
    labels: tuple
    sector: str
    variant: str


# 1/r weights by tower step (target tower = source tower + step): the
# diagonal coefficient as a function of the target spin, then the signs
# of the raising and the lowering cross term.
_INV_R = {
    1: (lambda l: -(l + 1), 1, 1),
    0: (lambda l: -1, -1, 1),
    -1: (lambda l: l, -1, -1),
}


def _assemble_block(chain, table, lambda3, kappa, spec_l, spec_m, variant,
                    sector):
    """One sector's block: A is twice the sector's longitudinal matrix;
    C stretches the table through `gelfand_yaglom._stretch` with the 1/r
    weight of each tower step, the cross terms scaled by the spectator's
    lowering and raising ladder factors."""
    down, up = _alpha(spec_l, spec_m), _alpha(spec_l, spec_m + 1)
    flip = -1.0 if variant == "alt" else 1.0

    def weight(step, lr, links):
        diag, plus, minus = _INV_R[step]
        vp, vm, v3 = links
        return flip * diag(float(lr)) * v3 + 1j * (
            plus * down * vp + minus * up * vm)

    return RadialBlock(lambda3.row_labels, 2 * lambda3.data,
                       _stretch(chain, table, sector, weight), complex(kappa))


def assemble_rfs(system: GYSystem, l0, l0_dot, variant="printed", mdot=None, m=None):
    """Radial system for the ansatz weights (l0, l0_dot).

    Each chain component (k, l, m) contributes one equation per sector;
    neighbors are the towers l-1, l, l+1 and projections m-1, m, m+1,
    with the cross terms carrying the spectator ladder factors of the
    opposite sector's weight (projection ``mdot`` resp. ``m``, both
    defaulting to the extreme value, where the raising factor dies).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    l0, m = _weights(l0, l0 if m is None else m)
    l0_dot, mdot = _weights(l0_dot, l0_dot if mdot is None else mdot)
    top = system.chain.top_spin
    if l0 < top or l0_dot < top:
        raise ValueError(
            "ansatz weights must dominate every tower spin of the chain"
        )
    plain = _assemble_block(
        system.chain, system.coeffs.undotted, system.lambda3, system.kappa,
        l0_dot, mdot, variant, "plain",
    )
    conjugate = _assemble_block(
        system.chain, system.coeffs.dotted, system.lambda3c, system.kappa_dot,
        l0, m, variant, "conjugate",
    )
    return RadialSystem(system.chain, l0, l0_dot, variant, plain, conjugate)


def _normal_form(block):
    """M(r) pieces with  f' = -(A^-1 C)/r f - kappa A^-1 f."""
    cond = np.linalg.cond(block.deriv)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            "derivative matrix is singular — the system has no normal form"
        )
    a_inv = np.linalg.inv(block.deriv)
    return -a_inv @ block.inv_r, -block.kappa * a_inv


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math.
# 6, 1980) with Shampine's quartic dense output (Math. Comp. 46, 1986),
# spelled as scipy's RK45 spells them, so that the loop below takes
# RK45's steps and prints RK45's samples bit for bit.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_STAGES = tuple(zip(_C[1:].tolist(), (_A[s, :s] for s in range(1, 6))))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 5
_MIN_RTOL = 100 * np.finfo(float).eps
STALL = "Required step size is less than spacing between numbers."
_DONE = "The solver successfully reached the end of the integration interval."
_MAX_VALUES = 10 ** 6  # integrate's samples times components: 16 MB complex
# convergence_order's base_steps: its three runs take 7 * base_steps steps,
# 3 to 5 s at the cap on the Dirac system over 0.5..2 (2-core Xeon VM).
_MAX_BASE_STEPS = 20_000


@dataclass(frozen=True)
class IVPResult:
    """Samples ``y[:, i]`` at the ``t_eval`` points ``t[i]`` reached."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(x):
    # np.linalg.norm's own sum for a real vector, kept a numpy scalar so
    # that a zero denominator downstream gives inf, not ZeroDivisionError.
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, interval, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (Sec. II.4), as RK45 picks it."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _dp5_stepper(n):
    """Stage storage K for an n-component system, and the one Dormand-Prince
    5 step that fills it: ``advance(fun, t, y, f, h)`` with f = fun(t, y)
    leaves the six stage slopes in K[:6] and returns (y_new, fun(t + h,
    y_new)).  The views each stage reads, and the row it writes, are made
    once, here.

    Every product is the ndarray ``.dot`` method: the BLAS call that
    ``np.dot`` and ``@`` make, with less dispatch around it, so the stage
    sums keep their bits; the scalar arithmetic on t and h is the same
    IEEE double arithmetic on Python floats."""
    K = np.empty((len(_C) + 1, n))
    stages = [(c, s, K[:s].T, a) for s, (c, a) in enumerate(_STAGES, start=1)]
    K_steps = K[:-1].T

    def advance(fun, t, y, f, h):
        K[0] = f
        for c, s, k, a in stages:
            K[s] = fun(t + c * h, y + k.dot(a) * h)
        y_new = y + h * K_steps.dot(_B)
        return y_new, fun(t + h, y_new)

    return K, advance


def _sample_points(t_eval, t0, t_bound):
    """``t_eval`` as a strictly increasing 1-D array inside [t0, t_bound],
    or the ValueError scipy's solve_ivp raises (a NaN point is outside)."""
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1:
        raise ValueError("`t_eval` must be 1-dimensional.")
    if np.count_nonzero((t_eval >= t0) & (t_eval <= t_bound)) != t_eval.size:
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if np.count_nonzero(np.diff(t_eval) > 0) != t_eval.size - 1:
        raise ValueError("Values in `t_eval` are not properly sorted.")
    return t_eval


def _dense_output(t_out, steps, n):
    """Shampine's quartic through each step, at that step's samples.

    ``steps`` holds (Q, t_old, h, y_old, stop) of each step that reached
    a sample, with Q = K^T P from its stages; the step takes the samples
    t_out[lo:stop] after the previous step's stop.  x = (t - t_old) / h
    and its powers are elementwise, so one pass over all samples gives
    each the bits its own step gives it; the products stay one per step,
    as RK45 makes them."""
    y_out = np.empty((n, t_out.size))
    if steps:
        qs, t_olds, hs, y_olds, stops = zip(*steps)
        counts = np.diff(stops, prepend=0)
        x = (t_out - np.repeat(t_olds, counts)) / np.repeat(hs, counts)
        powers = x[None].repeat(4, axis=0).cumprod(axis=0)
        lo = 0
        for q, h, y_old, hi in zip(qs, hs, y_olds, stops):
            y_out[:, lo:hi] = h * q.dot(powers[:, lo:hi]) + y_old[:, None]
            lo = hi
    return y_out


def solve_ivp(fun, t_span, y0, t_eval, rtol=1e-3, atol=1e-6):
    """Adaptive Dormand-Prince 5(4) integration of y' = fun(t, y), y0 not
    empty, forward over ``t_span`` = (t0, t1 > t0), with RK45's step
    control, error norm and dense output at the ``t_eval`` points, which
    must increase strictly and lie in ``t_span`` (ValueError otherwise).

    The step loop keeps only what needs a step's stages: the step itself,
    its error norm, and, for a step that reaches a sample, Q = K^T P, t_old,
    h, y_old and the index of its last sample.  The dense output of every
    sample is written after the loop, in the same operations per sample
    (see `_dense_output`), so the samples keep RK45's bits.

    `integrate` calls it by this module attribute.  An overflow on the
    way ends in a stall or non-finite samples, each reported by the
    caller, so numpy's warnings during the solve say nothing more."""
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    t_eval = _sample_points(t_eval, t, t_bound)
    if rtol < _MIN_RTOL:
        rtol = np.maximum(rtol, _MIN_RTOL)
    n = y.size
    K, advance = _dp5_stepper(n)
    K_all = K.T
    steps = []
    done = 0
    y_abs = np.abs(y)
    with np.errstate(over="ignore", invalid="ignore"):
        f = fun(t, y)
        h_abs = float(_initial_step(fun, t, y, f, t_bound - t, rtol, atol))
        nfev = 2
        status = None
        while status is None:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                # RK45 stalls on h_abs < min_step; a NaN step size, which
                # never recovers, stalls too instead of looping for ever.
                if not h_abs >= min_step:
                    status = -1
                    break
                t_new = t + h_abs
                if t_new - t_bound > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = abs(h)
                y_new, f_new = advance(fun, t, y, f, h)
                K[-1] = f_new
                nfev += 6
                y_new_abs = np.abs(y_new)
                scale = atol + np.maximum(y_abs, y_new_abs) * rtol
                # A Python float: no power below is taken of a zero norm.
                error_norm = float(_rms(K_all.dot(_E) * h / scale))
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR,
                                     _SAFETY * error_norm ** _EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                rejected = True
            if status == -1:
                break
            t_old, y_old, t, y, f, y_abs = t, y, t_new, y_new, f_new, y_new_abs
            if t - t_bound >= 0:
                status = 0
            stop = t_eval.searchsorted(t, side="right")
            if stop > done:
                steps.append((K_all.dot(_P), t_old, h, y_old, stop))
                done = stop
        t_out = t_eval[:done].copy()
        y_out = _dense_output(t_out, steps, n)
    return IVPResult(t_out, y_out, nfev, status == 0, _DONE if status == 0 else STALL)


def _real_split(mat):
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _prepare(system, r0, r1, init, sector):
    """The checked set-up of both integrators: the sector's block, float
    radii, and the real-split initial vector and normal-form right side."""
    block = system.block(sector)
    r0, r1 = float(r0), float(r1)
    _finite("radii", r0, r1)
    if r0 <= 0:
        raise ValueError("the radial origin is singular; need r0 > 0")
    if r1 <= r0:
        raise ValueError("need r1 > r0")
    init = np.asarray(init, dtype=complex)
    if init.shape != (block.dim,):
        raise ValueError(f"initial vector must have {block.dim} components")
    # A non-finite component makes every step size NaN, which the solver
    # could only report as a stall; it is an input error.
    _finite("initial vector components", init, dtype=complex)
    over_r_s, constant_s = map(_real_split, _normal_form(block))

    def rhs(r, z):
        return (over_r_s / r + constant_s).dot(z)

    return block, r0, r1, np.concatenate([init.real, init.imag]), rhs


def integrate(system: RadialSystem, r0, r1, init, steps, sector="plain",
              rtol=1e-10, atol=1e-12):
    """Adaptive 4th/5th-order integration on a uniform output grid of
    steps + 1 samples (steps >= 100), at most _MAX_VALUES values in all."""
    block, r0, r1, start, rhs = _prepare(system, r0, r1, init, sector)
    steps = _int_arg("steps", steps, 100)
    if (steps + 1) * block.dim > _MAX_VALUES:
        raise ValueError(f"{steps + 1} samples of {block.dim} components exceed "
                         f"the {_MAX_VALUES} values an integration returns")
    grid = np.linspace(r0, r1, steps + 1)
    result = solve_ivp(rhs, (r0, r1), start, t_eval=grid, rtol=rtol, atol=atol)
    if not result.success:
        last = result.t[-1] if len(result.t) else r0
        raise RuntimeError(
            f"integration stalled at r = {last:.6g}: {result.message}"
        )
    values = (result.y[: block.dim] + 1j * result.y[block.dim:]).T
    if not np.all(np.isfinite(values)):
        raise RuntimeError("integration produced non-finite samples")
    return RadialSolution(grid, values, block.labels, sector, system.variant)


def residual(system: RadialSystem, solution: RadialSolution):
    """Max equation defect on the interior grid, derivatives by
    five-point fourth-order central differences."""
    block = system.block(solution.sector)
    r = solution.grid
    f = solution.values
    h = r[1] - r[0]
    if np.max(np.abs(np.diff(r) - h)) > 1e-9 * h:
        raise ValueError("residual needs a uniform grid")
    df = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12.0 * h)
    mid = f[2:-2]
    mid_r = r[2:-2, None]
    defect = (
        df @ block.deriv.T
        + (mid / mid_r) @ block.inv_r.T
        + block.kappa * mid
    )
    return float(np.max(np.abs(defect))) if defect.size else 0.0


def _dp5_steps(fun, t0, y0, h, n):
    """``n`` plain Dormand-Prince 5 steps of size ``h`` from ``t0``: the
    stages of step i sit at t0 + i*h + c*h, and ``fun`` is called 6n + 1
    times (each step's last stage is the next one's first)."""
    _, advance = _dp5_stepper(y0.size)
    y, f = y0, fun(t0, y0)
    for i in range(n):
        y, f = advance(fun, t0 + i * h, y, f, h)
    return y


def convergence_order(system: RadialSystem, r0, r1, init, sector="plain",
                      base_steps=400):
    """Richardson order estimate from three fixed-step Dormand-Prince runs
    of base_steps (at most _MAX_BASE_STEPS), twice and four times as many
    steps."""
    base_steps = _int_arg("base_steps", base_steps, 1, _MAX_BASE_STEPS)
    _, r0, r1, start, rhs = _prepare(system, r0, r1, init, sector)
    # Runs that overflow give infinite or NaN differences, and so a
    # non-finite order, which is the report; the runs need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        y1, y2, y3 = (_dp5_steps(rhs, r0, start, (r1 - r0) / n, n)
                      for n in (base_steps, 2 * base_steps, 4 * base_steps))
        d12 = float(np.linalg.norm(y1 - y2))
        d23 = float(np.linalg.norm(y2 - y3))
    order = math.log2(d12 / d23) if d23 > 0 else float("inf")
    return {"order": order, "coarse_diff": d12, "fine_diff": d23}


def _zero_crossings(x, y):
    """Linear-interpolated zero crossings of y(x): x[i] where y[i] is an
    exact zero, else the secant root on each sign change y[i] -> y[i+1]."""
    a, b = y[:-1], y[1:]
    zero = a == 0.0
    cross = np.flatnonzero(a * b < 0)
    out = x[:-1].copy()
    out[cross] = x[cross] - a[cross] * (x[cross + 1] - x[cross]) / (
        b[cross] - a[cross])
    zero[cross] = True
    return out[zero]


def _peaks(mag):
    """Indices of the interior samples at least as large as both
    neighbors (a plateau counts every sample on it)."""
    inner = mag[1:-1]
    return np.flatnonzero((inner >= mag[:-2]) & (inner >= mag[2:])) + 1


def bessel_probe(solution: RadialSolution):
    """Cylinder-asymptotics check of the largest solution component.

    Fits the power-law exponent of the oscillation envelope and the
    constancy of the local wavelength, from the zero crossings of the
    real part (of the imaginary part if the real part is all zero).
    Verdicts: ``pass`` when the envelope exponent is -0.5 +- 0.1 and the
    wavelength drift is below five percent, ``fail`` otherwise, and
    ``inconclusive`` when fewer than three full oscillation periods are
    present (no oscillation at all, as in the zero solution, is a fail).
    """
    r = solution.grid
    component = int(np.argmax(np.max(np.abs(solution.values), axis=0)))
    y = solution.values[:, component]
    part = y.real if y.real.any() else y.imag
    crossings = _zero_crossings(r, part) if part.any() else ()
    report = {
        "component": str(solution.labels[component]),
        "sector": solution.sector,
        "variant": solution.variant,
    }
    if len(crossings) < 2:
        report.update(
            verdict="fail", detail="no oscillation detected",
            periods=0.0, envelope_exponent=None, wavelength_drift=None,
        )
        return report
    periods = (len(crossings) - 1) / 2.0
    report["periods"] = periods
    half_waves = np.diff(crossings)
    wavelengths = half_waves * 2.0
    report["wavelength_mean"] = float(np.mean(wavelengths))
    report["wavelength_drift"] = float(
        np.std(wavelengths) / np.mean(wavelengths)
    )
    if periods < 3:
        report.update(
            verdict="inconclusive",
            detail="fewer than three oscillation periods",
            envelope_exponent=None,
        )
        return report

    mag = np.abs(y)
    peaks = _peaks(mag)
    if len(peaks) >= 4:
        xs, ys = r[peaks], mag[peaks]
    else:
        keep = mag > 0
        xs, ys = r[keep], mag[keep]
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    report["envelope_exponent"] = float(slope)
    good = abs(slope + 0.5) <= 0.1 and report["wavelength_drift"] <= 0.05
    report["verdict"] = "pass" if good else "fail"
    report["detail"] = "cylinder asymptotics" if good else (
        "envelope or wavelength outside cylinder-function bounds"
    )
    return report
