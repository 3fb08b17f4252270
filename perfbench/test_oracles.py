"""Tests of the benchmark's own reference computations and tracer.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as orc  # noqa: E402
import tracer as tracing  # noqa: E402
from helirep.core import GroupPoint  # noqa: E402
from helirep.halfint import HalfInt  # noqa: E402
from helirep.hyperspherical import fundamental_matrix, z_factorized  # noqa: E402

ANGLES = [(0.0, 0.0), (0.4, -1.3), (1.9, 0.7), (3.0, 2.0), (math.pi / 2, -2.0)]


@pytest.mark.parametrize("theta,tau", ANGLES)
def test_z_oracle_is_the_fundamental_matrix_at_spin_half(theta, tau):
    closed = fundamental_matrix(GroupPoint(theta=theta, tau=tau))
    for tm in (1, -1):
        for tn in (1, -1):
            want = closed.at(HalfInt.from_twice(tm), HalfInt.from_twice(tn))
            assert abs(orc.z_exact(1, tm, tn, theta, tau) - want) <= 1e-15
            table = orc.z_table(1, tm, tn, [theta], [tau])
            assert abs(table[0, 0] - want) <= 1e-15


def test_z_table_agrees_with_mpmath_at_spin_twenty():
    thetas, taus = np.array([0.3, 1.7, 3.1]), np.array([-2.0, 0.1, 1.5])
    table = orc.z_table(40, 6, -14, thetas, taus)
    for i, theta in enumerate(thetas):
        for j, tau in enumerate(taus):
            exact = orc.z_exact(40, 6, -14, theta, tau)
            assert abs(table[i, j] - exact) <= 1e-12 * orc.z_scale(40, tau)


def test_z_oracle_is_a_homomorphism_in_theta():
    # Rotations about one axis compose: Z(a) Z(b) = Z(a + b) at tau = 0.
    tl = 5
    labels = range(tl, -tl - 1, -2)
    z = {t: np.array([[orc.z_exact(tl, m, n, t, 0.0) for n in labels] for m in labels])
         for t in (0.3, 0.9, 1.2)}
    assert np.max(np.abs(z[0.3] @ z[0.9] - z[1.2])) <= 1e-14


def test_clebsch_gordan_reference_and_factor():
    assert orc.cg_reference(1, 1, 2, 1, -1, 0) == pytest.approx(math.sqrt(0.5), abs=1e-16)
    assert orc.cg_reference(1, 1, 0, 1, -1, 0) == pytest.approx(math.sqrt(0.5), abs=1e-16)
    assert orc.cg_hyp_factor(1, 1, 2) == pytest.approx(math.sqrt(3.0))


def test_reachable_permutations_are_the_mahonian_counts():
    # Words of length <= 4 reach the permutations of 4 points with at most
    # 4 inversions: 1 + 3 + 5 + 6 + 5.
    assert orc.reachable_permutations(3, 4) == 20
    assert orc.reachable_permutations(2, 4) == 6


def test_angular_momentum_closes():
    js = orc.angular_momentum(((4, 3), (3, 4)))
    assert np.max(np.abs(js[0] @ js[1] - js[1] @ js[0] - 1j * js[2])) <= 1e-12
    # The J triple is itself a vector operator.
    assert orc.vector_operator_residual(js, js) <= 1e-12


def test_strict_json_rejects_non_finite_numbers():
    assert orc.strict_json('{"a": [1.5, -2]}') == {"a": [1.5, -2]}
    for text in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            orc.strict_json(text)


def test_tracer_self_times_add_up_and_uninstall_restores():
    import helirep.hyperspherical as hs

    original = hs.z_factorized
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hs.z_factorized is not original
        assert hs.sph_p.__wrapped__ is not None
        tracer.begin_round()
        z_factorized_traced = hs.z_factorized(HalfInt(2), 1, -1, 2.5, 0.3)
        hs.z_factorized(HalfInt(2), 1, -1, 0.5, 0.3)
    finally:
        tracer.uninstall()
    assert hs.z_factorized is original
    assert z_factorized_traced == z_factorized(HalfInt(2), 1, -1, 2.5, 0.3)
    calls, self_s = tracer.layer_totals()
    assert calls["hyperspherical"] == 2
    assert sum(self_s.values()) == pytest.approx(tracer.top_s, rel=1e-9)
    assert tracer.counts["hyperspherical.scalar_evals"] == 2
    assert tracer.counts["hyperspherical.repeat_keys"] == 1
    assert tracer.counts["su2.reflections"] > 0
