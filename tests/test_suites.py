"""Contract tests for the named verification suites."""

import pytest

from helirep.gelfand_yaglom import CoeffTable, RepChain, build_system
from helirep.suites import DEFAULT_TOLERANCES, SUITES, run_suite


class TestRunSuite:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_suite_passes_at_default_tolerance(self, name):
        report = run_suite(name)
        assert report["suite"] == name
        assert report["tolerance"] == DEFAULT_TOLERANCES[name]
        assert report["checks"]
        for row in report["checks"]:
            assert set(row) == {"name", "residual", "tol", "ok"}
        assert report["max_residual"] <= report["tolerance"]
        assert report["ok"] is True

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suite("nonsense")

    def test_tolerance_override_can_fail_a_suite(self):
        report = run_suite("cg", tol=1e-30)
        assert report["tolerance"] == 1e-30
        assert report["ok"] is False

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"),
                                     float("-inf"), 0, -1])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # At inf no check could fail; at nan none could pass.
        with pytest.raises(ValueError, match="finite positive"):
            run_suite("cg", tol=tol)

    def test_chain_invariance_suite_takes_a_custom_system(self):
        chain = RepChain([("1/2", "1"), ("1", "1/2")])
        table = {
            (0, 1, "1/2", "1/2"): 0.8 + 0.1j,
            (1, 0, "3/2", "3/2"): -0.4j,
            (0, 0, "1/2", "3/2"): 0.25,
        }
        system = build_system(chain, CoeffTable(dict(table), dict(table)))
        report = run_suite("gy", system=system)
        assert report["ok"] is True
        names = [row["name"] for row in report["checks"]]
        assert not any("gamma" in n for n in names)
