"""Tests for the terminating-series kernels and the shared input gates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helirep import hyperspherical as hs
from helirep import su2
from helirep.clifford import (
    brauer_weyl,
    odd_direct_sum,
    schur_transpositions,
    transposition_homomorphism_report,
)
from helirep.cli import _parse_grid
from helirep.gelfand_yaglom import dirac_system
from helirep.halfint import HalfInt
from helirep.kernels import (
    PoleError,
    _column,
    _components,
    _finite,
    _horner,
    _int_arg,
    _ksum,
    _powers,
    _squares,
    _stack,
    ipow,
    ln_factorial,
    terminating_series,
)
from helirep.radial import assemble_rfs, convergence_order, integrate
from helirep.tensordec import bilinear_form, symmetrizer_one_row


class TestSmallHelpers:
    def test_ipow_cycle(self):
        assert [ipow(k) for k in range(4)] == [1, 1j, -1, -1j]
        assert ipow(-1) == -1j

    def test_ln_factorial(self):
        assert ln_factorial(10) == pytest.approx(math.log(math.factorial(10)))
        assert ln_factorial(0) == 0.0


class TestTerminatingSeries:
    def test_binomial_identity_exact(self):
        # Chu-Vandermonde: 2F1(-n, b; c; 1) = (c - b)_n / (c)_n.
        val = terminating_series((-2, 3), (5,))
        assert val == Fraction(2 * 3, 5 * 6)
        assert isinstance(val, Fraction)

    def test_pole_before_termination_raises(self):
        # c = -1 vanishes at the k = 2 denominator while the series
        # wants to run to k = 3.
        with pytest.raises(PoleError):
            terminating_series((-3, 1), (-1,))

    def test_pole_after_termination_is_fine(self):
        # Termination at k = 1 precedes the k = 2 pole of c = -1.
        assert terminating_series((-1, 2), (-1,)) == Fraction(3)

    def test_three_two_at_unit(self):
        # 3F2(-1, a2, a3; b1, b2; 1) = 1 - a2 a3 / (b1 b2).
        assert terminating_series((-1, 2, 3), (4, 5)) == Fraction(7, 10)

    def test_zero_numerator_parameter_gives_one(self):
        assert terminating_series((0, 5), (7,)) == Fraction(1)


def _series_fraction_loop(num_params, den_params):
    """``terminating_series`` with a Fraction per term: the reference of
    the integer-numerator sum."""
    last = min(-a for a in num_params if a <= 0)
    term = total = Fraction(1)
    for t in range(last):
        den = Fraction(t + 1)
        for b in den_params:
            den *= b + t
        if den == 0:
            raise PoleError(f"pole at term {t + 1}")
        num = Fraction(1)
        for a in num_params:
            num *= a + t
        term = term * num / den
        total += term
    return total


def _outcome(series, *args):
    """The series' value, or the type of the error it raises."""
    try:
        return series(*args)
    except PoleError as exc:
        return type(exc)


class TestSeriesInIntegers:
    """``terminating_series`` steps one integer numerator and denominator
    and builds one Fraction at the end; a Fraction per term gives the same
    rational and the same refusals."""

    @pytest.fixture(scope="class")
    def cg_parameters(self):
        """The (num, den) of every series ``cg_su2_hyp`` sums on the
        keys with 2l1, 2l2 <= 8."""
        seen = set()

        def record(num, den):
            seen.add((num, den))
            return terminating_series(num, den)

        keys = [(t1, t2, t, u1, u2, u1 + u2)
                for t1 in range(9) for t2 in range(9)
                for t in range(abs(t1 - t2), t1 + t2 + 1, 2)
                for u1 in range(-t1, t1 + 1, 2) for u2 in range(-t2, t2 + 1, 2)
                if abs(u1 + u2) <= t]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("helirep.su2.terminating_series", record)
            for key in keys:
                try:
                    su2.cg_su2_hyp(*map(HalfInt.from_twice, key))
                except (PoleError, ValueError):
                    pass
        return sorted(seen)

    def test_coupling_series_match_the_fraction_loop(self, cg_parameters):
        assert len(cg_parameters) == 7809  # one distinct set per key
        refused = 0
        for args in cg_parameters:
            want = _outcome(_series_fraction_loop, *args)
            got = _outcome(terminating_series, *args)
            assert got == want and type(got) is type(want), args
            refused += want is PoleError
        assert 0 < refused < len(cg_parameters)

    # The series stops at the smallest |a| over the non-positive numerator
    # parameters (at 1, not 5, in the seventh case), and refuses a pole
    # before that.
    @pytest.mark.parametrize("args", [
        ((-2, 3), (3,)),
        ((-3, 1), (-1,)),
        ((-1, 2), (-1,)),
        ((0, 5), (7,)),
        ((-4, 1), (3,)),
        ((-3, 5), (-7, 2)),
        ((-5, -1, 4), (2, -9)),
        ((-3, 2), (-1, 1)),
    ])
    def test_integer_parameters_match_the_fraction_loop(self, args):
        want = _outcome(_series_fraction_loop, *args)
        got = _outcome(terminating_series, *args)
        assert got == want and type(got) is type(want)


def _bfs_components(count, pairs):
    """Oracle: each node's component as the smallest node a breadth-first
    search from it reaches."""
    near = [[] for _ in range(count)]
    for a, b in pairs:
        near[a].append(b)
        near[b].append(a)
    out = []
    for start in range(count):
        seen, queue = {start}, [start]
        for node in queue:
            for other in near[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        out.append(min(seen))
    return out


class TestComponents:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_breadth_first_search(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 60))
        # From no edge to about two per node: isolated nodes, chains, a
        # few large components, self-pairs and repeated pairs.
        edges = int(rng.integers(0, 2 * count + 1))
        pairs = [tuple(map(int, rng.integers(0, count, 2))) for _ in range(edges)]
        assert _components(count, pairs) == _bfs_components(count, pairs)

    def test_isolated_nodes_are_their_own_component(self):
        assert _components(5, [(3, 1)]) == [0, 1, 2, 1, 4]
        assert _components(3, []) == [0, 1, 2]
        assert _components(0, []) == []

    def test_a_long_chain_resolves_to_its_smallest_node(self):
        count = 500
        pairs = [(k, k + 1) for k in reversed(range(count - 1))]
        assert _components(count, pairs) == [0] * count


class TestColumn:
    def test_read_only_trailing_axis(self):
        column = _column([1.5, -2.0, 3.0])
        assert column.shape == (3, 1) and not column.flags.writeable
        stack = _column([[1, 2], [3, 4], [5, 6]])
        assert stack.shape == (3, 2, 1) and not stack.flags.writeable
        assert stack[1, :, 0].tolist() == [3, 4]


class TestStackedRows:
    """The row kernels of the label-vectorized tabulators keep the bits of
    the one-row arithmetic they replace."""

    XS = np.concatenate([
        np.random.default_rng(7).uniform(-1.0, 1.0, 2000),
        [0.0, -0.0, 1.0, -1.0, 0.5],
    ])

    def test_powers_match_scalar_exponents(self):
        # With and without rows of exponent 2.
        for column, rows in (([2, 0, 5, 2, 1, 3, 13], [0, 3]), ([0, 1, 3], [])):
            exponents = np.array(column)[:, None]
            squares = _squares(exponents)
            assert squares.tolist() == rows and not squares.flags.writeable
            table = _powers(self.XS, exponents, squares)
            for row, e in enumerate(column):
                want = self.XS ** e
                assert np.array_equal(table[row].view(np.uint64), want.view(np.uint64))
                # One point at a time, as the one-point views evaluate.
                for i in range(0, self.XS.size, 97):
                    point = _powers(self.XS[i : i + 1], exponents, squares)[row, 0]
                    assert point.view(np.uint64) == want[i].view(np.uint64)

    def test_blocks_hold_their_square_rows(self):
        for tl in range(41):
            for tx in range(tl, -tl - 1, -2):
                block = su2._label_block(tl, tx)
                want = np.flatnonzero(block.powers[:, 0] == 2)
                assert np.array_equal(block.squares, want), (tl, tx)
                series = hs._series_block(tl, tx)
                assert len(series.squares) == len(series.powers) == 4
                for squares, powers in zip(series.squares, series.powers):
                    want = np.flatnonzero(powers[:, 0] == 2)
                    assert np.array_equal(squares, want), (tl, tx)
        assert "spans" not in su2._Block._fields + hs._SeriesBlock._fields

    # Ys of both signs: signed zeros and tiny negatives, where a row that
    # has not reached its degree must stay +0.0.
    YS = np.concatenate([-(XS**2), XS, [0.0, -0.0, -1e-300, -5e-324, 5e-324]])

    def test_stacked_horner_matches_each_row(self):
        # Row 1 joins only at degree 0, between rows of higher degree;
        # row 4 tops out in an exact zero; rows 5 and 6 hold signed zeros,
        # so a y of -0.0 gives -0.0 in row 5 and +0.0 in row 6.
        series = [[1.0, -0.5, 0.25], [3.0], [0.7, 0.1, -2.0, 1e-3], [0.5, 1.5],
                  [2.0, 0.0], [-0.0, 1.0], [0.0, 1.0]]
        coeffs = _stack(series)
        assert coeffs.shape == (4, 7, 1) and not coeffs.flags.writeable
        for row, c in enumerate(series):
            assert coeffs[len(c):, row, 0].view(np.uint64).tolist() == [0] * (4 - len(c))
        y = self.YS
        table = _horner(coeffs, y)
        assert table.shape == (7, y.size)
        for row, c in enumerate(series):
            acc = np.zeros_like(y) + c[-1]
            for value in reversed(c[:-1]):
                acc = acc * y + value
            assert np.array_equal(table[row].view(np.uint64), acc.view(np.uint64))
        negative_zero = y.view(np.uint64) == np.float64(-0.0).view(np.uint64)
        assert np.signbit(table[5, negative_zero]).all()
        assert not np.signbit(table[6, negative_zero]).any()
        # One point at a time, as the one-point views evaluate.
        for i in range(0, y.size, 41):
            point = _horner(coeffs, y[i : i + 1])[:, 0]
            assert np.array_equal(point.view(np.uint64), table[:, i].view(np.uint64))

    @staticmethod
    def _parts(rng, shape):
        """Floats over 16 decades, one in ten replaced by one of +-0.0,
        +-1e-300 and +-1e300."""
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        special = rng.random(shape) < 0.1
        out[special] = rng.choice([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300],
                                  special.sum())
        return out

    @staticmethod
    def _loop(rot, boost):
        """The k-sum as one += per label, in k order from +0j."""
        acc = np.zeros((rot.shape[1], boost.shape[1]), dtype=complex)
        for r, b in zip(rot[:, :, None], boost):
            acc += r * b
        return acc

    def test_ksum_adds_in_k_order_from_plus_zero(self):
        rng = np.random.default_rng(11)
        cases = [(k, t, u) for k in range(1, 82) for t, u in ((1, 1), (1, 9), (9, 1))]
        cases.append((41, 40, 40))  # one block of 65 600 products
        for k, t, u in cases:
            rot = np.empty((k, t), dtype=complex)
            rot.real, rot.imag = self._parts(rng, (k, t)), self._parts(rng, (k, t))
            boost = self._parts(rng, (k, u))
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _ksum(rot, boost), self._loop(rot, boost)
            assert got.shape == (t, u)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (k, t, u)

    def test_ksum_of_negative_zeros_is_plus_zero(self):
        rot, boost = np.full((3, 1), complex(-0.0, -0.0)), np.ones((3, 1))
        for acc in (_ksum(rot, boost), self._loop(rot, boost)):
            assert acc.view(np.uint64).tolist() == [[0, 0]]


class TestMemo:
    def test_bounded_by_bytes_least_recent_first(self, monkeypatch):
        from helirep.kernels import _Memo

        builds = []

        @_Memo
        def block(size, tag):
            builds.append((size, tag))
            return (np.zeros(size), "not an array")

        monkeypatch.setattr(block, "budget", 3 * 8 * 100)
        first = block(100, "a")
        assert block(100, "a") is first and builds == [(100, "a")]
        block(100, "b")
        block(100, "c")
        block(100, "a")  # now the most recent: "b" goes first
        block(100, "d")
        assert block(100, "a") is first
        block(100, "b")
        assert builds == [(100, "a"), (100, "b"), (100, "c"), (100, "d"), (100, "b")]
        # A block larger than the budget is returned, and held alone.
        big = block(1000, "e")
        assert block(1000, "e") is big
        block(100, "a")
        assert builds[-2:] == [(1000, "e"), (100, "a")]


def _dirac_radial():
    return assemble_rfs(dirac_system(), "1/2", "1/2", variant="alt")


DIRAC_INIT = [1.0, 0.0, 1j, 0.0]

# Every integer argument behind `kernels._int_arg`: (call, a valid count).
INT_ARGS = {
    "bilinear_form k": (lambda n: bilinear_form(n, 0, 1.0), 2),
    "bilinear_form r": (lambda n: bilinear_form(0, n, 1.0), 2),
    "symmetrizer_one_row m": (symmetrizer_one_row, 2),
    "integrate steps": (
        lambda n: integrate(_dirac_radial(), 0.5, 1.0, DIRAC_INIT, n), 100),
    "convergence_order base_steps": (
        lambda n: convergence_order(_dirac_radial(), 0.5, 1.0, DIRAC_INIT,
                                    base_steps=n), 1),
}


@pytest.mark.parametrize("name", sorted(INT_ARGS))
def test_integer_arguments_are_never_truncated(name):
    call, good = INT_ARGS[name]
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    call(np.int64(good))


# A count outside its range at each entry point, and the gate's wording.
OUT_OF_RANGE = {
    "bilinear_form k": (lambda n: bilinear_form(n, 0, 1.0), -2,
                        "k must be an integer >= 0"),
    "symmetrizer_one_row m": (symmetrizer_one_row, 11,
                              "m must be an integer between 1 and 10"),
    "brauer_weyl rank": (brauer_weyl, 21, "rank must be an integer between 1 and 20"),
    "odd_direct_sum m": (odd_direct_sum, 6, "m must be an integer between 1 and 5"),
    "schur_transpositions m": (schur_transpositions, 1,
                               "m must be an integer between 2 and 10"),
    "transposition_homomorphism_report m": (
        transposition_homomorphism_report, 9,
        "m must be an integer between 2 and 8"),
    "grid N": (lambda n: _parse_grid(f"0:1:{n}"), 0,
               "grid N must be an integer between 1 and 100000"),
    "integrate steps": (
        lambda n: integrate(_dirac_radial(), 0.5, 1.0, DIRAC_INIT, n), 99,
        "steps must be an integer >= 100"),
    "convergence_order base_steps": (
        lambda n: convergence_order(_dirac_radial(), 0.5, 1.0, DIRAC_INIT,
                                    base_steps=n), 0,
        "base_steps must be an integer between 1 and 20000"),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_counts_out_of_range_share_one_wording(name):
    call, bad, message = OUT_OF_RANGE[name]
    with pytest.raises(ValueError, match=f"^{message}, got {bad}$"):
        call(bad)


# Every public function that reads a Z^l_mn label block, at 2l = 1001.
SPIN_CAPPED = {
    "sph_p": lambda l: su2.sph_p(l, "1/2", "1/2", 0.5),
    "jac_p": lambda l: su2.jac_p(l, "1/2", "1/2", 0.5),
    "wigner_d": lambda l: su2.wigner_d(l, "1/2", "1/2", 0.5),
    "z_series": lambda l: hs.z_series(l, "1/2", "1/2", 0.5, 0.5),
    "z_factorized": lambda l: hs.z_factorized(l, "1/2", "1/2", 0.5, 0.5),
    "z_grid": lambda l: hs.z_grid(l, "1/2", "1/2", [0.5], [0.5]),
    "z_series_grid": lambda l: hs.z_series_grid(l, "1/2", "1/2", [0.5], [0.5]),
    "z_matrix": lambda l: hs.z_matrix(l, 0.5, 0.5),
}


@pytest.mark.parametrize("name", sorted(SPIN_CAPPED))
def test_spin_past_the_cap_is_refused_before_any_coefficient(monkeypatch, name):
    """2l = 1001, the first spin past the cap, is refused in both
    label-block builders before any series coefficient is formed."""
    def formed(*args):
        raise AssertionError("a coefficient was formed")

    monkeypatch.setattr(su2, "_series_coeffs", formed)
    monkeypatch.setattr(hs, "_gauss_float_coeffs", formed)
    with pytest.raises(ValueError, match="^twice the spin must be an integer "
                                         "between 0 and 1000, got 1001$"):
        SPIN_CAPPED[name]("1001/2")


class TestCountGate:
    def test_bounds_are_inclusive(self):
        assert _int_arg("n", 1, 1, 3) == 1
        assert _int_arg("n", np.int64(3), 1, 3) == 3
        assert type(_int_arg("n", np.int64(3), 1)) is int

    @pytest.mark.parametrize("bad", [0, 4, 2.0, True, "2", None])
    def test_refusals_name_the_range(self, bad):
        with pytest.raises(ValueError, match=r"^n must be an integer between 1 and 3, got "):
            _int_arg("n", bad, 1, 3)

    def test_lower_bound_only(self):
        assert _int_arg("n", 10**30, 1) == 10**30
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got -5$"):
            _int_arg("n", -5, 1)


class TestFiniteGate:
    def test_finite_numbers_and_arrays_pass(self):
        _finite("x", 0.0, -1e308, [1.0, 2.0], np.zeros((2, 3)), "1.5")
        _finite("z", 1 + 2j, np.ones(3, dtype=complex), dtype=complex)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, [0.0, math.inf], None])
    def test_non_finite_real_refused(self, bad):
        with pytest.raises(ValueError, match=r"^x must be finite$"):
            _finite("x", 1.0, bad)

    @pytest.mark.parametrize("bad", [complex(0, math.nan), complex(math.inf, 0)])
    def test_non_finite_complex_refused(self, bad):
        with pytest.raises(ValueError, match=r"^z must be finite$"):
            _finite("z", bad, dtype=complex)

    def test_a_complex_value_is_not_read_as_real(self):
        with pytest.raises(TypeError):
            _finite("x", 1j)
