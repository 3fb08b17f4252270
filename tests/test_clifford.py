import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helirep import clifford
from helirep.clifford import (
    _PHASES,
    CliffordBasis,
    _monomial,
    _summand_coupling,
    _subset_products,
    _subset_span_dim,
    SchurCoverGens,
    brauer_weyl,
    odd_direct_sum,
    schur_transpositions,
    transposition_homomorphism_report,
    verify_clifford,
    verify_tn_relations,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMAS = {1: SIGMA1, 2: SIGMA2, 3: SIGMA3}


def traced_peak_mib(fn):
    """Peak traced memory of fn() in MiB, after one warm-up call (the
    first call also holds numpy's own lazily built state)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestMonomial:
    @pytest.mark.parametrize("phase", [1, 1 + 0j, -1j])
    @pytest.mark.parametrize("width", range(1, 5))
    def test_bit_masks_against_kronecker_factors(self, width, phase):
        # Factor t is bit width - 1 - t: Z^s X^f with s and f that bit of
        # the masks, the factors multiplied out left to right.
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1, -1])
        for flip in range(2 ** width):
            for signs in range(2 ** width):
                want = np.eye(1)
                for t in range(width):
                    bit = width - 1 - t
                    block = (np.linalg.matrix_power(z, signs >> bit & 1)
                             @ np.linalg.matrix_power(x, flip >> bit & 1))
                    want = np.kron(want, block)
                got = _monomial(width, flip, signs, phase)
                assert got.dtype == (complex if isinstance(phase, complex) else float)
                assert np.array_equal(got, phase * want), (flip, signs)


class TestBrauerWeyl:
    def test_rank_two_is_the_pauli_pair(self):
        basis = brauer_weyl(2)
        assert np.array_equal(basis.generators[0], SIGMA1)
        assert np.array_equal(basis.generators[1], SIGMA2)

    def test_rank_four_tensor_patterns(self):
        basis = brauer_weyl(4)
        eye = np.eye(2)
        assert np.array_equal(basis.generators[0], np.kron(SIGMA1, eye))
        assert np.array_equal(basis.generators[1], np.kron(SIGMA3, SIGMA1))
        assert np.array_equal(basis.generators[2], np.kron(SIGMA2, eye))
        assert np.array_equal(basis.generators[3], np.kron(SIGMA3, SIGMA2))

    def test_odd_rank_doubles_with_sign_flipped_chain(self):
        basis = brauer_weyl(3)
        assert basis.is_odd
        assert basis.dim == 4
        for even_gen, doubled in zip(brauer_weyl(2).generators, basis.generators):
            assert np.array_equal(doubled[:2, :2], even_gen)
            assert np.array_equal(doubled[2:, 2:], even_gen)
        last = basis.generators[2]
        assert np.array_equal(last[:2, :2], SIGMA3)
        assert np.array_equal(last[2:, 2:], -SIGMA3)

    def test_generator_count_and_dimension(self):
        for n in range(1, 21):
            basis = brauer_weyl(n)
            assert len(basis.generators) == n
            assert basis.dim == 2 ** ((n + 1) // 2)

    def test_matrices_as_first_spelled(self):
        # Generator by generator against the construction as first spelled:
        # E_i = sigma_3 x ... x sigma_1 (sigma_2) at factor i x 1 x ...; for
        # odd n = 2m+1 each even generator X doubled as the block diagonal
        # (X, X), then (chain, -chain) for the sigma_3 chain of m factors.
        def chain(kind, i, m):
            out = np.eye(1, dtype=complex)
            for t in range(m):
                factor = SIGMA3 if t < i else SIGMAS[kind] if t == i else np.eye(2)
                out = np.kron(out, factor.astype(complex))
            return out

        def spelled(n):
            m, odd = divmod(n, 2)
            zero = np.zeros((2 ** m, 2 ** m), dtype=complex)
            for kind in (1, 2):
                for i in range(m):
                    e = chain(kind, i, m)
                    yield np.block([[e, zero], [zero, e]]) if odd else e
            if odd:
                top = chain(3, m, m)
                yield np.block([[top, zero], [zero, -top]])

        for n in range(1, 21):
            gens = brauer_weyl(n).generators
            assert len(gens) == n
            for got, want in zip(gens, spelled(n), strict=True):
                assert np.array_equal(got, want)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            brauer_weyl(0)
        with pytest.raises(ValueError):
            brauer_weyl(21)
        # Non-integral ranks are refused, not truncated.
        for bad in (2.5, 2.0, True, "3", None):
            with pytest.raises(ValueError):
                brauer_weyl(bad)
        assert brauer_weyl(np.int64(3)).n == 3


class TestVerifyClifford:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_anticommutation_and_full_span(self, n):
        report = verify_clifford(brauer_weyl(n))
        assert report["ok"]
        assert report["failures"] == []
        # Subset products span the whole algebra: 4^m even, twice that odd.
        assert report["span_dim"] == 2 ** n

    @pytest.mark.parametrize("n", [11, 12, 14])
    def test_larger_ranks_skip_span_but_check_anticommutation(self, n):
        report = verify_clifford(brauer_weyl(n))
        assert report["anticommutation_ok"]
        assert report["span_dim"] is None
        assert report["ok"]

    def test_rank_three_summands_both_pass(self):
        report = verify_clifford(brauer_weyl(3))
        assert report["ok"]
        assert report["summand_failures"] == ([], [])

    def test_corrupted_generator_names_offending_pairs(self):
        gens = list(brauer_weyl(4).generators)
        gens[2] = gens[2].copy()
        gens[2][0, 0] += 0.5
        report = verify_clifford(CliffordBasis(4, tuple(gens)))
        assert not report["ok"]
        assert report["failures"] == [(1, 3), (2, 3), (3, 3), (3, 4)]


class TestExactSpan:
    @pytest.mark.parametrize("m", range(1, 4))
    def test_equivalent_summands_span_one_block(self, m):
        # Same-sign sigma_3 chain in both blocks: every product is X + X,
        # so the span is one block's 4^m, not 2 * 4^m.
        gens = list(brauer_weyl(2 * m + 1).generators)
        half = 2 ** m
        gens[-1] = gens[-1].copy()
        gens[-1][half:, half:] *= -1
        report = verify_clifford(CliffordBasis(2 * m + 1, tuple(gens)))
        assert report["anticommutation_ok"]
        assert report["span_dim"] == 4 ** m
        assert not report["span_ok"]
        assert not report["ok"]

    def test_repeated_generator_spans_less(self):
        gens = brauer_weyl(4).generators
        report = verify_clifford(CliffordBasis(4, gens[:3] + gens[:1]))
        # Subset products of E1, E2, E3, E1 are those of E1, E2, E3 up to sign.
        assert report["span_dim"] == 8
        assert not report["span_ok"]
        assert (1, 4) in report["failures"]

    def test_products_sharing_positions_are_merged(self):
        # Products I, A, B, AB have four different column maps, pairwise
        # sharing positions, and I - A + B - AB = 0.
        a = np.array([[1, 0], [1, 0]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        assert verify_clifford(CliffordBasis(2, (a, b)))["span_dim"] == 3

    def test_non_monomial_generators_have_no_span(self):
        # A similarity keeps the relations exact but not the monomial form.
        s = np.array([[1, 1], [0, 1]], dtype=complex)
        s_inv = np.array([[1, -1], [0, 1]], dtype=complex)
        gens = tuple(s @ g @ s_inv for g in brauer_weyl(2).generators)
        report = verify_clifford(CliffordBasis(2, gens))
        assert report["anticommutation_ok"]
        assert report["span_dim"] is None
        assert not report["span_ok"]
        assert not report["ok"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_normal_form_matches_dense_products(self, n):
        gens = brauer_weyl(n).generators
        products = _subset_products(gens)
        assert len(products) == 2 ** n
        for mask in range(2 ** n):
            factors = [g for i, g in enumerate(gens) if mask >> i & 1]
            if not factors:
                dense = np.eye(gens[0].shape[0], dtype=complex)
            elif len(factors) == 1:
                dense = factors[0]
            else:
                dense = np.linalg.multi_dot(factors)
            assert np.array_equal(products[mask], dense)


def _random_monomial(rng, dim):
    """A signed permutation matrix with phases in {1, i, -1, -i}."""
    out = np.zeros((dim, dim), dtype=complex)
    out[np.arange(dim), rng.permutation(dim)] = _PHASES[rng.integers(0, 4, dim)]
    return out


def _dense_rank(products):
    stacked = np.array([products[k].ravel() for k in range(len(products))])
    return int(np.linalg.matrix_rank(stacked))


class TestSpanAgainstDenseRank:
    def test_random_monomial_generators(self, monkeypatch):
        fallbacks, elimination = [], clifford._gaussian_rank

        def counted(re_rows, im_rows):
            fallbacks.append(len(re_rows))
            return elimination(re_rows, im_rows)

        monkeypatch.setattr(clifford, "_gaussian_rank", counted)
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            dim = int(rng.integers(1, 7))
            gens = [_random_monomial(rng, dim) for _ in range(rng.integers(1, 7))]
            products = _subset_products(gens)
            assert _subset_span_dim(products) == _dense_rank(products)
        assert fallbacks  # the elimination ran on groups the Gram could not prove full

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conjugated_basis_is_proved_full_by_the_gram(self, n, monkeypatch):
        def refuse(re_rows, im_rows):
            raise AssertionError("a Brauer-Weyl group fell back to elimination")

        monkeypatch.setattr(clifford, "_gaussian_rank", refuse)
        rng = np.random.default_rng(n)
        basis = brauer_weyl(n)
        p = _random_monomial(rng, basis.dim)
        gens = [p @ e @ p.conj().T for e in basis.generators]
        products = _subset_products(gens)
        assert _subset_span_dim(products) == _dense_rank(products) == 2 ** n


class TestOddDirectSum:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_full_structure_report(self, m):
        report = odd_direct_sum(m)
        assert report["ok"]
        assert report["summand_failures"] == ([], [])
        assert report["span_dim"] == 2 * 4 ** m
        assert report["volume_central"]
        assert report["projection_homomorphism_residual"] == 0.0

    @pytest.mark.parametrize("m", range(1, 6))
    def test_volume_scalars_are_opposite_fourth_roots(self, m):
        scal_a, scal_b = odd_direct_sum(m)["volume_scalars"]
        expected = 1j if m % 2 else 1.0 + 0j
        assert scal_a == expected
        assert scal_b == -expected
        if m % 2:
            # The phase -1j keeps a real part of +0.0, as printed.
            assert repr(scal_b) == "-1j"

    def test_summand_projection_multiplicative(self):
        report = odd_direct_sum(3)
        assert report["projection_homomorphism_residual"] <= 1e-12

    def test_traced_peak(self):
        # The span check forms each group's phases and positions from its
        # own members (complex entries of the whole set took 6.2 MiB).
        assert traced_peak_mib(lambda: odd_direct_sum(5)) <= 4.5

    def test_cap(self):
        with pytest.raises(ValueError):
            odd_direct_sum(6)
        with pytest.raises(ValueError):
            odd_direct_sum(0)
        for bad in (1.5, True, "2"):
            with pytest.raises(ValueError):
                odd_direct_sum(bad)
        assert odd_direct_sum(np.int32(1))["m"] == 1

    @pytest.mark.parametrize("m", range(1, 4))
    def test_swapped_blocks_couple_the_summands(self, m, monkeypatch):
        # One generator's blocks swapped: diag(A, B) becomes [[0, A], [B, 0]].
        basis = brauer_weyl(2 * m + 1)
        h = basis.dim // 2
        gens = list(basis.generators)
        gens[0] = np.roll(gens[0], h, axis=1)
        products = _subset_products(gens)
        assert _summand_coupling(products, h) == 1.0

        monkeypatch.setattr(clifford, "brauer_weyl",
                            lambda n: CliffordBasis(n, tuple(gens)))
        report = odd_direct_sum(m)
        assert report["projection_homomorphism_residual"] == 1.0
        assert not report["ok"]

    def test_coupling_is_the_largest_entry_between_the_summands(self):
        # The oracle: the dense products' entries off the two diagonal blocks.
        # Half the generator sets are singular (columns may repeat), where
        # rows of one summand can reach the other while the rest stay home.
        rng = np.random.default_rng(20261020)
        seen = set()
        for trial in range(60):
            dim = 2 * int(rng.integers(1, 4))
            h = int(rng.integers(0, dim + 1))
            gens = [_random_monomial(rng, dim) for _ in range(rng.integers(1, 5))]
            if trial % 2:
                gens = [g[rng.integers(0, dim, dim)] for g in gens]
            products = _subset_products(gens)
            upper = np.arange(dim) < h
            off = upper[:, None] != upper[None, :]
            want = max(np.abs(products[k])[off].max(initial=0.0)
                       for k in range(len(products)))
            assert _summand_coupling(products, h) == want
            seen.add(want)
        assert seen == {0.0, 1.0}
        # Every row to column 0: only the lower summand's rows cross.
        collapse = np.zeros((4, 4), dtype=complex)
        collapse[:, 0] = 1
        assert _summand_coupling(_subset_products([collapse]), 2) == 1.0


class TestSchurTranspositions:
    def test_first_matrix_is_negated_first_generator(self):
        gens = schur_transpositions(3)
        family = brauer_weyl(6).generators
        assert np.array_equal(gens.t[0], -family[0])

    def test_second_matrix_mixes_first_two_generators(self):
        gens = schur_transpositions(3)
        family = brauer_weyl(6).generators
        expected = 0.5 * family[0] - (np.sqrt(3) / 2) * family[1]
        assert np.max(np.abs(gens.t[1] - expected)) == 0.0

    @pytest.mark.parametrize("m", range(2, 9))
    def test_real_generators_from_the_brauer_weyl_family(self, m):
        # float64, equal to the complex formula and with the bits of its
        # real part, signs of zero included.
        family = brauer_weyl(2 * m).generators
        for k, t in enumerate(schur_transpositions(m).t, start=1):
            want = -math.sqrt((k + 1) / (2 * k)) * family[k - 1]
            if k > 1:
                want = math.sqrt((k - 1) / (2 * k)) * family[k - 2] + want
            assert t.dtype == np.float64
            assert np.array_equal(t, want)
            assert t.tobytes() == np.ascontiguousarray(want.real).tobytes()

    def test_traced_peak_of_build_and_check(self):
        # The build's 8 dense 256-wide float64 matrices are the peak: 5.5 MiB,
        # bounded with 0.5 MiB to spare.
        assert traced_peak_mib(
            lambda: verify_tn_relations(schur_transpositions(8))) <= 6

    def test_traced_peak_of_the_check_alone(self):
        # Row layers of at most 16 n entries: 0.36 MiB.
        gens = schur_transpositions(8)
        assert traced_peak_mib(lambda: verify_tn_relations(gens)) <= 1

    @pytest.mark.parametrize("m", range(4, 9))
    def test_realized_signs_stable(self, m):
        report = verify_tn_relations(schur_transpositions(m))
        assert report["s1"] == 1
        assert report["s2"] == 1
        assert report["s3"] == -1

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_unitary_and_traceless(self, m):
        for t in schur_transpositions(m).t:
            dim = t.shape[0]
            assert np.max(np.abs(t @ t.conj().T - np.eye(dim))) <= 1e-15
            assert np.trace(t) == 0.0

    def test_no_far_pairs_below_three(self):
        report = verify_tn_relations(schur_transpositions(2))
        assert report["s3"] is None
        assert report["ok"]

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            schur_transpositions(1)
        with pytest.raises(ValueError):
            schur_transpositions(11)
        for bad in (3.7, 3.0, True, "3"):
            with pytest.raises(ValueError):
                schur_transpositions(bad)
            with pytest.raises(ValueError):
                transposition_homomorphism_report(bad)
        assert schur_transpositions(np.int64(3)).m == 3
        report = transposition_homomorphism_report(np.int64(2))
        assert (report["m"], report["max_word_len"]) == (2, 4)


class TestTnRelations:
    def test_report_fields(self):
        report = verify_tn_relations(schur_transpositions(4))
        assert report["ok"]
        assert report["failures"] == []
        assert (report["s1"], report["s2"], report["s3"]) == (1, 1, -1)

    @pytest.mark.parametrize("m", [3, 5])
    def test_complex_generators_keep_complex_arithmetic(self, m):
        ts = schur_transpositions(m).t
        report = verify_tn_relations(SchurCoverGens(m, tuple(1j * t for t in ts)))
        assert report["ok"]
        assert (report["s1"], report["s2"], report["s3"]) == (-1, -1, -1)

    def test_one_generator_has_no_braid_or_far_class(self):
        t = schur_transpositions(2).t[0]
        report = verify_tn_relations(SchurCoverGens(1, (t,)))
        assert report["ok"]
        assert (report["s1"], report["s2"], report["s3"]) == (1, None, None)

    def test_no_generator_is_refused(self):
        with pytest.raises(ValueError, match="at least one generator"):
            verify_tn_relations(SchurCoverGens(0, ()))

    @pytest.mark.parametrize("scale", [1e100, 1e200])
    def test_overflowing_products_fail(self, scale):
        # The braid cubes overflow; a NaN scalar must not pass as ok.
        ts = schur_transpositions(4).t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_tn_relations(SchurCoverGens(4, tuple(scale * t for t in ts)))
        assert not report["ok"]
        assert report["s2"] is None
        assert "braid not scalar" in report["failures"]

    @pytest.mark.parametrize("scale, s1, s2", [
        (10, 100, 1e6), (1000, 1e6, 1e18), (1.5, 2.25, 11.390625), (0.1, 0.01, 1e-6)])
    def test_scaled_cover_reports_scaled_scalars(self, scale, s1, s2):
        # Every tolerance is relative to the size of what it compares, and
        # only a scalar within it of a Gaussian integer is rounded: 1.5 t
        # is not reported as 2 and 11, nor 0.1 t as 0 and 0.
        ts = schur_transpositions(5).t
        report = verify_tn_relations(SchurCoverGens(5, tuple(scale * t for t in ts)))
        assert report["ok"] and report["failures"] == []
        assert report["s1"] == pytest.approx(s1, rel=1e-12)
        assert report["s2"] == pytest.approx(s2, rel=1e-12)
        assert report["s3"] == -1

    def test_far_pair_residual_is_relative_to_the_product(self):
        # With a phase, t_k t_l = -t_l t_k holds only up to rounding at the
        # size of the products (about 1e6 here).
        ts = schur_transpositions(5).t
        c = 1000 * np.exp(0.3j)
        report = verify_tn_relations(SchurCoverGens(5, tuple(c * t for t in ts)))
        assert report["ok"] and report["failures"] == []
        assert report["s1"] == pytest.approx(c * c, rel=1e-12)
        assert report["s3"] == -1

    def test_nan_entry_is_refused(self):
        ts = list(schur_transpositions(3).t)
        ts[0] = ts[0].copy()
        ts[0][0, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            verify_tn_relations(SchurCoverGens(3, tuple(ts)))

    def test_perturbed_matrix_fails_scalar_checks(self):
        gens = schur_transpositions(4)
        ts = list(gens.t)
        ts[1] = ts[1] + 0.001 * np.eye(ts[1].shape[0])
        report = verify_tn_relations(SchurCoverGens(4, tuple(ts)))
        assert not report["ok"]
        assert "square not scalar" in report["failures"]


def _dense_ratio(p, r):
    """The scalar reader on dense matrices, as the relation check read
    it before row layers."""
    s = complex(np.vdot(r, p) / np.vdot(r, r))
    residual = p - (s.real if p.dtype == r.dtype == np.float64 else s) * r
    if not np.max(np.abs(residual)) <= 1e-12 * max(1.0, np.max(np.abs(p))):
        return None
    return s


@np.errstate(over="ignore", invalid="ignore")
def _dense_tn_relations(gens):
    """The relation check on dense n x n products: the reference route."""
    ts = [t.real.copy() if np.iscomplexobj(t) and not t.imag.any() else t
          for t in gens.t]
    ident = np.eye(ts[0].shape[0])
    report = {"m": gens.m, "failures": []}

    def collect(label, values):
        if not values:
            return None
        if any(v is None for v in values):
            report["failures"].append(f"{label} not scalar")
            return None
        s = values[0]
        tol = 1e-12 * max(1.0, abs(s))
        if any(not abs(v - s) <= tol for v in values):
            report["failures"].append(f"{label} not constant across indices")
            return None
        rounded = complex(np.round(s.real) + 1j * np.round(s.imag))
        return rounded if abs(s - rounded) <= tol else s

    report["s1"] = collect("square", [_dense_ratio(t @ t, ident) for t in ts])
    report["s2"] = collect("braid", [
        _dense_ratio((p := a @ b) @ p @ p, ident) for a, b in zip(ts, ts[1:])])
    report["s3"] = collect("far_commute", [
        _dense_ratio(ts[k] @ ts[l], ts[l] @ ts[k])
        for k in range(len(ts)) for l in range(k + 2, len(ts))])
    report["ok"] = not report["failures"]
    return report


def _cover(m, scale=1, shift=None, zero=None):
    ts = [scale * t for t in schur_transpositions(m).t]
    if shift is not None:
        ts[1] = ts[1] + shift * np.eye(len(ts[1]))
    if zero is not None:
        ts[zero] = np.zeros_like(ts[zero])
    return SchurCoverGens(m, tuple(ts))


class TestTnRelationsAgainstDenseProducts:
    """The row-layer check against the dense products it replaced."""

    @pytest.mark.parametrize("m", range(2, 10))
    def test_schur_cover(self, m):
        gens = schur_transpositions(m)
        assert verify_tn_relations(gens) == _dense_tn_relations(gens)

    @pytest.mark.parametrize("m", range(2, 10))
    @pytest.mark.parametrize("kind", [
        {"scale": 1j}, {"scale": 10}, {"shift": 0.001}, {"zero": 0}, {"zero": 1}])
    def test_integral_and_failing_covers_keep_their_reports(self, m, kind):
        gens = _cover(m, **kind)
        report = verify_tn_relations(gens)
        assert report == _dense_tn_relations(gens)
        if "shift" in kind:
            assert "square not scalar" in report["failures"]

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("scale", [1.5, 0.1, 1000 * np.exp(0.3j), np.exp(0.7j)])
    def test_raw_scalars_agree_to_rounding(self, m, scale):
        # A scalar that is not a Gaussian integer is reported as summed,
        # and its sums may round in another order.
        gens = _cover(m, scale)
        report, want = verify_tn_relations(gens), _dense_tn_relations(gens)
        assert report["ok"] and want["ok"]
        for key in ("s1", "s2", "s3"):
            assert report[key] == pytest.approx(want[key], rel=1e-12)

    @pytest.mark.parametrize("m", [3, 6])
    @pytest.mark.parametrize("scale", [1e100, 1e200])
    def test_overflowing_covers_still_fail_the_braid(self, m, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_tn_relations(_cover(m, scale))
        assert not report["ok"]
        assert report["s2"] is None
        assert "braid not scalar" in report["failures"]


class _Multiplied(Exception):
    """Raised in place of a row-layer product."""


class TestTnRelationsDomain:
    """Refusals, checked with the layered product replaced, so no test
    forms a product past the bound."""

    @pytest.fixture(autouse=True)
    def no_products(self, monkeypatch):
        def refuse_to_multiply(a, b):
            raise _Multiplied

        monkeypatch.setattr(clifford, "_product", refuse_to_multiply)

    @pytest.mark.parametrize("n", [32, 64, 1024])
    def test_dense_cover_past_the_bound(self, n):
        dense = np.ones((n, n))
        message = (f"^transposition relations: t_1 with rows {n} entries wide "
                   f"would form a product of {n ** 3} entries, past the bound "
                   f"16 n\\^2 = {16 * n * n} \\(n = {n}\\)$")
        with pytest.raises(ValueError, match=message):
            verify_tn_relations(SchurCoverGens(2, (dense, dense)))

    def test_braid_past_the_bound_names_both_generators(self):
        # Rows 5 wide square to 25 n entries, within 16 n^2 at n = 64, but
        # the braid's p = t_1 t_2 may be 25 wide, p^2 64 wide and p^2 p
        # 64 * 25 n entries.
        n = 64
        t = sum(np.roll(np.eye(n), d, axis=1) for d in range(5))
        message = ("^transposition relations: the braid of t_1 and t_2 with rows "
                   f"5 and 5 entries wide would form a product of {64 * 25 * n} "
                   f"entries, past the bound 16 n\\^2 = {16 * n * n} \\(n = {n}\\)$")
        with pytest.raises(ValueError, match=message):
            verify_tn_relations(SchurCoverGens(2, (t, t)))
        with pytest.raises(_Multiplied):
            verify_tn_relations(SchurCoverGens(1, (t,)))

    @pytest.mark.parametrize("n", [4, 16])
    def test_dense_cover_up_to_16_wide_is_admitted(self, n):
        dense = np.ones((n, n))
        with pytest.raises(_Multiplied):
            verify_tn_relations(SchurCoverGens(2, (dense, dense)))

    @pytest.mark.parametrize("ts", [
        (np.eye(4), np.eye(8)), (np.ones((4, 2)),), (np.ones(4),), (np.float64(1),),
        (np.zeros((0, 0)),)])
    def test_not_square_of_one_size(self, ts):
        with pytest.raises(ValueError, match="square and of one size"):
            verify_tn_relations(SchurCoverGens(len(ts), ts))


class TestPermutationShadow:
    @pytest.mark.parametrize(
        "m,perms", [(2, 6), (3, 20), (4, 49), (5, 98)]
    )
    def test_words_agree_up_to_sign(self, m, perms):
        report = transposition_homomorphism_report(m)
        assert report["ok"]
        assert report["distinct_permutations"] == perms
        assert report["max_sign_mismatch"] <= 1e-12

    def test_traced_peak(self):
        # At most two word matrices at once: one per reachable permutation
        # took 11.4 MiB at m = 6.
        assert traced_peak_mib(lambda: transposition_homomorphism_report(6)) <= 2


class _Built(Exception):
    """Raised in place of building the transposition cover."""


def _cover_unbuilt(monkeypatch):
    def refuse_to_build(m):
        raise _Built(m)

    monkeypatch.setattr(clifford, "schur_transpositions", refuse_to_build)


class TestReportDomain:
    """The report's domain, m from 2 to 8, checked with the cover's builder
    replaced, so no test forms a word matrix."""

    @pytest.mark.parametrize("m", [1, 9, 10])
    def test_refused_before_the_cover(self, monkeypatch, m):
        _cover_unbuilt(monkeypatch)
        with pytest.raises(ValueError,
                           match=f"^m must be an integer between 2 and 8, got {m}$"):
            transposition_homomorphism_report(m)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_admitted_from_m2_to_m8(self, monkeypatch, m):
        _cover_unbuilt(monkeypatch)
        with pytest.raises(_Built):
            transposition_homomorphism_report(m)
