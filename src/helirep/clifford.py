"""Anticommuting generator bases on spinor spaces and the transposition
matrices built from them.

Even rank n = 2m gives the classic tensor-product basis of sigma
matrices on a 2^m-dimensional space; odd rank appends the sigma_3 chain
and doubles into two inequivalent summands.  Each generator is a sigma
string phase Z^s X^f (``_monomial``): row r holds phase
(-1)^popcount(r & s) at column r ^ f.  Its entries are Gaussian
integers, so every algebra check here is exact — no tolerance; floating
point is used only where it is exact on such entries.
Every subset product of the generators is monomial: one nonzero per
row, a phase in {1, i, -1, -i}.  The products are kept in that normal
form (a column per row and a phase exponent mod 4), and the dimension
of their span is an exact rank over the Gaussian integers, taken group
by group over products that share positions, each group's phases and
positions formed from its own members only.  The transposition matrices
mix two adjacent generators with sqrt weights, and
``verify_tn_relations`` reports the scalars their relations realize.
Their entries are real, so they are float64 from build to verdict (a
generator with a nonzero imaginary part keeps complex arithmetic).

The relation check holds every matrix as row layers, the normal form
above grown to w entries a row: (cols, vals), each (w, n), with row i
the sum over layers j of vals[j, i] at column cols[j, i].  A product of
rows wa and wb wide is two gathers of wa wb n entries, and a merge sums
the entries that share a position with one sort, so a product of the
cover's t_k (2 nonzeros a row) costs O(n log n), not the n^3
multiply-adds of a dense one, and building the cover is the memory peak
of building and checking it.  A check whose products could gather more
than 16 n^2 entries, bounded from the generators' row widths, is
refused before any product is formed, so a dense cover more than 16
wide is outside the domain.  Scalars rounded to Gaussian integers keep
the bits of dense products; a scalar reported as summed (a non-real
phase, say) may move in the last bit, because sums run in another
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import _components, _finite, _int_arg

_MAX_RANK = 20
_COVER_M = (2, 10)  # the m of schur_transpositions, 2^m-wide: at most 1024
_WORD_LEN = 4  # the longest word of transposition_homomorphism_report
_SPAN_CAP = 10  # exhaustive subset-product span check, 2^n products
_LAYER_ENTRIES = 16  # a relation product gathers at most 16 n^2 entries


def _monomial(width, flip, signs, phase):
    """phase Z^signs X^flip on 2^width dimensions, factor 0 the highest
    bit: row r holds phase (-1)^popcount(r & signs) at column r ^ flip.
    float64 for a real phase, complex128 otherwise."""
    rows = np.arange(2 ** width)
    popcount = sum((rows & signs) >> bit & 1 for bit in range(width))
    out = np.zeros((len(rows), len(rows)), dtype=np.result_type(phase, float))
    out[rows, rows ^ flip] = phase * (-1) ** popcount
    return out


@dataclass(frozen=True)
class CliffordBasis:
    """Generators E_1..E_n of the rank-n anticommuting basis.

    For odd n each generator is a block-diagonal pair of summands and
    the final generator carries opposite signs in the two blocks.
    """

    n: int
    generators: tuple = field(repr=False)

    @property
    def dim(self):
        return self.generators[0].shape[0]

    @property
    def is_odd(self):
        return self.n % 2 == 1


def brauer_weyl(n):
    """The rank-n generator basis on 2^ceil(n/2) dimensions.

    Even n = 2m: E_i puts sigma_1 at factor i behind a sigma_3 chain,
    E_{m+j} the same with sigma_2 = -i sigma_3 sigma_1.  Odd n = 2m+1:
    the even generators doubled as X + X and the sigma_3 chain with
    opposite block signs, which makes the two summands inequivalent.
    """
    n = _int_arg("rank", n, 1, _MAX_RANK)
    m, odd = divmod(n, 2)
    top = 1 << m
    # Factor i is bit m - 1 - i and its chain every bit above it; X + X is
    # 1 x X, a top bit that no even generator reads.  All are complex128.
    bits = [1 << (m - 1 - i) for i in range(m)]
    gens = [_monomial(m + odd, bit, top - 2 * bit, 1 + 0j) for bit in bits]
    gens += [_monomial(m + odd, bit, top - bit, -1j) for bit in bits]
    if odd:
        gens.append(_monomial(m + 1, 0, 2 * top - 1, 1 + 0j))
    return CliffordBasis(n, tuple(gens))


def _anticommutation_failures(gens):
    failures = []
    dim = gens[0].shape[0]
    ident = np.eye(dim, dtype=complex)
    for i, a in enumerate(gens):
        for j in range(i, len(gens)):
            b = gens[j]
            want = 2.0 * ident if i == j else np.zeros_like(ident)
            if not np.array_equal(a @ b + b @ a, want):
                failures.append((i + 1, j + 1))
    return failures


def _summand_failures(basis):
    """Anticommutation failures of the two diagonal blocks of an odd-rank
    basis, upper block first."""
    h = basis.dim // 2
    return tuple(
        _anticommutation_failures([g[rows, rows] for g in basis.generators])
        for rows in (slice(None, h), slice(h, None))
    )


_PHASES = np.array([1, 1j, -1, -1j])


def _layers(rows, cols, vals, n):
    """Row layers (cols, vals), each (w, n), of the entries ``vals`` at
    (rows, cols), rows ascending: row i of the matrix is the sum over
    layers j of vals[j, i] at column cols[j, i], and w is the widest row.
    A shorter row is padded with value 0 at its first column (an empty
    row at its diagonal), so a product puts nothing at a new position."""
    counts = np.bincount(rows, minlength=n)
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    head = slot == 0
    pad = np.arange(n)
    pad[rows[head]] = cols[head]
    at = slot * n + rows
    layer_cols = np.repeat(pad[None], counts.max(), axis=0)
    layer_cols.reshape(-1)[at] = cols
    layer_vals = np.zeros(layer_cols.shape, dtype=vals.dtype)
    layer_vals.reshape(-1)[at] = vals
    return layer_cols, layer_vals


def _row_layers(mat):
    """The row layers of a square matrix's nonzeros, float64 when every
    entry is real and complex128 otherwise."""
    flat = np.flatnonzero(mat != 0)  # a bool scan is several times faster
    rows, cols = np.divmod(flat, mat.shape[1])
    vals = mat.ravel()[flat]
    real = not np.iscomplexobj(vals) or not vals.imag.any()
    return _layers(rows, cols, np.asarray(vals.real if real else vals,
                                          dtype=float if real else complex), len(mat))


def _sum_at(where, vals, size):
    """Entry k: the sum of vals[where == k] in order, real and imaginary
    parts summed apart."""
    if not np.iscomplexobj(vals):
        return np.bincount(where, vals, size)
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(where, vals.real, size)
    out.imag = np.bincount(where, vals.imag, size)
    return out


def _keys(cols):
    """Position row * n + col of every layered entry, layer by layer."""
    n = cols.shape[1]
    return (np.arange(n) * n + cols).ravel()


def _product(a, b):
    """a @ b of row layers, two gathers: row i gathers
    b.vals[l, c] a.vals[j, i] at column b.cols[l, c], c = a.cols[j, i],
    so the product has wa wb layers and wa wb n entries, a position
    possibly held more than once (``_merge`` sums them)."""
    (a_cols, a_vals), (b_cols, b_vals) = a, b
    n = a_cols.shape[1]
    return (b_cols[:, a_cols].reshape(-1, n),
            (b_vals[:, a_cols] * a_vals).reshape(-1, n))


def _merge(layers):
    """The same matrix with each position held once, the duplicates summed
    in layer order by one np.unique and np.bincount: at most
    min(n, w) wide."""
    cols, vals = layers
    n = cols.shape[1]
    keys, where = np.unique(_keys(cols), return_inverse=True)
    rows, cols = np.divmod(keys, n)
    return _layers(rows, cols, _sum_at(where, vals.ravel(), len(keys)), n)


def _normal_form(mat):
    """(cols, phase) with mat[i, cols[i]] = 1j**phase[i] the only nonzero
    of row i, or None when mat is not monomial over {1, i, -1, -i}."""
    cols, vals = _row_layers(mat)
    if len(cols) != 1 or not vals.all():
        return None
    hits = vals[0][:, None] == _PHASES
    if not hits.any(axis=1).all():
        return None
    return cols[0], np.argmax(hits, axis=1).astype(np.int8)


@dataclass(frozen=True)
class _SubsetProducts:
    """The 2^n subset products in monomial normal form.

    Product k has the entry 1j**phase[k, i] at (i, cols[k, i]) and zeros
    elsewhere in row i.  Indexing gives the dense matrix.
    """

    cols: np.ndarray
    phase: np.ndarray

    def __len__(self):
        return len(self.cols)

    def __getitem__(self, k):
        dim = self.cols.shape[1]
        out = np.zeros((dim, dim), dtype=complex)
        out[np.arange(dim), self.cols[k]] = _PHASES[self.phase[k]]
        return out


def _subset_products(gens):
    """All 2^n ordered subset products E_{i1}..E_{ik} with i1 < .. < ik.

    Product ``mask`` is product ``mask`` without its highest bit times
    that generator, composed in the normal form: (P E)[i] sits in column
    E.cols[P.cols[i]] with phase P.phase[i] + E.phase[P.cols[i]] (mod 4),
    O(dim) index work per product.  Raises ValueError when a generator is
    not monomial over {1, i, -1, -i}.
    """
    dim = gens[0].shape[0]
    cols = np.arange(dim)[None, :]
    phase = np.zeros((1, dim), dtype=np.int8)
    for g in gens:
        form = _normal_form(g)
        if form is None:
            raise ValueError("generator is not monomial over {1, i, -1, -i}")
        g_cols, g_phase = form
        cols, phase = (
            np.concatenate([cols, g_cols[cols]]),
            np.concatenate([phase, (phase + g_phase[cols]) % 4]),
        )
    return _SubsetProducts(cols, phase)


def _subset_span_dim(products):
    """Exact dimension of the span of the subset products.

    Products with equal column maps form a group, found by one lexsort
    of the maps and a compare of adjacent rows.  A product occupies the
    positions (i, cols[i]), so products with different column maps are
    orthogonal in the trace inner product unless their maps agree on
    some row; groups that share a position are merged.  The span
    dimension is the sum over merged groups of the rank of their phase
    vectors.  A Gram matrix equal to dim times the identity proves a
    group's rank full (the Brauer-Weyl case).  It is one complex
    product, exact in float64: every entry is 0 or a unit of Z[i], so
    every partial sum is a Gaussian integer of size at most 2 dim.  Any
    other Gram falls back to fraction-free elimination over the
    Gaussian integers in Python ints.  No tolerance anywhere.
    """
    order = np.lexsort(products.cols.T[::-1])
    ordered = products.cols[order]
    starts = np.concatenate([[True], (ordered[1:] != ordered[:-1]).any(axis=1)])
    maps = ordered[starts]
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    pairs = []
    for column in maps.T:
        first = {}
        for g, j in enumerate(column.tolist()):
            if first.setdefault(j, g) != g:
                pairs.append((g, first[j]))
    component = np.array(_components(len(maps), pairs))[group]

    dim = products.cols.shape[1]
    row_starts = np.arange(dim) * dim
    span = 0
    for c in np.unique(component):
        members = np.flatnonzero(component == c)
        positions, where = np.unique(row_starts + products.cols[members],
                                     return_inverse=True)
        where = where.reshape(len(members), dim)
        z = np.zeros((len(members), len(positions)), dtype=complex)
        z[np.arange(len(members))[:, None], where] = _PHASES[products.phase[members]]
        if np.array_equal(z @ z.conj().T, dim * np.eye(len(members))):
            span += len(members)
        else:
            span += _gaussian_rank(
                z.real.astype(np.int64).tolist(), z.imag.astype(np.int64).tolist()
            )
    return span


def _gaussian_rank(re_rows, im_rows):
    """Rank of the matrix re_rows + i im_rows of Gaussian integers.

    Fraction-free (Bareiss) elimination in Python ints: every entry
    after a step is a minor of the original, so the division by the
    previous pivot is exact in Z[i].
    """
    rows = [list(zip(r, i)) for r, i in zip(re_rows, im_rows)]
    width = len(rows[0])
    rank, (qr, qi) = 0, (1, 0)
    for col in range(width):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != (0, 0)), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr, pi = rows[rank][col]
        norm = qr * qr + qi * qi
        for row in rows[rank + 1:]:
            ar, ai = row[col]
            for c in range(col, width):
                br, bi = row[c]
                cr, ci = rows[rank][c]
                # (p b - a c) / q, exact
                xr = pr * br - pi * bi - ar * cr + ai * ci
                xi = pr * bi + pi * br - ar * ci - ai * cr
                row[c] = ((xr * qr + xi * qi) // norm, (xi * qr - xr * qi) // norm)
        qr, qi = pr, pi
        rank += 1
    return rank


def verify_clifford(basis: CliffordBasis):
    """Exact anticommutation check, plus span bookkeeping.

    Even rank up to the enumeration cap: subset products must span the
    full matrix algebra (dimension 4^m).  Odd rank: both summands are
    checked separately and the combined span must be twice a summand's.
    The span dimension is exact, from the subset products' monomial
    normal form; generators that are not monomial over {1, i, -1, -i}
    get span_dim None and fail span_ok.

    The anticommutation check is n(n+1)/2 dense products a b + b a, the
    whole cost past the span cap: 0.6-0.7 s at n = 16 and 4.6-4.9 s at
    n = 17 (dim 512), one BLAS thread on a 2-core Xeon VM.
    """
    report = {"n": basis.n, "failures": _anticommutation_failures(basis.generators)}
    report["anticommutation_ok"] = not report["failures"]
    report["span_dim"] = None
    if basis.n <= _SPAN_CAP:
        try:
            report["span_dim"] = _subset_span_dim(_subset_products(basis.generators))
        except ValueError:
            pass  # not monomial: no exact span, so span_ok is False
        m = basis.n // 2
        if basis.is_odd:
            report["summand_failures"] = _summand_failures(basis)
            report["span_ok"] = report["span_dim"] == 2 * 4 ** m
        else:
            report["span_ok"] = report["span_dim"] == 4 ** m
    report["ok"] = report["anticommutation_ok"] and report.get("span_ok", True)
    return report


def _summand_coupling(products, size):
    """The largest entry any product puts between the first ``size`` rows
    and columns and the rest: each entry is a unit phase, so 1.0 when a
    row of one summand has its column in the other, else 0.0."""
    rows = np.arange(products.cols.shape[1]) < size
    return float(((products.cols < size) != rows).any())


def odd_direct_sum(m):
    """Structure report for the doubled odd-rank algebra.

    Verifies that the 2m+1 doubled generators produce two exact
    anticommuting summands whose joint span is the full two-block
    algebra, that the volume element (product of all generators) is
    central with opposite scalars in the two blocks, and that every
    subset product, so every element, sends each summand's rows to its
    own columns (the residual, from the normal form): selecting one
    summand is then exactly multiplicative.
    """
    m = _int_arg("m", m, 1, 5)
    basis = brauer_weyl(2 * m + 1)
    products = _subset_products(basis.generators)
    half_dim = basis.dim // 2
    report = {
        "m": m,
        "summand_failures": _summand_failures(basis),
        "span_dim": _subset_span_dim(products),
        "span_full": None,
    }
    report["span_full"] = report["span_dim"] == 2 * 4 ** m

    # The product of all generators is the last subset product.
    volume = products[len(products) - 1]
    report["volume_central"] = all(
        np.array_equal(volume @ g, g @ volume) for g in basis.generators
    )
    # + 0.0 turns the -0.0 real part of the phase -1j into 0.0.
    scalars = volume[0, 0] + 0.0, volume[half_dim, half_dim] + 0.0
    scalar_ok = np.array_equal(volume, np.diag(np.repeat(scalars, half_dim)))
    report["volume_scalars"] = tuple(map(complex, scalars)) if scalar_ok else None

    worst = _summand_coupling(products, half_dim)
    report["projection_homomorphism_residual"] = worst
    report["ok"] = (
        report["summand_failures"] == ([], [])
        and report["span_full"]
        and report["volume_central"]
        and report["volume_scalars"] is not None
        and worst <= 1e-10
    )
    return report


@dataclass(frozen=True)
class SchurCoverGens:
    """Transposition matrices t_1..t_m; ``schur_transpositions`` makes
    them float64 (every entry is real)."""

    m: int
    t: tuple = field(repr=False)


def schur_transpositions(m):
    """Transposition matrices on 2^m dimensions.

    t_k = sqrt((k-1)/2k) E_{k-1} - sqrt((k+1)/2k) E_k for k = 1..m,
    using only the sigma_1 family E_1..E_m of the rank-2m generator
    basis (its sigma_2 half is never built); the first coefficient
    vanishes at k = 1, so t_1 = -E_1.  Each E_k is one ``_monomial`` with
    phase 1, so E_k and t_k are float64, and t_k is formed in the
    formula's order, a E_{k-1} + (-b E_k).  Nothing is verified here:
    ``verify_tn_relations`` reports the realized scalars of the
    square/braid/far-commutation relations.
    """
    m = _int_arg("m", m, *_COVER_M)
    # E_k is built as t_k needs it, so only E_{k-1} is held.
    ts, prev = [], None
    for k in range(1, m + 1):
        bit = 1 << (m - k)
        e_k = _monomial(m, bit, (1 << m) - 2 * bit, 1)
        t_k = -math.sqrt((k + 1) / (2 * k)) * e_k
        if k > 1:
            t_k = math.sqrt((k - 1) / (2 * k)) * prev + t_k
        ts.append(t_k)
        prev = e_k
    return SchurCoverGens(m, tuple(ts))


def _ratio(p, r):
    """The scalar s with p = s r, read as vdot(r, p) / vdot(r, r), or None
    unless max|p - s r| <= 1e-12 max(1, max|p|); a NaN fails.  p and r
    are row layers, read merged onto the union of their positions;
    outside it both are 0, so the residual there is |0 - s 0|, which is
    0 unless s is not finite."""
    keys, where = np.unique(np.concatenate([_keys(p[0]), _keys(r[0])]),
                            return_inverse=True)
    split = p[0].size
    p = _sum_at(where[:split], p[1].ravel(), len(keys))
    r = _sum_at(where[split:], r[1].ravel(), len(keys))
    s = complex(np.vdot(r, p) / np.vdot(r, r))
    # For real p and r, s is real and the residual stays float64.
    residual = p - (s.real if p.dtype == r.dtype == np.float64 else s) * r
    if not (np.max(np.abs(residual), initial=abs(0 * s))
            <= 1e-12 * max(1.0, np.max(np.abs(p), initial=0.0))):
        return None
    return s


def _refuse_wide(widths, n):
    """ValueError unless every product of the relation check gathers at
    most _LAYER_ENTRIES n^2 entries, read from the generators' row widths
    before any product is formed.  A product of rows wa and wb wide
    gathers wa wb n entries and merges to rows at most min(n, wa wb)
    wide.  The widest products are the squares and the braid's
    p = t_j t_(j+1), p p and p^2 p; a far pair is never wider than the
    wider of its squares."""
    bound = _LAYER_ENTRIES * n * n
    members = [(f"t_{k}", (w,), w * w) for k, w in enumerate(widths, start=1)]
    for k, (wa, wb) in enumerate(zip(widths, widths[1:]), start=1):
        p = min(n, wa * wb)
        members.append((f"the braid of t_{k} and t_{k + 1}", (wa, wb),
                        max(wa * wb, p * p, min(n, p * p) * p)))
    for name, row_widths, per_row in members:
        if per_row * n > bound:
            raise ValueError(
                f"transposition relations: {name} with rows "
                f"{' and '.join(map(str, row_widths))} entries wide would form a "
                f"product of {per_row * n} entries, past the bound "
                f"{_LAYER_ENTRIES} n^2 = {bound} (n = {n})")


@np.errstate(over="ignore", invalid="ignore")
def verify_tn_relations(gens: SchurCoverGens):
    """Realized scalars of the three transposition relation classes.

    Reads t_k^2 and the braid cubes (t_j t_{j+1})^3 against the identity,
    and t_k t_l against t_l t_k for far pairs, each through one scalar
    reader, and reports the scalar of each class when it is the same at
    every index.  The report never reconciles the scalars against any
    presentation: it only states what the matrices do.  A scalar within
    its class tolerance of a Gaussian integer is reported as that
    integer; any other is reported as it is.  A class with no members
    (braids below two generators, far pairs below three) reports None; a
    product that is not a finite multiple of its reference fails its
    class.  Every tolerance is relative to max(1, size) of what it
    compares, so a scaled cover passes with scaled scalars.

    Every matrix is held as row layers (``_row_layers``): a generator's
    nonzeros, float64 when all are real and complex128 otherwise, found
    by one scan of each n x n generator; no other n x n matrix is formed.
    A product of rows wa and wb wide gathers wa wb n entries
    (``_product``).  The braid's p = t_j t_(j+1) and p^2 are merged
    (``_merge``, one sort) before the next factor; every product the
    reader takes is merged by the reader, onto the union of its positions
    and its reference's.  The Schur cover's t_k have at most 2 nonzeros a
    row, so p and p^2 are 4 wide and the widest product is p^2 p, 16 n
    entries: the check is O(m^2 n log n), about 6 ms at m = 8, 14 ms at
    m = 9 and 37 ms at m = 10 (56 ms, 0.45 s and 3.6 s with dense
    products; best of five, one BLAS thread).

    Domain: square generators of one size n, whose products could gather
    at most _LAYER_ENTRIES n^2 = 16 n^2 entries (16 generators' worth),
    bounded from the generators' row widths (``_refuse_wide``) before any
    product is formed.  A dense cover more than 16 wide is refused.

    The reader's sums run over the positions held, in layer order, not
    over all n^2 entries in a dense product's order.  A scalar rounded to
    a Gaussian integer keeps its bits, and so does one whose sums are
    exact; a scalar reported as summed may move in the last bit (seen on
    the covers c t with c = 1000 e^(0.3i) and e^(0.7i), and on the
    square of the overflowing 1e100 t at m = 3).

    Raises ValueError for no generators, a non-finite entry, generators
    that are not square of one size, or products past the bound.
    """
    if not gens.t:
        raise ValueError("transposition relations need at least one generator")
    n = np.shape(gens.t[0])[-1] if np.ndim(gens.t[0]) else 0
    if not n or any(np.shape(t) != (n, n) for t in gens.t):
        raise ValueError("transposition matrices must be square and of one size")
    ts = [_row_layers(np.asarray(t)) for t in gens.t]
    # Every entry left out of the layers is 0.
    _finite("transposition matrices", *(vals for _, vals in ts), dtype=complex)
    _refuse_wide([len(cols) for cols, _ in ts], n)
    ident = np.arange(n)[None], np.ones((1, n))
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

    # Each product is built as the reader takes it; the braid's p^2 is
    # merged before its third factor.
    report["s1"] = collect("square", [_ratio(_product(t, t), ident) for t in ts])
    report["s2"] = collect("braid", [
        _ratio(_product(_merge(_product(p := _merge(_product(a, b)), p)), p), ident)
        for a, b in zip(ts, ts[1:])])
    report["s3"] = collect("far_commute", [
        _ratio(_product(ts[k], ts[l]), _product(ts[l], ts[k]))
        for k in range(len(ts)) for l in range(k + 2, len(ts))])
    report["ok"] = not report["failures"]
    return report


def transposition_homomorphism_report(m):
    """Sign-projective homomorphism check onto plain permutations.

    Words in t_1..t_m of length 1 to 4 are mapped to products of the
    underlying transpositions (k, k+1) on m+1 points; all matrix words
    landing on the same permutation must agree up to an overall sign.
    The words are grouped by permutation first, as tuples; each group's
    first word is the reference the others are compared with, so at most
    two word matrices are held at once.

    Domain: m from 2 to 8 (m = 8 forms 4680 words of 256-wide products,
    about 9.5 s); a larger m is a ValueError before the cover is built.
    """
    m = _int_arg("m", m, 2, 8)
    gens = schur_transpositions(m)
    words_of = {}
    for length in range(1, _WORD_LEN + 1):
        for word in itertools.product(range(m), repeat=length):
            perm = list(range(m + 1))
            for k in word:
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
            words_of.setdefault(tuple(perm), []).append(word)
    ident = np.eye(gens.t[0].shape[0])

    def product(word):
        mat = ident
        for k in word:
            mat = mat @ gens.t[k]
        return mat

    worst = 0.0
    for words in words_of.values():
        ref = product(words[0])
        for word in words[1:]:
            mat = product(word)
            worst = max(worst, min(float(np.max(np.abs(mat - ref))),
                                   float(np.max(np.abs(mat + ref)))))
    return {
        "m": m,
        "max_word_len": _WORD_LEN,
        "distinct_permutations": len(words_of),
        "max_sign_mismatch": worst,
        "ok": worst <= 1e-12,
    }
