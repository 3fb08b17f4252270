"""Wave-equation matrices on chains of interlocking spinor representations.

A chain is an ordered list of (l1, l2) representation labels; two links
interlock when both weights differ by exactly one half step.  The
longitudinal matrix is assembled from a reduced coefficient table — one
complex number per (rep pair, spin-tower pair) — stretched over the
projection quantum number by the rank-1 tower weights of
`generators._tower_link`; the transverse pair is recovered by
commutators with the rotation generators.  The module verifies the
full rotation/boost invariance tables in both the plain and conjugate
sectors, the ladder-form identities they imply, the projection-block
structure, and decomposability of the chain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import CMatrix, Labels, RepLabel
from .generators import (_FLAVORS, _cartesian, _ladder, _tower_link,
                         relation_residuals)
from .halfint import HalfInt, half, mrange
from .kernels import _components, _dense_rows, _finite, _int_arg


class ChainIndex(NamedTuple):
    """Basis label (rep position k; spin tower l, projection m)."""

    k: int
    l: HalfInt
    m: HalfInt

    def __str__(self):
        return f"[{self.k}]({self.l},{self.m})"


def is_interlocking(a: RepLabel, b: RepLabel):
    """True when both representation weights shift by exactly 1/2."""
    return (
        abs(a.l1.twice - b.l1.twice) == 1 and abs(a.l2.twice - b.l2.twice) == 1
    )


@dataclass(frozen=True)
class RepChain:
    """Ordered representations with their interlocking link set."""

    reps: tuple

    def __init__(self, reps):
        reps = tuple(
            r if isinstance(r, RepLabel) else RepLabel(*r) for r in reps
        )
        if not reps:
            raise ValueError("chain needs at least one representation")
        object.__setattr__(self, "reps", reps)
        _dense_rows(self.dim)
        # The carrier labels, built once with the chain (see `basis`).
        object.__setattr__(self, "_basis", Labels(
            ChainIndex(k, l, m) for k, l in self.tower_slices() for m in mrange(l)))

    @property
    def links(self):
        """Unordered interlocking pairs (i, j), i < j."""
        return tuple(
            (i, j)
            for i in range(len(self.reps))
            for j in range(i + 1, len(self.reps))
            if is_interlocking(self.reps[i], self.reps[j])
        )

    @property
    def top_spin(self):
        """The largest tower spin over the chain."""
        return max(l for rep in self.reps for l in rep.tower_spins())

    def tower_slices(self):
        """{(k, l): slice} of each tower's rows on the chain carrier:
        rep-major, each rep's `RepLabel.tower_slices` shifted to its first
        row."""
        out, start = {}, 0
        for k, rep in enumerate(self.reps):
            for l, span in rep.tower_slices().items():
                out[k, l] = slice(start + span.start, start + span.stop)
            start += rep.dim
        return out

    def basis(self):
        """Chain carrier labels in the order of `tower_slices`, as a list.

        The labels are built once per chain, as one `core.Labels` that
        every matrix of the chain shares, so their products and compares
        match labels by identity, not field by field.
        """
        return list(self._basis)

    @property
    def dim(self):
        return sum(r.dim for r in self.reps)


def classify(chain: RepChain):
    """Connected components of the interlocking graph with verdicts.

    A component holding two or more linked representations is
    indecomposable; an isolated representation is decomposable.
    """
    groups = {}
    for k, component in enumerate(_components(len(chain.reps), chain.links)):
        groups.setdefault(component, []).append(k)
    return tuple({"members": tuple(members),
                  "verdict": "indecomposable" if len(members) > 1 else "decomposable"}
                 for members in sorted(groups.values()))


class CoeffTable:
    """Reduced coefficients keyed by (target rep, source rep, l', l).

    Holds one table for the plain sector and one for the conjugate
    sector.  Only tower pairs with |l' - l| <= 1 are representable, and
    every coefficient must be finite.
    """

    def __init__(self, undotted=None, dotted=None):
        self.undotted = self._normalize(undotted or {})
        self.dotted = self._normalize(dotted or {})

    @staticmethod
    def _normalize(table):
        out = {}
        for (kp, k, lp, l), value in table.items():
            lp, l = HalfInt(lp), HalfInt(l)
            if abs(lp.twice - l.twice) > 2:
                raise ValueError(
                    f"coefficient links towers {lp} and {l}, "
                    "more than one step apart"
                )
            value = complex(value)
            _finite(f"coefficient ({kp}, {k}, {lp}, {l})", value, dtype=complex)
            out[(_int_arg("rep", kp, 0), _int_arg("rep", k, 0), lp, l)] = value
        return out


_SECTORS = ("plain", "conjugate")  # of the undotted, then the dotted table
_ROTATION_TOL = 1e-10  # the rotation-table bound of lambda12_from_commutators


def _sector_index(sector):
    """The one gate of sector names: ``sector``'s place in _SECTORS."""
    if sector not in _SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    return _SECTORS.index(sector)


def _stretch(chain, table, sector, weight):
    """The one walk of a sector's coefficient table: each coefficient is
    checked against the chain, then ``value * weight(step, lp, links)``
    is placed on the dense block from tower (k, l) to (kp, lp), where
    step = lp - l and ``links`` are `_tower_link(l, step)`'s (V+, V-, V3)."""
    nreps = len(chain.reps)
    slices = chain.tower_slices()
    data = np.zeros((chain.dim, chain.dim), dtype=complex)
    for (kp, k, lp, l), value in table.items():
        if max(kp, k) >= nreps:  # rep numbers are counts (CoeffTable)
            raise ValueError(f"{sector} coefficient names rep {max(kp, k)}, "
                             f"chain has {nreps}")
        if kp != k and not is_interlocking(chain.reps[kp], chain.reps[k]):
            raise ValueError(
                f"{sector} coefficient on non-interlocking pair ({kp}, {k})"
            )
        if (kp, lp) not in slices or (k, l) not in slices:
            raise ValueError(
                f"{sector} coefficient targets tower ({lp}, {l}) "
                f"absent from reps ({kp}, {k})"
            )
        step = (lp.twice - l.twice) // 2
        data[slices[kp, lp], slices[k, l]] = value * weight(
            step, lp, _tower_link(l, step))
    return data


def assemble_lambda3(chain: RepChain, coeffs: CoeffTable):
    """Longitudinal matrices for both sectors from the coefficient table.

    Each reduced coefficient is stretched over matching projections by
    its towers' V3 block: sqrt(l^2 - m^2) one tower down, m on the tower,
    and sqrt((l+1)^2 - m^2) one tower up.  Everything else is zero.
    """
    def v3(step, lp, links):
        return links[2]

    return tuple(CMatrix(_stretch(chain, table, sector, v3), chain._basis)
                 for table, sector in zip((coeffs.undotted, coeffs.dotted),
                                          _SECTORS))


def _chain_ladder(chain: RepChain):
    """The chain-wide (J+, J-, J3) as dense arrays: each tower's
    `generators._ladder` on its diagonal slice, once per chain."""
    ladder = np.zeros((3, chain.dim, chain.dim))
    for (_, l), span in chain.tower_slices().items():
        ladder[:, span, span] = _ladder(l)
    return ladder


def chain_generators(chain: RepChain):
    """Rotation/boost generator set acting on the chain carrier.

    The chain basis is rep-major, towers ascending, m descending, so the
    chain-wide ladder `_chain_ladder` is block diagonal over the towers;
    the rotation triple is the one Cartesian map of that ladder in the
    Hermitian flavor, A_k = -i J_k, tower by tower.  The boost triple is
    i times it.  The conjugate-sector pair is the negated rotation triple
    together with -i times itself — the sign that closes the conjugate
    invariance tables.
    """
    rots = _cartesian(*_chain_ladder(chain), _FLAVORS["hermitian"][1])
    out = {}
    for i in "123":
        rot = CMatrix(rots[i], chain._basis)
        out[f"A{i}"] = rot
        out[f"B{i}"] = rot * 1j
        out[f"A{i}t"] = -rot
        out[f"B{i}t"] = out[f"A{i}t"] * (-1j)
    return out


# Commutator of generator i with matrix j: None means zero, otherwise
# (target matrix, sign).  Both sectors and both generator families are
# scalar multiples of this one vector-operator pattern.
_VECTOR_PATTERN = {
    (1, 1): None, (2, 1): (3, -1), (3, 1): (2, +1),
    (1, 2): (3, +1), (2, 2): None, (3, 2): (1, -1),
    (1, 3): (2, -1), (2, 3): (1, +1), (3, 3): None,
}

# How a table label prints each right-hand-side scale.
_COEF_STR = {1: "", -1: "-", 1j: "i*", -1j: "-i*"}


def _relations(family, lambdas, gens, tag):
    """The nine relations [G_i, lambda_j] = rhs of one invariance table.

    ``family`` is A, B (plain sector) or At, Bt (conjugate sector); the
    pattern's scale is 1, i, -1 and i respectively.  Yields (label,
    generator, lambda_j, right-hand side, or None where it vanishes).
    """
    letter, suffix = family[0], family[1:]
    factor = 1j if letter == "B" else (-1.0 if suffix else 1.0)
    for (i, j), rhs in _VECTOR_PATTERN.items():
        head = f"[{letter}{i}{suffix},lambda{j}{tag}]="
        gen = gens[f"{letter}{i}{suffix}"]
        if rhs is None:
            yield head + "0", gen, lambdas[j], None
        else:
            target, sign = rhs
            coef = factor * sign
            yield (head + f"{_COEF_STR[coef]}lambda{target}{tag}", gen,
                   lambdas[j], lambdas[target] * coef)


def _sectors(system):
    """The four invariance tables of a system as (family, lambdas, tag)."""
    plain, conj = (dict(enumerate(system.lambda_triple(s), 1)) for s in _SECTORS)
    return (("A", plain, ""), ("B", plain, ""), ("At", conj, "c"), ("Bt", conj, "c"))


def lambda12_from_commutators(lambda3: CMatrix, gens):
    """Transverse pair recovered from the longitudinal matrix.

    The first is the commutator with the second rotation generator,
    the second the commutator of the third with the first.  The whole
    nine-relation rotation table is then verified as a postcondition,
    relative to the largest entry of ``lambda3`` once that passes 1: the
    round-off of a consistent table grows with its coefficients.

    Raises
    ------
    ValueError
        If any rotation-table relation exceeds ``_ROTATION_TOL`` times
        max(1, max|lambda3|) or is NaN — the matrix is then not assembled
        consistently with this generator set.
    """
    lambda1 = gens["A2"].commutator(lambda3)
    lambda2 = gens["A3"].commutator(lambda1)
    rows = relation_residuals(
        _relations("A", {1: lambda1, 2: lambda2, 3: lambda3}, gens, ""))
    # A NaN row (an overflowed matrix) fails too, and is named first.
    worst = max(rows, key=lambda label: (math.isnan(rows[label]), rows[label]))
    if not rows[worst] <= _ROTATION_TOL * max(1.0, lambda3.norm_inf()):
        raise ValueError(
            f"rotation table inconsistency: {worst} has residual "
            f"{rows[worst]:.3e}"
        )
    return lambda1, lambda2


@dataclass(frozen=True)
class GYSystem:
    """A chain, its coefficient table, all six matrices, and the masses."""

    chain: RepChain
    coeffs: CoeffTable
    lambda1: CMatrix
    lambda2: CMatrix
    lambda3: CMatrix
    lambda1c: CMatrix
    lambda2c: CMatrix
    lambda3c: CMatrix
    kappa: complex
    kappa_dot: complex

    def lambda_triple(self, sector="plain"):
        return ((self.lambda1, self.lambda2, self.lambda3),
                (self.lambda1c, self.lambda2c, self.lambda3c))[_sector_index(sector)]


def build_system(chain, coeffs, kappa=1.0, kappa_dot=None):
    """Assemble both longitudinal matrices and recover both triples; a
    non-finite mass ``kappa`` or ``kappa_dot`` is a ValueError."""
    kappa = complex(kappa)
    kappa_dot = kappa if kappa_dot is None else complex(kappa_dot)
    _finite("kappa", kappa, dtype=complex)
    _finite("kappa_dot", kappa_dot, dtype=complex)
    lambda3, lambda3c = assemble_lambda3(chain, coeffs)
    gens = chain_generators(chain)
    lambda1, lambda2 = lambda12_from_commutators(lambda3, gens)
    lambda1c, lambda2c = lambda12_from_commutators(lambda3c, gens)
    return GYSystem(
        chain,
        coeffs,
        lambda1,
        lambda2,
        lambda3,
        lambda1c,
        lambda2c,
        lambda3c,
        kappa,
        kappa_dot,
    )


def verify_invariance(system: GYSystem, tol=1e-10):
    """Residuals of all 36 table relations plus the ten ladder identities.

    Covers the rotation and boost tables in the plain sector, their
    conjugate-sector counterparts, the five ladder-form relations the
    longitudinal matrix satisfies in each sector (commutation with the
    whole opposite family and the double-commutator reproduction), and
    returns every residual alongside the list of violations.

    The rows are not independent.  B = iA, At = -A and Bt = iA on the
    chain carrier, so the B and Bt tables restate A and At (on the
    compare chains all four print the same residuals).  X vanishes in
    the plain sector and Y in the conjugate one, so the six rows
    [lambda3, X*] and [lambda3c, Y*t] read exactly 0.0 whatever the
    coefficients, as do [lambda3, Y3] and [lambda3c, X3t] (m-diagonal
    against m-preserving blocks).  None of the rows can tell a physical
    coefficient table from a wrong one.
    """
    gens = chain_generators(system.chain)
    rows = [row for family, lambdas, tag in _sectors(system)
            for row in _relations(family, lambdas, gens, tag)]
    # The plain sector's lambda3 is a Y-family vector operator and commutes
    # with X; the conjugate sector's swaps the roles.  On the chain carrier
    # Y = -iJ and X = 0 in the plain sector, X = iJ and Y = 0 in the
    # conjugate one (`split_families` of A, B and of At, Bt).
    jp, jm, j3 = _chain_ladder(system.chain)
    zero = CMatrix.zeros(system.chain._basis)
    for l3, tag, own, other, t, scale in (
        (system.lambda3, "", "Y", "X", "", -1j),
        (system.lambda3c, "c", "X", "Y", "t", 1j),
    ):
        name = f"lambda3{tag}"
        up, down, three = (CMatrix(scale * j, zero.row_labels) for j in (jp, jm, j3))
        rows.append((f"[{own}+{t},[{name},{own}-{t}]]=2*{name}", up,
                     l3.commutator(down), l3 * 2.0))
        rows.append((f"[{name},{own}3{t}]=0", l3, three, None))
        rows += [(f"[{name},{other}{k}{t}]=0", l3, zero, None) for k in "-+3"]
    residuals = relation_residuals(rows)
    max_residual = max(residuals.values())
    return {
        "residuals": residuals,
        "max_residual": max_residual,
        "violations": sorted(k for k, v in residuals.items() if v > tol),
        "tolerance": tol,
    }


def extract_spin_blocks(mat: CMatrix, chain: RepChain):
    """Projection blocks of an m-preserving chain matrix.

    Returns one sub-matrix per projection value, each on the labels
    that carry that projection (in carrier order).  A chain label that is
    not on ``mat`` is a ValueError naming it.
    """
    groups = {}
    for label in chain._basis:
        groups.setdefault(label.m, []).append(label)
    blocks = {}
    for m, labels in groups.items():
        idx = np.ix_(mat.row_labels.positions(labels), mat.col_labels.positions(labels))
        blocks[m] = CMatrix(mat.data[idx], labels)
    return blocks


def reassemble_spin_blocks(blocks, chain: RepChain):
    """Inverse of block extraction: place every block back on the carrier
    (a block label that is not on the chain is a ValueError naming it)."""
    out = CMatrix.zeros(chain._basis)
    for block in blocks.values():
        idx = np.ix_(out.row_labels.positions(block.row_labels),
                     out.col_labels.positions(block.col_labels))
        out.data[idx] = block.data
    return out


def spin_content(lambda3: CMatrix, chain: RepChain, tol=1e-9):
    """Which spins the system carries: nonzero roots per spin block.

    The block at projection value s decides spin s; a block with a
    nonzero eigenvalue marks the spin as present.
    """
    blocks = extract_spin_blocks(lambda3, chain)
    out = {}
    for m, block in blocks.items():
        if m.twice < 0:
            continue
        eigs = np.linalg.eigvals(block.data)
        out[m] = bool(np.max(np.abs(eigs)) > tol)
    return out


def gamma_similarity(triple_a, triple_b):
    """Best scale and basis change mapping one matrix triple onto another.

    Finds scalar c and invertible S with A_i = c S B_i S^{-1} jointly
    for all three matrices.  The scale candidates come from the
    similarity-invariant trace of squares; S is the null vector of the
    stacked Sylvester system, taken from an SVD.

    Returns a report with the winning scale, the transform, the joint
    relative residual, and the transform's condition number.
    """
    mats_a = [np.asarray(getattr(a, "data", a), dtype=complex) for a in triple_a]
    mats_b = [np.asarray(getattr(b, "data", b), dtype=complex) for b in triple_b]
    n = mats_a[0].shape[0]
    if any(m.shape != (n, n) for m in mats_a + mats_b):
        raise ValueError("triples must consist of equally sized square matrices")
    trace_a = sum(np.trace(a @ a) for a in mats_a)
    trace_b = sum(np.trace(b @ b) for b in mats_b)
    if abs(trace_b) < 1e-300:
        raise ValueError("reference triple has vanishing trace invariant")
    base = cmath.sqrt(trace_a / trace_b)
    ident = np.eye(n)
    best = None
    for scale in (base, -base):
        rows = [
            np.kron(a, ident) - scale * np.kron(ident, b.T)
            for a, b in zip(mats_a, mats_b)
        ]
        stacked = np.vstack(rows)
        _, svals, vh = np.linalg.svd(stacked)
        transform = vh[-1].conj().reshape(n, n)
        residual = max(
            float(np.linalg.norm(a @ transform - scale * transform @ b))
            for a, b in zip(mats_a, mats_b)
        ) / float(np.linalg.norm(transform))
        if best is None or residual < best["residual"]:
            best = {
                "scale": complex(scale),
                "transform": transform,
                "residual": residual,
                "condition": float(np.linalg.cond(transform)),
                "min_singular_value": float(svals[-1]),
            }
    return best


def weyl_gamma_triple():
    """The three spatial gamma matrices in the chiral 2x2-block form."""
    zero = np.zeros((2, 2), dtype=complex)
    sigmas = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return tuple(np.block([[zero, s], [-s, zero]]) for s in sigmas)


def dirac_chain():
    """The two-rep chain (1/2, 0) + (0, 1/2)."""
    return RepChain((RepLabel(half(1), 0), RepLabel(0, half(1))))


def dirac_coeffs():
    """Coefficient table reproducing the chiral-basis gamma structure."""
    table = {
        (0, 1, half(1), half(1)): 1.0,
        (1, 0, half(1), half(1)): -1.0,
    }
    return CoeffTable(undotted=dict(table), dotted=dict(table))


def dirac_system(kappa=1.0, kappa_dot=None):
    """Built-in preset: the four-component first-order system."""
    return build_system(dirac_chain(), dirac_coeffs(), kappa, kappa_dot)


# ---------------------------------------------------------------------------
# Config-file round trip (reps/coeffs schema; "from"/"to" are 1-based).
# The schema gate: every malformed shape is a ValueError naming its field.


def _typed(value, kinds, where, expected):
    """``value`` if it is one of ``kinds`` (never a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{where} must be {expected}, got {type(value).__name__}")
    return value


def _field(row, key, where):
    if key not in row:
        raise ValueError(f"{where} needs {key!r}")
    return row[key]


def _entries(cfg, key):
    """The list ``cfg[key]`` of JSON objects; a missing key reads as []."""
    rows = _typed(cfg.get(key, []), list, f"'{key}'", "a list")
    for i, row in enumerate(rows):
        _typed(row, dict, f"{key}[{i}]", "a JSON object")
    return rows


def _label(row, key, where):
    value = _typed(_field(row, key, where), (str, int, float), f"{where}.{key}",
                   "a half-integer string or number")
    try:
        return HalfInt(value)
    except ValueError as exc:  # "1/3", NaN, Infinity
        raise ValueError(f"{where}.{key}: {exc}") from None


def _real(value, where):
    value = _typed(value, (int, float), where, "a real number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} is too large for a float") from None


def _pair(cfg, key):
    """The [re, im] mass pair ``cfg[key]`` as a complex number."""
    pair = cfg[key]
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"'{key}' must be a list [re, im] of two real numbers")
    return complex(_real(pair[0], f"{key}[0]"), _real(pair[1], f"{key}[1]"))


def _parse_coeff_rows(cfg, name):
    table = {}
    for i, row in enumerate(_entries(cfg, name)):
        where = f"{name}[{i}]"
        key = (_int_arg(f"{where}.to", _field(row, "to", where), 1) - 1,
               _int_arg(f"{where}.from", _field(row, "from", where), 1) - 1,
               _label(row, "lp", where), _label(row, "l", where))
        table[key] = complex(_real(row.get("re", 0.0), f"{where}.re"),
                             _real(row.get("im", 0.0), f"{where}.im"))
    return table


def system_from_config(cfg: dict):
    """Build a system from the documented chain-config dictionary.

    Schema: ``reps`` (list of {"l1", "l2"} as half-integer strings),
    ``coeffs`` (rows {"from", "to", "lp", "l", "re", "im"} with 1-based
    rep numbers), optional ``dotted`` rows (default: same as coeffs),
    optional ``kappa``/``kappa_dot`` as [re, im] pairs.  A config of
    any other shape is a ValueError that names the offending field.
    """
    _typed(cfg, dict, "chain config", "a JSON object")
    if not cfg.get("reps"):
        raise ValueError("chain config needs a nonempty 'reps' list")
    chain = RepChain(tuple(
        RepLabel(_label(rep, "l1", f"reps[{i}]"), _label(rep, "l2", f"reps[{i}]"))
        for i, rep in enumerate(_entries(cfg, "reps"))))
    undotted = _parse_coeff_rows(cfg, "coeffs")
    dotted = (_parse_coeff_rows(cfg, "dotted") if cfg.get("dotted") is not None
              else dict(undotted))
    kappa = _pair(cfg, "kappa") if "kappa" in cfg else 1.0
    kappa_dot = _pair(cfg, "kappa_dot") if "kappa_dot" in cfg else kappa
    return build_system(chain, CoeffTable(undotted, dotted), kappa, kappa_dot)


def _coeff_rows(table):
    rows = []
    for (kp, k, lp, l), value in sorted(
        table.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].twice, kv[0][3].twice)
    ):
        rows.append(
            {
                "from": k + 1,
                "to": kp + 1,
                "lp": str(lp),
                "l": str(l),
                "re": value.real,
                "im": value.imag,
            }
        )
    return rows


def system_to_config(system: GYSystem):
    """Inverse of `system_from_config` (modulo row ordering)."""
    return {
        "reps": [
            {"l1": str(r.l1), "l2": str(r.l2)} for r in system.chain.reps
        ],
        "coeffs": _coeff_rows(system.coeffs.undotted),
        "dotted": _coeff_rows(system.coeffs.dotted),
        "kappa": [system.kappa.real, system.kappa.imag],
        "kappa_dot": [system.kappa_dot.real, system.kappa_dot.imag],
    }
