"""Infinitesimal-operator realizations and the maps between them.

Two operator builders share one labeled-matrix container: ladder
operators on a two-spin (l, ldot) carrier, whose (l, 0) case is the
rotation/boost sextet on a single spin, and the block-tridiagonal pair
coupling adjacent spins on a multi-spin carrier.  A relation checker
measures how well a given operator set satisfies the algebra it claims
to realize.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import CMatrix, Labels, RepLabel, enumerate_basis
from .halfint import _weights, mrange
from .kernels import _dense_rows


def _alpha(l, m):
    """Ladder weight sqrt((l+m)(l-m+1)), from twice the labels."""
    return math.sqrt((l.twice + m.twice) * (l.twice - m.twice + 2)) / 2


def _ladder(l):
    """(J+, J-, J3) on the spin-l carrier as dense arrays, m descending.

    J+ raises m with weight _alpha(l, m+1), J- is its transpose and J3 is
    diag(m); every generator family below is a linear combination of them.
    """
    _dense_rows(l.twice + 1)
    ms = mrange(l)
    jp = np.diag([_alpha(l, m) for m in ms[:-1]], 1)
    return jp, jp.T, np.diag([float(m) for m in ms])


def _tower_link(l, step):
    """(V+, V-, V3) from the spin-l tower to the spin-(l + step) tower as
    dense arrays, m descending on both sides.

    These are the m-dependent weights of every rank-1 tensor operator
    between adjacent towers (Wigner-Eckart): V3 keeps m, V+ raises it by
    one and V- lowers it.  Step 0 is the ladder; step -1 carries
    sqrt(l^2 - m^2), sqrt((l-m)(l-m-1)) and sqrt((l+m)(l+m-1)) at the
    source projection m; step +1 is the transpose of step -1 from tower
    l+1 with V+ and V- swapped.
    """
    if step == 0:
        return _ladder(l)
    if step == 1:
        vp, vm, v3 = _tower_link(l + 1, -1)
        return vm.T, vp.T, v3.T
    lt = l.twice
    _dense_rows(lt + 1)
    mt = np.arange(lt, -lt - 1, -2)
    rows = np.arange(lt - 1)
    out = []
    # V+, V-, V3 in turn: target row i (m = l-1-i) takes its source at
    # column i + shift; prod is four times the radicand, in twice-ints.
    for shift, prod in ((2, (lt - mt) * (lt - mt - 2)),
                        (0, (lt + mt) * (lt + mt - 2)),
                        (1, (lt - mt) * (lt + mt))):
        block = np.zeros((lt - 1, lt + 1))
        block[rows, rows + shift] = np.sqrt(prod[rows + shift]) / 2
        out.append(block)
    return tuple(out)


# ---------------------------------------------------------------------------
# Ladder operators on the (l, ldot) carrier

_LADDER_KINDS = ("X+", "X-", "X3", "Y+", "Y-", "Y3")


def waerden_ops(l, ldot):
    """The six ladder operators on the two-spin weight basis as a dict.

    X+, X-, X3 act on the dotted projection and Y+, Y-, Y3 on the
    undotted one.  Raising/lowering entries carry the usual
    sqrt((j±m)(j∓m+1)) weights; the 3-components are diagonal in the
    respective projection.  On the basis order of `enumerate_basis`
    (m outer, mdot inner) Y is J ⊗ 1 and X is 1 ⊗ J.
    """
    (l,), (ldot,) = _weights(l), _weights(ldot)
    _dense_rows((l.twice + 1) * (ldot.twice + 1))
    basis = Labels(enumerate_basis(l, ldot))
    stack = [np.kron(np.eye(l.twice + 1), j) for j in _ladder(ldot)]
    stack += [np.kron(j, np.eye(ldot.twice + 1)) for j in _ladder(l)]
    return {kind: CMatrix(data, basis) for kind, data in zip(_LADDER_KINDS, stack)}


# ---------------------------------------------------------------------------
# Block-tridiagonal operators on a spin tower


def _gn_diag_coef(l0, l1, l):
    """i * l0 * l1 / (l (l+1)); only called for l > 0."""
    lf = float(l)
    return 1j * float(l0) * float(l1) / (lf * (lf + 1.0))


def _gn_link_coef(l0, l1, l):
    """(i/l) sqrt((l^2-l0^2)(l^2-l1^2)/(4l^2-1)); real for |l0| < l < l1."""
    lf, l0f, l1f = float(l), float(l0), float(l1)
    rad = (lf * lf - l0f * l0f) * (lf * lf - l1f * l1f) / (4 * lf * lf - 1.0)
    return (1j / lf) * cmath.sqrt(rad)


# Sign of the link coefficient on F's (V+, V-, V3) blocks, by tower step.
_GN_LINK_SIGNS = {-1: (1, -1, 1), 1: (1, -1, -1)}


def gn_ops(rep: RepLabel):
    """The compact (H) and boost (F) generators on the spin-tower carrier
    of ``rep`` as a dict keyed H+, H-, H3, F+, F-, F3.

    The irrep (l1, l2) is Gel'fand-Naimark's (l0, l1 + l2 + 1) with
    l0 = l2 - l1, signed; its towers, rows labeled (l, m), are laid out
    as `RepLabel.tower_slices` states.  A block-tridiagonal assembly over
    them, filled in one pass: H+, H-, H3 are the ladder on each tower;
    F+, F-, F3 are -(diagonal coefficient) times the ladder on each tower
    plus the signed link coefficient times the `_tower_link` block to
    each neighbouring tower.  The diagonal coefficient is undefined at
    l = 0, where the ladder vanishes.
    """
    dim = _dense_rows(rep.dim)
    l0, l1 = rep.l2 - rep.l1, rep.l1 + rep.l2 + 1
    rows = rep.tower_slices()
    data = np.zeros((6, dim, dim), dtype=complex)
    h, f = data[:3], data[3:]
    for l, span in rows.items():
        ladder = np.array(_ladder(l))
        h[:, span, span] = ladder
        if l > 0:
            f[:, span, span] = -_gn_diag_coef(l0, l1, l) * ladder
        for step in (-1, 1):
            if l + step in rows:
                link = _gn_link_coef(l0, l1, max(l, l + step))
                for part, sign, block in zip(f, _GN_LINK_SIGNS[step],
                                             _tower_link(l, step)):
                    part[rows[l + step], span] = (link if sign > 0 else -link) * block
    basis = Labels((l, m) for l in rows for m in mrange(l))
    return {kind: CMatrix(part, basis)
            for kind, part in zip(("H+", "H-", "H3", "F+", "F-", "F3"), data)}


# ---------------------------------------------------------------------------
# Basis change between the tower pair and the two commuting families


def _require(ops, *tags):
    for t in tags:
        if t not in ops:
            raise KeyError(f"missing operator {t!r}")
    return [ops[t] for t in tags]


def basis_change(gn):
    """Map the (H, F) tower pair to the two commuting families.

    Applies the linear combinations Y_a = -(F_a + iH_a)/2 and
    X_a = (F_a - iH_a)/2 for a in {+, -, 3}, then forms the Cartesian
    components and the rotation/boost set A_k = X_k + Y_k,
    B_k = -i(X_k - Y_k).
    """
    hp, hm, h3, fp, fm, f3 = _require(gn, "H+", "H-", "H3", "F+", "F-", "F3")
    out = {
        "Y+": -0.5 * (fp + 1j * hp),
        "Y-": -0.5 * (fm + 1j * hm),
        "Y3": -0.5 * (f3 + 1j * h3),
        "X+": 0.5 * (fp - 1j * hp),
        "X-": 0.5 * (fm - 1j * hm),
        "X3": 0.5 * (f3 - 1j * h3),
    }
    c = _FLAVORS["antihermitian"][1]
    for fam in ("X", "Y"):
        cart = _cartesian(out[f"{fam}+"], out[f"{fam}-"], out[f"{fam}3"], c)
        out[f"{fam}1"], out[f"{fam}2"] = cart["1"], cart["2"]
    out.update(ab_from_families(out))
    return out


# ---------------------------------------------------------------------------
# Relation checking

_LORENTZ_RELATIONS = (
    ("A1", "A2", "A3", 1),
    ("A2", "A3", "A1", 1),
    ("A3", "A1", "A2", 1),
    ("B1", "B2", "A3", -1),
    ("B2", "B3", "A1", -1),
    ("B3", "B1", "A2", -1),
    ("A1", "B1", None, 0),
    ("A2", "B2", None, 0),
    ("A3", "B3", None, 0),
    ("B1", "A1", None, 0),
    ("B2", "A2", None, 0),
    ("B3", "A3", None, 0),
    ("A1", "B2", "B3", 1),
    ("A1", "B3", "B2", -1),
    ("A2", "B3", "B1", 1),
    ("A2", "B1", "B3", -1),
    ("A3", "B1", "B2", 1),
    ("A3", "B2", "B1", -1),
)


def relation_residuals(rows):
    """{label: max |[a, b] - want|} over rows (label, a, b, want).

    A ``want`` of None means the commutator must vanish.  This is the one
    place a commutator becomes a table residual; every relation table of
    the package only builds its rows.
    """
    out = {}
    for label, a, b, want in rows:
        comm = a.commutator(b)
        out[label] = comm.norm_inf() if want is None else comm.residual_vs(want)
    return out


# Ladder flavor -> (s, c, right-hand-side labels): [X3, X+] = s X+,
# [X3, X-] = -s X- and [X+, X-] = 2s X3, and the Cartesian factor
# c = -i/s that turns the family to the anti-Hermitian convention.  An
# all-zero family ("degenerate") is read as the anti-Hermitian one.
_FLAVORS = {
    "hermitian": (1, -1j, ("+{}+", "-{}-", "2{}3")),
    "antihermitian": (-1j, 1, ("-i{}+", "+i{}-", "-2i{}3")),
}
_FLAVORS["degenerate"] = _FLAVORS["antihermitian"]


def _ladder_flavor(x3, xp):
    """Classify [X3, X+] as +X+ (hermitian) or -iX+ (antihermitian)."""
    scale = xp.norm_inf()
    if scale < 1e-14 and x3.norm_inf() < 1e-14:
        return "degenerate"
    scale = max(scale, 1e-30)
    comm = x3.commutator(xp)
    r_h, r_a = (comm.residual_vs(_FLAVORS[f][0] * xp) / scale
                for f in ("hermitian", "antihermitian"))
    return "hermitian" if r_h <= r_a else "antihermitian"


def _cartesian(plus, minus, three, c):
    """Cartesian components c(X+ + X-)/2, -ic(X+ - X-)/2 and cX3."""
    return {"1": 0.5 * c * (plus + minus), "2": -0.5j * c * (plus - minus),
            "3": c * three}


def _cartesianize(ops, fam):
    """Cartesian components of one family, anti-Hermitian flavor."""
    if f"{fam}1" in ops and f"{fam}2" in ops and f"{fam}3" in ops:
        return {k: ops[f"{fam}{k}"] for k in "123"}, "cartesian"
    plus, minus, three = _require(ops, f"{fam}+", f"{fam}-", f"{fam}3")
    flavor = _ladder_flavor(three, plus)
    return _cartesian(plus, minus, three, _FLAVORS[flavor][1]), flavor


def _lorentz_rows(ops):
    for a, b, rhs, coef in _LORENTZ_RELATIONS:
        A, B = _require(ops, a, b)
        want = None if rhs is None else coef * _require(ops, rhs)[0]
        yield f"[{a},{b}]={'-' if coef < 0 else ''}{rhs or 0}", A, B, want


_PRINTED = "printed [X2,X1]=X2"


def commutator_report(ops, relation_set):
    """Per-relation residuals for one relation set.

    relation_set:
      - "lorentz": the 18 rotation/boost commutators of the A/B family.
      - "su2_pair": closure of each of the two commuting families plus
        all cross-commutators; ladder inputs are converted to Cartesian
        components first (the conversion that makes a family close
        depends on whether its ladder is Hermitian- or anti-Hermitian-
        flavored, so the flavor is detected and reported).
      - "ladder": raw ladder relations of both families plus the cross
        commutators, with flavor detection.
    """
    report = {"relation_set": relation_set, "residuals": {}}
    if relation_set == "lorentz":
        rows = _lorentz_rows(ops)
    elif relation_set == "su2_pair":
        (x, xf), (y, yf) = _cartesianize(ops, "X"), _cartesianize(ops, "Y")
        report["flavor"] = {"X": xf, "Y": yf}
        rows = [(f"[{fam}{a},{fam}{b}]={fam}{r}", c[a], c[b], c[r])
                for fam, c in (("X", x), ("Y", y))
                for a, b, r in ("123", "231", "312")]
        rows += [(f"[X{i},Y{j}]=0", x[i], y[j], None) for i in "123" for j in "123"]
        # The doubtful printed variant of the third closure relation,
        # evaluated alongside the cyclic one it is suspected to be.
        rows.append((_PRINTED, x["2"], x["1"], x["2"]))
    elif relation_set == "ladder":
        fams = {fam: _require(ops, f"{fam}3", f"{fam}+", f"{fam}-") for fam in "XY"}
        report["flavor"] = {fam: _ladder_flavor(three, plus)
                            for fam, (three, plus, _) in fams.items()}
        rows = []
        for fam, (three, plus, minus) in fams.items():
            s, _, (up, down, cross) = _FLAVORS[report["flavor"][fam]]
            rows += [(f"[{fam}3,{fam}+]={up.format(fam)}", three, plus, s * plus),
                     (f"[{fam}3,{fam}-]={down.format(fam)}", three, minus, -s * minus),
                     (f"[{fam}+,{fam}-]={cross.format(fam)}", plus, minus, 2 * s * three)]
        rows += [(f"[{a},{b}]=0", ops[a], ops[b], None)
                 for a in ("X3", "X+", "X-") for b in ("Y3", "Y+", "Y-")]
    else:
        raise ValueError(f"unknown relation set {relation_set!r}")
    res = report["residuals"] = relation_residuals(rows)
    if relation_set == "su2_pair":
        printed = res.pop(_PRINTED)
        cyclic = res["[X3,X1]=X2"]
        report["third_relation"] = {
            _PRINTED: printed,
            "cyclic [X3,X1]=X2": cyclic,
            "holds": "cyclic" if cyclic <= printed else "printed",
        }
    report["max_residual"] = max(res.values()) if res else 0.0
    return report


def ab_from_families(ops):
    """Assemble the rotation/boost sextet A_k = X_k + Y_k,
    B_k = -i(X_k - Y_k) from a two-family operator set.

    Accepts Cartesian components directly or ladder components, which
    are converted first (Hermitian-flavored ladders are rotated to the
    anti-Hermitian convention so the assembled set satisfies the
    rotation/boost relations).
    """
    x, _ = _cartesianize(ops, "X")
    y, _ = _cartesianize(ops, "Y")
    out = {}
    for k in "123":
        out[f"A{k}"] = x[k] + y[k]
        out[f"B{k}"] = -1j * (x[k] - y[k])
    return out


def split_families(ab_ops):
    """Project a rotation/boost sextet onto its two commuting families.

    X_k = (A_k + iB_k)/2 and Y_k = (A_k - iB_k)/2.  For the single-spin
    sextet `helicity_ops` (the (l, 0) carrier) the X family vanishes
    identically and Y_k = A_k; on the (0, l) carrier Y vanishes instead.
    """
    a = _require(ab_ops, "A1", "A2", "A3")
    b = _require(ab_ops, "B1", "B2", "B3")
    out = {}
    for k, (ak, bk) in enumerate(zip(a, b), start=1):
        out[f"X{k}"] = 0.5 * (ak + 1j * bk)
        out[f"Y{k}"] = 0.5 * (ak - 1j * bk)
    return out


def helicity_ops(l):
    """The six rotation/boost operators at spin l as a dict keyed A1..B3.

    This is the (l, 0) view of the two-spin ladders: on that carrier the
    X family vanishes and the Cartesian map turns the Y ladder into
    A_k = -i J_k and B_k = J_k, labeled by the carrier's `BasisIndex`.
    """
    return ab_from_families(waerden_ops(l, 0))
