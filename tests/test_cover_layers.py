"""Property tests of the row-layer products that carry the transposition
relation check: a merged layered product, made dense, is the matrix
product."""

import numpy as np
import pytest

from helirep.clifford import _merge, _product, _row_layers

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_INTEGERS = st.integers(min_value=-3, max_value=3).filter(bool)
_FLOATS = st.floats(min_value=0.25, max_value=4.0) | st.floats(min_value=-4.0,
                                                                max_value=-0.25)
_KINDS = {
    "integer": _INTEGERS,
    "real": _FLOATS,
    "complex": st.builds(complex, _FLOATS, _FLOATS),
}


def dense(layers):
    """The n x n matrix of row layers: row i sums vals[j, i] at cols[j, i]."""
    cols, vals = layers
    n = cols.shape[1]
    out = np.zeros((n, n), dtype=vals.dtype)
    np.add.at(out, (np.broadcast_to(np.arange(n), cols.shape), cols), vals)
    return out


@st.composite
def matrices(draw, n, values):
    """An n x n matrix with 0 to 4 nonzeros per row; sometimes all zero."""
    out = np.zeros((n, n), dtype=complex)
    if draw(st.booleans()) and draw(st.booleans()):
        return out
    for i in range(n):
        for j in draw(st.sets(st.integers(0, n - 1), max_size=min(4, n))):
            out[i, j] = draw(values)
    return out


@st.composite
def factor_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    kinds = [draw(st.sampled_from(sorted(_KINDS))) for _ in range(2)]
    a, b = (draw(matrices(n, _KINDS[kind])) for kind in kinds)
    if "complex" not in kinds:
        a, b = a.real, b.real
    return kinds, a, b


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(factor_pairs())
def test_merged_product_is_the_matrix_product(pair):
    kinds, a, b = pair
    merged = _merge(_product(_row_layers(a), _row_layers(b)))
    got, want = dense(merged), a @ b
    if kinds == ["integer", "integer"]:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-15 * (np.abs(a) @ np.abs(b)))
    cols, vals = merged
    n = len(a)
    # No row is wider than n or wa wb; each row holds its positions once,
    # then pads with value 0 at its first column.
    width = np.count_nonzero(a, axis=1).max() * np.count_nonzero(b, axis=1).max()
    assert len(cols) <= min(n, width)
    for c, v in zip(cols.T, vals.T):
        held = len(set(c.tolist()))
        assert len(set(c[:held].tolist())) == held
        assert (c[held:] == c[:1]).all() and not v[held:].any()


@pytest.mark.parametrize("dtype", [float, complex])
def test_empty_rows_and_the_zero_matrix(dtype):
    a = np.array([[0, 2, 0], [0, 0, 0], [1, 0, -1]], dtype=dtype)
    zero = np.zeros((3, 3), dtype=dtype)
    layers = _row_layers(a)
    # The empty row 1 is one slot of value 0 on its diagonal.
    assert layers[0][:, 1].tolist() == [1, 1] and not layers[1][:, 1].any()
    assert _row_layers(zero)[0].shape == (0, 3)
    for x, y in [(a, a), (a, zero), (zero, a), (zero, zero)]:
        assert np.array_equal(dense(_merge(_product(_row_layers(x), _row_layers(y)))),
                              x @ y)
