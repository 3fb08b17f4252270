"""Property test of the CLI contract over generated argument lists.

Whatever the arguments, ``zfun`` and ``verify cg`` exit 0, 1 or 2; a
report on stdout is strict JSON or CSV with numeric cells, and a usage
error (exit 2) prints nothing on stdout.
"""

import contextlib
import csv
import io
import json

import pytest

from helirep.cli import main
from helirep.halfint import half

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_NUMBERS = st.one_of(
    st.sampled_from(["0", "-1", "-.5", "-0.0", "-1e-3", "2.5e-1", "1e-300"]),
    st.floats(min_value=-4.0, max_value=4.0).map(repr),
    st.floats(min_value=-4.0, max_value=4.0).map("{:.3e}".format),
    st.sampled_from(["nan", "-inf", "1e400", "x", ""]),
)
_JUNK_LABELS = st.sampled_from(["1/3", "banana", "-", "0.5", "9/2"])
_GRIDS = st.one_of(
    st.tuples(_NUMBERS, _NUMBERS, st.integers(min_value=-1, max_value=6)).map(
        lambda parts: ":".join(map(str, parts))
    ),
    st.sampled_from(["-1:1:3", "0:1", "a:b:c"]),
)
_FORMATS = st.sampled_from(["json", "csv", "json", "csv", "xml"])  # mostly valid


@st.composite
def _option(draw, name, values):
    """``--name value`` as two tokens or one, or nothing at all."""
    value = draw(values)
    return draw(st.sampled_from([[], [name, value], [f"{name}={value}"]]))


@st.composite
def _argv(draw):
    if draw(st.booleans()):
        twice = draw(st.integers(min_value=0, max_value=5))
        valid = st.sampled_from([str(half(t)) for t in range(-twice, twice + 1, 2)])
        labels = st.one_of(valid, valid, valid, _JUNK_LABELS)  # mostly valid
        argv = ["zfun", "--l", str(half(twice))]
        for name, values in (("--m", labels), ("--n", labels),
                             ("--theta", _NUMBERS), ("--tau", _NUMBERS),
                             ("--grid", _GRIDS)):
            argv += draw(_option(name, values))
    else:
        argv = ["verify", "cg"] + draw(_option("--tol", _NUMBERS))
    return argv + draw(_option("--format", _FORMATS))


def _check_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) >= 2
    header = rows[0]
    numeric = [i for i, name in enumerate(header)
               if name not in ("l", "m", "n", "suite", "check", "ok")]
    for row in rows[1:]:
        assert len(row) == len(header)
        for i in numeric:
            float(row[i])


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(_argv())
def test_exit_code_and_output_contract(no_env_tolerance, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    text = out.getvalue()
    if code == 2:
        assert text == ""
        return
    if "csv" in argv or "--format=csv" in argv:
        _check_csv(text)
    else:
        report = json.loads(
            text, parse_constant=lambda name: pytest.fail(f"{name} in {argv}")
        )
        assert report["command"] == argv[0]


@pytest.fixture(scope="module")
def no_env_tolerance():
    """Keep a tolerance exported in the environment out of ``verify``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("HELIREP_TOL", raising=False)
        yield
