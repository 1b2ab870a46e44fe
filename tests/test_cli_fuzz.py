"""Fuzz of the command line over argv.

The fast verbs run with their numeric tokens kept or perturbed: nan, inf,
zero, negative values, +-1e308 (whose products overflow), text that is no
number, lists with one value too few or too many, and the token with a '-'
in front (a list that begins with '-' looks like an option to argparse); a
token may also go missing.  Whatever the input, the exit code keeps its
meaning: 0 success, 1 a property failure, 2 an input error, no traceback
escapes and no bare "math domain error" or "math range error" is reported.  Of these verbs only
``curve integrate --oracle`` checks a property, so only it may exit 1.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from subriemann.cli import main  # noqa: E402

_BAD = ["nan", "inf", "-inf", "0", "-0.0", "-1", "-0.5", "0.5", "1", "2", "", "x",
        "1e308", "-1e308"]


def _number(base):
    """A numeric token: ``base`` as given, or perturbed."""
    parts = base.split(",")

    def replace(k, bad):
        return ",".join(parts[:k] + [bad] + parts[k + 1:])

    perturbed = st.one_of(
        st.sampled_from(_BAD),
        st.builds(replace, st.integers(0, len(parts) - 1), st.sampled_from(_BAD)),
        st.sampled_from([",".join(parts[:-1]), base + ",0", "-" + base]))
    # kept half the time, so that runs with several numeric tokens still pass
    # the parser often enough to reach the verb
    return st.booleans().flatmap(lambda keep: st.just(base) if keep else perturbed)


def _flag(name):
    return st.sampled_from([[], [name]])


def _argv(*pieces):
    """One argv: each piece is a token, a strategy of a token, or a
    strategy of a list of tokens."""
    drawn = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in pieces]
    return st.tuples(*drawn).map(
        lambda toks: [t for tok in toks for t in (tok if isinstance(tok, list) else [tok])])


_NAMES = st.sampled_from(["rt", "heisenberg", "su2", "sasakian", "sigma_c", "xy_wave",
                          "no-such-name"])

_VERBS = st.one_of(
    _argv("structure", "info", _NAMES, _flag("--json")),
    _argv("catalog", "show", st.sampled_from([[], ["rt"], ["sigma_a"], ["no-such-name"]]),
          _flag("--json")),
    _argv("classify", "--c2", _number("1"), "--c3", _number("-2"), _flag("--json")),
    _argv("curve", "integrate", "--structure", "rt", "--init", _number("0.1,0.2,0.3"),
          "--phi", _number("0.3"), "--lambda", _number("0"), "--range", _number("0,0.05"),
          "--step", _number("0.01"), _flag("--geodesic"),
          st.one_of(st.just([]), _argv("--oracle", "--oracle-tol", _number("1e-8")))),
    _argv("surface", "analyze", "--surface", "sigma_c", "--grid", _number("3"),
          "--region", _number("0.5,1,0.5,1,0.5,1"), _flag("--json")),
)


@st.composite
def _fuzzed_argv(draw):
    argv = draw(_VERBS)
    if draw(st.booleans()) and draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:   # argparse rejects the input
            code = stop.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_fuzzed_argv())
# phi' = -|c1| lambda overflows within the first step
@example(["curve", "integrate", "--structure", "rt", "--init", "0.1,0.2,0.3", "--phi", "0.3",
          "--lambda", "1e308", "--range", "0,0.05", "--step", "0.01"])
# the oracle's distance from a point near s = 1e308 overflows
@example(["curve", "integrate", "--structure", "rt", "--init", "0.1,0.2,0.3", "--phi", "0",
          "--lambda", "0", "--range", "1e308,0.05", "--step", "1e308", "--oracle",
          "--oracle-tol", "1e-8"])
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(argv):
    code, err = _run(argv)   # an escaping exception fails the test here
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert "math domain error" not in err and "math range error" not in err
    if code == 1:
        assert argv[:2] == ["curve", "integrate"] and "--oracle" in argv
        assert "max oracle deviation" in err
