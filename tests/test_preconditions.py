"""Every row of the precondition table is enforced by `check`, by the proof
trace of the same inequality, by the prop3 calibration and by the CLI."""

import re

import pytest

from ineqlab.cli import main
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec
from ineqlab.inequalities import PRECONDITIONS, calibrate, check
from ineqlab.traces import layer_cake_trace, prop2_trace, prop3_trace, prop5_trace

# statement -> (d, stripe parameters) of an 8^d field that violates that
# statement and satisfies every other row of the ids it appears in
VIOLATIONS = {
    "mean(u) = 0": (2, "width=4,high=1,low=0"),
    "d = 2": (1, "width=4,zero_mean=1"),
    "u >= -1": (2, "width=4,high=3,low=-3"),
    "binary {0,1} field": (2, "width=4,high=0.5,low=0"),
    "0 < fraction < 1/2": (2, "width=6,high=1,low=0"),
    "u >= 0": (2, "width=4,high=2.5,low=-0.5"),
    "mean(u) = 1": (2, "width=4,high=2,low=2"),
}
TRACES = {
    "prop1": layer_cake_trace,
    "prop2": prop2_trace,
    "prop3": prop3_trace,
    "prop5": lambda u: prop5_trace(u, u, 1.0),
}
ROWS = [(ineq_id, k) for ineq_id, rows in PRECONDITIONS.items() for k in range(len(rows))]


def _family(statement):
    d, params = VIOLATIONS[statement]
    kw = dict(item.split("=") for item in params.split(","))
    return FamilySpec(GridSpec(d, 8, 1.0), "stripe", {k: float(v) for k, v in kw.items()}, 0), d, params


@pytest.mark.parametrize("ineq_id,k", ROWS)
def test_each_row_is_enforced_everywhere(ineq_id, k, tmp_path, capsys):
    rows = PRECONDITIONS[ineq_id]
    statement = rows[k][1]
    fs, d, params = _family(statement)
    u = generate(fs)
    assert [holds(u) for holds, _ in rows] == [i != k for i in range(len(rows))]

    named = re.escape(f"precondition violated: {statement} (got")
    with pytest.raises(ValueError, match=named):
        check(ineq_id, u, u, q=2.0, nu=1.0)
    if ineq_id in TRACES:
        with pytest.raises(ValueError, match=named):
            TRACES[ineq_id](u)
    if ineq_id == "prop3":
        with pytest.raises(ValueError, match=named):
            calibrate("prop3", [fs])

    argv = ["check", "--id", ineq_id, "--family", "stripe", "--d", str(d), "--n", "8",
            "--params", params, "--q", "2", "--nu", "1", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert f"precondition violated: {statement}" in capsys.readouterr().err

