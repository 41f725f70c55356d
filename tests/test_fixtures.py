"""The committed constants: each frozen calibration reproduces its constant,
and the refresh tool prints a block that fixtures.py takes as it is."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from ineqlab import fixtures
from ineqlab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from refresh_fixtures import constants_block  # noqa: E402


@pytest.mark.parametrize("ineq_id", ["prop1", "weak1", "prop2", "weaklog", "geomest"])
def test_frozen_calibration_reproduces_committed_constant(ineq_id, tmp_path):
    out = tmp_path / "cal"
    assert main(["calibrate", "--id", ineq_id, "--frozen", "--out", str(out)]) == 0
    row = (out / "calibration.csv").read_text().splitlines()[1]
    got, want = float(row.split(",")[2]), fixtures.CONSTANTS[ineq_id]
    assert abs(got - want) <= 1e-6 * want


def test_constants_block_is_plain_float_literals():
    values = {k: 0.5 + i for i, k in enumerate(fixtures.CONSTANTS)}
    values["prop2_tail"] = np.float64(0.29978859484089404)
    block = constants_block(values)
    assert block.startswith("CONSTANTS = {")
    parsed = ast.literal_eval(block.split("=", 1)[1])
    assert list(parsed) == list(fixtures.CONSTANTS)
    assert parsed == {k: float(v) for k, v in values.items()}
    assert type(parsed["prop2_tail"]) is float
