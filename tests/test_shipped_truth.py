"""The shipped exclusions against truth: at 10 rC points of each shipped
config, the unit spectrum (lambda = 1) that the bound divides lies
within its reported error of the 30-digit mpmath value in
shipped_truth.csv (written by tools/make_shipped_truth.py).  The miss is
taken exactly, in decimal, so that no rounding hides or makes one."""

import csv
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from cslbounds import exclusion
from cslbounds.config import load_config

with open(Path(__file__).with_name("shipped_truth.csv"),
          encoding="utf-8") as _fh:
    ROWS = list(csv.DictReader(line for line in _fh
                               if not line.startswith("#")))


@pytest.mark.parametrize("row", ROWS, ids=[
    f"{row['experiment']}[{row['index']}]" for row in ROWS])
def test_unit_spectrum_within_its_error_of_truth(row):
    _, inputs = load_config(Path(__file__).parent.parent / "configs"
                            / f"{row['experiment']}.ini")
    [(rec, grid)] = inputs.experiments
    rC = float(grid[int(row["index"])])
    assert repr(rC) == row["rc_m"]
    value, error = exclusion._unit_spectrum(rec, rC, inputs.quadrature)
    with localcontext() as ctx:
        ctx.prec = 80
        miss = abs(Decimal(value) - Decimal(row["unit_spectrum"]))
    assert miss <= Decimal(error), (value, error, row["unit_spectrum"])
