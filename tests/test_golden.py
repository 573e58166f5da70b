"""Golden-file checks: the serialized report formats are frozen.

Regenerating the committed fixtures must reproduce them byte for byte;
any change to the JSON schema or CSV column set fails here first.
"""

import pathlib

from schrodlab.estimates import SWEEP_TABLES, sweep
from schrodlab.reports import grid_spec, read, write_report

GOLDEN = pathlib.Path(__file__).parent / "golden"

CONFIG = {
    "grid": {"n": 2, "box_time": 3.141592653589793,
             "box_space": 3.141592653589793,
             "pts_time": 16, "pts_space": 16},
    "seed": 42,
    "nu_values": [4, 16],
    "family": 2,
    "ceiling": 3.0,
}


def regenerate(tmp_path, fmt):
    values = read(CONFIG, SWEEP_TABLES["gain"])
    report = sweep(CONFIG, values, grid_spec(values["grid"]), None)
    out = tmp_path / f"gain_sweep.{fmt}"
    write_report(report, out, fmt)
    return out.read_bytes()


def test_json_report_matches_golden(tmp_path):
    assert regenerate(tmp_path, "json") == (GOLDEN / "gain_sweep.json").read_bytes()


def test_csv_report_matches_golden(tmp_path):
    assert regenerate(tmp_path, "csv") == (GOLDEN / "gain_sweep.csv").read_bytes()
