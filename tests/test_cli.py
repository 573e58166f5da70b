"""Command-line interface: exit codes, file outputs, determinism."""

import csv
import json
import logging
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from schrodlab import cgo, cli, kernels, parallel
from schrodlab.birman_schwinger import cusp_potential
from schrodlab.cli import (
    EXIT_CONFIG,
    EXIT_NONCONVERGENCE,
    EXIT_PASS,
    EXIT_VERDICT,
    ConfigError,
    build_grid,
    load_config,
    main,
)
from schrodlab.estimates import SWEEP_TABLES, sweep_table
from schrodlab.grid import l2_norm, load_field, random_band_limited, save_field
from schrodlab.reports import COMMON, GRID as GRID_TABLE, REQUIRED, EstimateReport, read

ROOT = pathlib.Path(__file__).resolve().parent.parent

GRID = ("grid:\n  n: 2\n  box_time: 3.141592653589793\n"
        "  box_space: 3.141592653589793\n  pts_time: 16\n  pts_space: 16\n")


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestHelpers:
    def test_load_yaml_and_json(self, tmp_path):
        y = write(tmp_path, "c.yaml", "a: 1\nb: {c: 2}\n")
        j = write(tmp_path, "c.json", json.dumps({"a": 1, "b": {"c": 2}}))
        assert load_config(y) == load_config(j)

    def test_require_missing_key(self):
        with pytest.raises(ConfigError):
            read({"a": 1}, {"a": (int, REQUIRED), "b": (int, REQUIRED)})

    def test_require_wrong_type(self):
        with pytest.raises(ConfigError):
            read({"a": "x"}, {"a": (int, REQUIRED)})

    def test_number_accepts_integral_values(self):
        assert read({"k": 3}, {"k": (int, 0)}) == {"k": 3}
        assert read({"k": 3.0}, {"k": (int, 0)}) == {"k": 3}
        assert read({"k": [1, 2.0]}, {"k": ([int], [0])}) == {"k": [1, 2]}

    def test_build_grid_validates(self):
        with pytest.raises(ConfigError):
            build_grid({"grid": {"n": 2, "box_time": 1.0, "box_space": 1.0,
                                 "pts_time": 12, "pts_space": 16}})

    def test_saved_field_matches_cli_grid(self, tmp_path):
        # a field written by one command (uflat.slf) and read back lives on the same grid
        spec = build_grid({"grid": {"n": 2, "box_time": 1.0, "box_space": 1.0,
                                    "pts_time": 16, "pts_space": 16}})
        f = random_band_limited(spec, np.random.default_rng(0))
        save_field(f, tmp_path / "f.slf")
        assert l2_norm(f - load_field(tmp_path / "f.slf")) == 0.0


class TestExitCodes:
    def test_missing_config_file(self, runner):
        res = runner.invoke(main, ["verify-strichartz", "--config", "/no/such.yaml"])
        assert res.exit_code == EXIT_CONFIG

    def test_bad_config(self, runner, tmp_path):
        cfg = write(tmp_path, "bad.yaml", GRID + "estimate: strichartz\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg])
        assert res.exit_code == EXIT_CONFIG  # missing pairs

    def test_unknown_estimate(self, runner, tmp_path):
        cfg = write(tmp_path, "bad2.yaml", GRID + "estimate: bogus\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("key", ["n", "box_time"])  # an int and a float key
    def test_bool_grid_number(self, runner, tmp_path, key):
        # YAML true must not pass as the number 1
        text = re.sub(rf"{key}: \S+", f"{key}: true", GRID)
        cfg = write(tmp_path, "c.yaml", text + "estimate: gain\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert f"grid.{key}" in res.output

    @pytest.mark.parametrize("line,key", [
        ("steps: true\npotential: {kind: gaussian}\n", "steps"),
        ("potential: {kind: gaussian, width: true}\n", "potential.width"),
    ], ids=["steps", "potential.width"])
    def test_bool_optional_number(self, runner, tmp_path, line, key):
        # an optional count or size read as 1 would still run and exit 0
        cfg = write(tmp_path, "c.yaml", GRID + "T: 0.1\n" + line)
        res = runner.invoke(main, ["forward-evolve", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert f"config key {key} has wrong type" in res.output
        assert not (tmp_path / "forward_evolve.json").exists()

    @pytest.mark.parametrize("command,line,key", [
        ("verify-strichartz", "estimate: gain\nnu_value: [4]\n", "nu_value"),
        ("verify-strichartz", "estimate: gain\noffset_xin: false\n", "offset_xin"),
        ("bs-norm-sweep", "potential: {kind: gaussian}\nnu_values: [4]\n"
         "lambda_rule: sqrt_nu\n", "lambda_rule"),
        ("cgo-build", "potential: {kind: gaussian}\nnu: 32\nrho_cap: 0.9\n", "rho_cap"),
        ("verify-strichartz", "  max_points: 65536\nestimate: gain\n", "grid.max_points"),
    ], ids=["typo", "removed-offset_xin", "removed-lambda_rule", "removed-rho_cap",
            "removed-max_points"])
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    def test_unknown_top_level_key(self, runner, tmp_path, command, line, key, dry_run):
        # a typo or a removed option would otherwise run silently on the default
        cfg = write(tmp_path, "c.yaml", GRID + line)
        res = runner.invoke(main, [command, "--config", cfg, "--output", str(tmp_path)]
                            + ["--dry-run"] * dry_run)
        assert res.exit_code == EXIT_CONFIG
        assert f"unknown config key: {key}" in res.output
        assert not list(tmp_path.glob("*.json"))

    def test_config_not_a_mapping(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", "- 1\n- 2\n")
        res = runner.invoke(main, ["kernel-table", "--config", cfg])
        assert res.exit_code == EXIT_CONFIG
        assert "not a mapping" in res.output

    @pytest.mark.parametrize("estimate,key", [
        ("gain", "seed"), ("gain", "family"), ("gain", "min_xi_n"), ("gain", "ceiling"),
        ("gain", "nu_values"),
    ])
    def test_bool_sweep_key(self, runner, tmp_path, estimate, key):
        # the sweep reads its own keys against its table: YAML true is no number
        value = "[true]" if key.endswith("values") else "true"
        cfg = write(tmp_path, "c.yaml", GRID + f"estimate: {estimate}\n{key}: {value}\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert f"config key {key} has wrong type" in res.output
        assert not (tmp_path / f"{estimate}_sweep.json").exists()

    @pytest.mark.parametrize("command,line,key,want", [
        ("verify-strichartz", "estimate: gain\nnu_values: 4\n", "nu_values", "a list"),
        ("identity-check", "potential: {kind: gaussian, window: 3.0}\nT: 0.1\n",
         "potential.window", "a list"),
        ("verify-strichartz", "estimate: gain\nseed: [1, 2]\n", "seed", "a single value"),
    ], ids=["nu_values", "potential.window", "list-for-seed"])
    def test_list_shape_mismatch(self, runner, tmp_path, command, line, key, want):
        # a scalar where a list is meant raised TypeError, exit 1 as if a verdict failed
        cfg = write(tmp_path, "c.yaml", GRID + line)
        res = runner.invoke(main, [command, "--config", cfg, "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert f"config key {key} has wrong type (want {want})" in res.output
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("key,value", [("family", "1.9"), ("seed", "2.7")])
    def test_non_integral_int_key(self, runner, tmp_path, key, value):
        # int() truncated 1.9 to 1 and ran, echoing 1.9 in the report
        cfg = write(tmp_path, "c.yaml", GRID + f"estimate: gain\n{key}: {value}\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        want = kind_name(SWEEP_TABLES["gain"][key][0])
        assert f"config key {key} has wrong type (want {want})" in res.output
        assert not (tmp_path / "gain_sweep.json").exists()

    @pytest.mark.parametrize("pairs", ["[[3, 3]]", "[[1, 2, 3]]", "[4]", "[[0.5, 2]]"],
                             ids=["inadmissible", "arity", "not-a-pair", "below-one"])
    def test_bad_strichartz_pair(self, runner, tmp_path, pairs):
        # exit 1 is the verdict-failed code; a bad pair is a config error
        cfg = write(tmp_path, "c.yaml", GRID + f"estimate: strichartz\nnu_values: [4]\n"
                    f"family: 1\npairs: {pairs}\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert "pairs: " in res.output
        assert not (tmp_path / "strichartz_sweep.json").exists()

    def test_dry_run(self, runner, tmp_path):
        cfg = write(tmp_path, "g.yaml", GRID + "estimate: gain\nnu_values: [2]\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg, "--dry-run"])
        assert res.exit_code == EXIT_PASS
        assert json.loads(res.output)["estimate"] == "gain"

    def test_dry_run_prints_defaults(self, runner, tmp_path):
        cfg = write(tmp_path, "g.yaml", GRID + "estimate: gain\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg, "--dry-run"])
        assert res.exit_code == EXIT_PASS
        values = json.loads(res.output)
        assert values["nu_values"] == [2, 4, 8, 16, 32] and values["family"] == 5
        assert values["min_xi_n"] == 1.0 and values["ceiling"] is None
        assert values["output_dir"] == "."

    def test_scalar_potential_pair(self, runner, tmp_path):
        # tuple(3) raised TypeError, exit 1 as if a verdict had failed
        cfg = write(tmp_path, "c.yaml", GRID + "potential: {kind: gaussian, pair: 3}\n"
                    "nu_values: [4, 8]\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert "config key potential.pair has wrong type (want a list)" in res.output
        assert not (tmp_path / "bs_norm_sweep.json").exists()

    POTENTIAL = "potential: {kind: gaussian}\n"
    KERNEL_X = "x: {min: -1.0, max: 1.0, count: 3}\n"

    @pytest.mark.parametrize("command,text,key", [
        ("bs-norm-sweep", GRID + POTENTIAL + "nu_values: []\n", "nu_values"),
        ("verify-strichartz", GRID + "estimate: gain\nnu_values: []\n", "nu_values"),
        ("verify-strichartz", GRID + "estimate: strichartz\npairs: []\n", "pairs"),
        ("kernel-table", "sigmas: []\n" + KERNEL_X, "sigmas"),
        ("counterexample-sweep", "rho_values: []\n", "rho_values"),
        ("kernel-table", "sigmas: [0.5]\nx: {min: -1.0, max: 1.0, count: 0}\n", "x.count"),
        ("forward-evolve", GRID + POTENTIAL + "T: 0.1\nsteps: 0\n", "steps"),
        ("forward-evolve", GRID + POTENTIAL + "T: 0.1\nsteps: -1\n", "steps"),
        ("verify-strichartz", GRID + "estimate: gain\nfamily: -3\n", "family"),
        ("verify-strichartz", GRID + "estimate: strichartz\npairs: [[1, 2]]\nfamily: 0\n",
         "family"),
    ], ids=["bs-nu_values", "gain-nu_values", "pairs", "sigmas", "rho_values", "x.count",
            "steps-0", "steps-negative", "family-negative", "family-0"])
    def test_nothing_to_sweep(self, runner, tmp_path, command, text, key):
        # an empty sweep passed vacuously with zero samples; steps <= 0 raised ValueError;
        # a family below 1 ran on the hard case alone and exited 0, echoing the value
        cfg = write(tmp_path, "c.yaml", text)
        res = runner.invoke(main, [command, "--config", cfg, "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert f"config key {key} has wrong type" in res.output
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command,text,message", [
        ("kernel-table", "sigmas: [true]\n" + KERNEL_X, "config key sigmas has wrong type"),
        ("bs-norm-sweep", GRID + POTENTIAL + "nu_values: [true, 8]\n",
         "config key nu_values has wrong type"),
        ("kernel-table", "sigmas: [a]\n" + KERNEL_X, "config key sigmas has wrong type"),
        ("bs-norm-sweep", GRID + POTENTIAL + "nu_values: [a]\n",
         "config key nu_values has wrong type"),
        ("counterexample-sweep", "rho_values: [a]\n", "config key rho_values has wrong type"),
        ("forward-evolve", GRID + POTENTIAL + "T: 0.1\ninitial: 3\n",
         "config key initial has wrong type (want mapping)"),
        ("bs-norm-sweep", GRID + "potential: {kind: gaussian, widht: 0.1}\nnu_values: [4]\n",
         "unknown config key: potential.widht"),
        ("bs-norm-sweep", GRID + "potential: {kind: cusp, width: 0.6}\nnu_values: [4]\n",
         "unknown config key: potential.width"),
        ("bs-norm-sweep", GRID + "potential: {kind: gaussian, cutoff: -3}\nnu_values: [4]\n",
         "unknown config key: potential.cutoff"),
        ("cgo-remainder-sweep", GRID + "potential: {kind: gaussian, alpha: 0.5}\nnu_values: [8]\n",
         "unknown config key: potential.alpha"),
        ("bs-norm-sweep", GRID + "potential: {kind: disk, cutoff: 1}\nnu_values: [4]\n",
         "config key potential.kind has wrong type (want one of gaussian, cusp)"),
        ("bs-norm-sweep", GRID + "potential: {width: 0.6, cutoff: 1}\nnu_values: [4]\n",
         "missing config key: potential.kind"),
        ("bs-norm-sweep", GRID + "potential: 3\nnu_values: [4]\n",
         "config key potential has wrong type (want mapping)"),
        ("verify-strichartz", GRID + "estimate: dispersive\nfamily: 2\n",
         "config key estimate has wrong type (want one of strichartz, gain)"),
        ("verify-strichartz", GRID + "estimate: strichartz\npairs: [[1, 2]]\nmin_xi_n: 1.0\n",
         "unknown config key: min_xi_n"),
        ("verify-strichartz", GRID + "estimate: gain\npairs: [[1, 2]]\n",
         "unknown config key: pairs"),
        ("kernel-table", "sigmas: [.inf]\n" + KERNEL_X,
         "config key sigmas has wrong type (want a finite float)"),
        ("kernel-table", "sigmas: [0.5]\nx: {min: .nan, max: 1.0, count: 3}\n",
         "config key x.min has wrong type (want a finite float)"),
    ], ids=["bool-sigma", "bool-nu", "str-sigma", "str-nu", "str-rho", "initial-scalar",
            "potential-typo", "width-cusp", "cutoff-gaussian",
            "alpha-gaussian", "potential-kind-unknown", "potential-kind-missing",
            "potential-scalar", "family-dispersive", "min_xi_n-strichartz",
            "pairs-gain", "inf-sigma", "nan-x.min"])
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    def test_bad_value_named(self, runner, tmp_path, command, text, message, dry_run):
        # each ran on a wrong value, or ended in a traceback with exit 1 (an infinite sigma in
        # "math domain error"); a NaN x.min wrote a failing report; the dispersive estimate
        # is gone, and its name is no estimate
        cfg = write(tmp_path, "c.yaml", text)
        res = runner.invoke(main, [command, "--config", cfg, "--output", str(tmp_path)]
                            + ["--dry-run"] * dry_run)
        assert res.exit_code == EXIT_CONFIG
        assert message in res.output
        assert not list(tmp_path.glob("*.json"))

    def test_inadmissible_potential_pair(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", GRID + "potential: {kind: gaussian, pair: [2, 3]}\n"
                    "nu_values: [4, 8]\n")
        for dry_run in (False, True):
            res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg,
                                       "--output", str(tmp_path)] + ["--dry-run"] * dry_run)
            assert res.exit_code == EXIT_CONFIG
            assert "potential: pair (2, 3)" in res.output
            assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("kind,keys", [
        ("gaussian", ["amplitude", "kind", "pair", "width", "window"]),
        ("cusp", ["alpha", "amplitude", "center", "cutoff", "kind", "pair", "window"]),
    ], ids=["gaussian", "cusp"])
    def test_dry_run_echoes_only_the_kinds_potential_keys(self, runner, tmp_path, kind, keys):
        # the block was read against every kind's keys, so a cusp echoed a gaussian width
        cfg = write(tmp_path, "c.yaml", GRID + f"potential: {{kind: {kind}}}\nnu_values: [4]\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg, "--dry-run"])
        assert res.exit_code == EXIT_PASS, res.output
        assert sorted(json.loads(res.output)["potential"]) == keys

    # (case, command, config text, message) for values checked only after the config is read
    POST_READ = [
        ("short-center", "forward-evolve",
         GRID + POTENTIAL + "T: 0.1\ninitial: {center: [0.5]}\n",
         "initial.center: want 2 entries, one per grid axis, got 1"),
        ("long-modulation", "forward-evolve",
         GRID + POTENTIAL + "T: 0.1\ninitial: {modulation: [1.0, 2.0, 3.0]}\n",
         "initial.modulation: want 2 entries, one per grid axis, got 3"),
        ("grid", "bs-norm-sweep",
         GRID.replace("pts_time: 16", "pts_time: 12") + POTENTIAL + "nu_values: [4]\n",
         "grid: pts_time must be a power of two, got 12"),
        ("grid-gain", "verify-strichartz",
         GRID.replace("pts_time: 16", "pts_time: 12") + "estimate: gain\n",
         "grid: pts_time must be a power of two, got 12"),
        ("pairs", "verify-strichartz", GRID + "estimate: strichartz\npairs: [[2, 3]]\n",
         "pairs: [2, 3] is not admissible for n = 2"),
        ("sigma-zero", "kernel-table", "sigmas: [0.0, 1.0]\n" + KERNEL_X,
         "sigmas: K_sigma is undefined at sigma = 0"),
        ("rho-negative", "counterexample-sweep", "rho_values: [-4, 16]\n",
         "rho_values: rho must be > 0, got -4.0"),
        ("rho-zero", "counterexample-sweep", "rho_values: [0, 4, 16]\n",
         "rho_values: rho must be > 0, got 0.0"),
        ("rho-squared-overflows", "counterexample-sweep",
         "rho_values: [1.0e300]\nfamily: unscaled\n",
         "rho_values: rho = 1e+300 gives the unscaled family a speed of inf"),
        ("rho-single", "counterexample-sweep", "rho_values: [64]\n",
         "rho_values: the verdict compares at least 2 members, got 1"),
        ("nu-zero-strichartz", "verify-strichartz",
         GRID + "pairs: [[1, 2]]\nnu_values: [0, 8]\n", "nu_values: nu must be > 0, got 0.0"),
        ("nu-zero-gain", "verify-strichartz", GRID + "estimate: gain\nnu_values: [0, 8]\n",
         "nu_values: nu must be > 0, got 0.0"),
        ("nu-zero-bs", "bs-norm-sweep", GRID + POTENTIAL + "nu_values: [0, 8]\n",
         "nu_values: nu must be > 0, got 0.0"),
        ("nu-negative-bs", "bs-norm-sweep", GRID + POTENTIAL + "nu_values: [8, -4]\n",
         "nu_values: nu must be > 0, got -4.0"),
        ("nu-zero-cgo", "cgo-build", GRID + POTENTIAL + "nu: 0\n", "nu: nu must be > 0, got 0.0"),
        ("potential-width-zero", "bs-norm-sweep",
         GRID + "potential: {kind: gaussian, width: 0}\nnu_values: [4, 8]\n",
         "potential: width must be > 0, got 0.0"),
        ("potential-cutoff-negative", "bs-norm-sweep",
         GRID + "potential: {kind: cusp, cutoff: -1}\nnu_values: [4, 8]\n",
         "potential: cutoff must be > 0, got -1.0"),
        ("potential-pair-minus-inf", "bs-norm-sweep",
         GRID.replace("n: 2", "n: 3") + "potential: {kind: gaussian, pair: [-.inf, 1.5]}\n"
         "nu_values: [4]\n", "potential: Lebesgue exponent must be >= 1, got -inf"),
        ("pairs-minus-inf", "verify-strichartz", GRID + "pairs: [[-.inf, 2]]\n",
         "pairs: bad entry [-inf, 2]: Lebesgue exponent must be >= 1, got -inf"),
        ("cusp-alpha-pair-sup", "bs-norm-sweep",
         GRID + "potential: {kind: cusp, pair: [1, .inf]}\nnu_values: [4]\n",
         "potential: alpha must satisfy 0 < alpha * b < n = 2 for the pair's b = inf, got 0.75"),
        ("cusp-alpha-not-L2", "bs-norm-sweep",
         GRID + "potential: {kind: cusp, alpha: 1.5}\nnu_values: [4]\n",
         "potential: alpha must satisfy 0 < alpha * b < n = 2 for the pair's b = 2, got 1.5"),
        ("initial-width-zero", "forward-evolve",
         GRID + POTENTIAL + "T: 0.1\ninitial: {width: 0}\n",
         "initial.width: width must be > 0, got 0.0"),
        ("nu-zero-cgo-remainder", "cgo-remainder-sweep", GRID + POTENTIAL + "nu_values: [8, 0]\n",
         "nu_values: nu must be > 0, got 0.0"),
        ("tol-negative-bs", "bs-norm-sweep", GRID + POTENTIAL + "nu_values: [4, 8]\ntol: -1\n",
         "tol: tol must be > 0, got -1.0"),
        ("T-zero-identity", "identity-check", GRID + POTENTIAL + "T: 0\n",
         "T: the final time must not be 0"),
        ("T-zero-reconstruct", "reconstruct", GRID + POTENTIAL + "T: 0.0\n",
         "T: the final time must not be 0"),
        ("freq_radius-negative", "reconstruct", GRID + POTENTIAL + "T: 0.1\nfreq_radius: -1\n",
         "freq_radius: the radius must be >= 0, got -1.0"),
    ]

    @pytest.mark.parametrize("command,text,message,dry_run", [
        pytest.param(command, text, message, dry_run, id="dry-run-" * dry_run + case)
        for case, command, text, message in POST_READ for dry_run in (False, True)])
    def test_value_checked_after_reading_named(self, runner, tmp_path, command, text, message,
                                               dry_run):
        # a short or long initial list was cut or padded to the grid axes (exit 0); sigma = 0
        # ended in a ValueError (exit 1); rho < 0 wrote NaN ratios (exit 1), rho = 0 ended in
        # ZeroDivisionError and an overflowing rho^2 in OverflowError, and a single rho
        # passed a growth verdict that compares none (exit 0); nu = 0 ended in a ValueError
        # (exit 1) and a negative nu in bs-norm-sweep in a TypeError; a zero potential width
        # or a negative cutoff ended in split_W's ValueError (exit 1), a -inf exponent in a
        # potential pair was read as +inf and passed (exit 0), and a -inf Strichartz exponent
        # must not end in Fraction's OverflowError (exit 1, a traceback); a cusp checked
        # 0 < alpha < 2 whatever n and its pair's b, so one in L^inf or with alpha = 1.5 in L^2
        # ran (exit 0); a zero initial width wrote a NaN state (exit 1); a tol <= 0 ran every
        # power iteration to its cap (exit 3); T = 0 wrote a ratio of 1.0 or NaN (exit 1), and
        # a negative freq_radius ended in a ValueError (exit 1);
        # --dry-run stopped after reading and exited 0 on each of these
        cfg = write(tmp_path, "c.yaml", text)
        res = runner.invoke(main, [command, "--config", cfg, "--output", str(tmp_path)]
                            + ["--dry-run"] * dry_run)
        assert res.exit_code == EXIT_CONFIG
        assert message in res.output
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command", ["forward-evolve", "identity-check", "reconstruct"])
    def test_negative_final_time_accepted(self, runner, tmp_path, command):
        # a negative T evolves backward; only T = 0 is out of range
        cfg = write(tmp_path, "c.yaml", GRID + self.POTENTIAL + "T: -0.1\n")
        res = runner.invoke(main, [command, "--config", cfg, "--dry-run"])
        assert res.exit_code == EXIT_PASS, res.output

    def test_forward_evolve_zero_time_is_the_identity(self, runner, tmp_path):
        # identity-check and reconstruct refuse T = 0; forward-evolve returns its initial state
        cfg = write(tmp_path, "c.yaml", GRID + self.POTENTIAL + "T: 0\nsteps: 4\n")
        res = runner.invoke(main, ["forward-evolve", "--config", cfg, "--output", str(tmp_path)])
        assert res.exit_code == EXIT_PASS, res.output
        spec = build_grid(load_config(cfg))
        initial = cli.initial_state(spec, {"center": None, "width": 0.5, "modulation": None})
        np.testing.assert_allclose(np.load(tmp_path / "final_state.npy"), initial, atol=1e-12)

    @pytest.mark.parametrize("command,text", [
        ("verify-strichartz", GRID + "estimate: strichartz\npairs: [[1, 2]]\n"),
        ("verify-strichartz", GRID + "estimate: gain\n"),
        ("bs-norm-sweep", GRID + POTENTIAL + "nu_values: [4]\n"),
        ("identity-check", GRID + POTENTIAL + "T: 0.1\n"),
    ], ids=["strichartz", "gain", "bs-norm-sweep", "identity-check"])
    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    def test_negative_seed(self, runner, tmp_path, command, text, dry_run):
        # np.random.default_rng raised ValueError, exit 1 as if a verdict had failed, and
        # --dry-run exited 0
        cfg = write(tmp_path, "c.yaml", text + "seed: -1\n")
        res = runner.invoke(main, [command, "--config", cfg, "--output", str(tmp_path)]
                            + ["--dry-run"] * dry_run)
        assert res.exit_code == EXIT_CONFIG
        assert "config key seed has wrong type (want natural), got seed: -1" in res.output
        assert not list(tmp_path.glob("*.json"))

    def test_nonconvergence_exit(self, runner, tmp_path):
        # a strong potential at tiny nu breaks the CGO contraction
        cfg = write(tmp_path, "cgo.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 50.0, width: 0.6}\n"
                    "nu: 2\n"
                    f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["cgo-build", "--config", cfg])
        assert res.exit_code == EXIT_NONCONVERGENCE

    @pytest.mark.parametrize("flag", ["converged", "starts_agree"])
    def test_cgo_unconverged_norm_exit(self, runner, tmp_path, monkeypatch, flag):
        # this potential contracts at nu = 32, so only the flagged norm estimate can stop it
        real = cgo.op_norm

        def flagged(*args, **kwargs):
            rho, diag = real(*args, **kwargs)
            return rho, {**diag, flag: False}

        monkeypatch.setattr(cgo, "op_norm", flagged)
        cfg = write(tmp_path, "cgo.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 0.5, width: 0.6}\n"
                    f"nu: 32\noutput_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["cgo-build", "--config", cfg])
        assert res.exit_code == EXIT_NONCONVERGENCE
        assert "non-convergence" in res.output
        assert not (tmp_path / "out" / "cgo_build.json").exists()

    def test_cgo_remainder_sweep_below_threshold_exit(self, runner, tmp_path):
        # at nu = 0.01 the cusp's sandwich norm is far above the contraction cap
        cfg = write(tmp_path, "c.yaml", GRID + "potential: {kind: cusp, alpha: 0.75}\n"
                    "nu_values: [0.01, 0.02]\n")
        res = runner.invoke(main, ["cgo-remainder-sweep", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_NONCONVERGENCE
        assert "non-convergence: sandwich norm" in res.output
        assert not list(tmp_path.glob("*.json"))

    def test_kernel_quadrature_nonconvergence_exit(self, runner, tmp_path, monkeypatch):
        # no error estimate meets a 1e-28 ceiling, so the check that guards the table fires
        monkeypatch.setattr(kernels, "_TOL", 1e-30)
        cfg = write(tmp_path, "k.yaml", "sigmas: [-1, 0.5]\n" + self.KERNEL_X
                    + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["kernel-table", "--config", cfg])
        assert res.exit_code == EXIT_NONCONVERGENCE
        assert "non-convergence" in res.output
        assert not (tmp_path / "out" / "kernel_table.json").exists()

    def test_plain_runtime_error_is_not_nonconvergence(self, runner, tmp_path, monkeypatch):
        # only NotContractive and NoConvergence mean exit 3; a RuntimeError whose message
        # happens to say "converge" is a fault and propagates
        def sweep(V, nu_values, **kwargs):
            raise RuntimeError("eigensolver did not converge")

        monkeypatch.setattr(cli, "bs_decay_sweep", sweep)
        cfg = write(tmp_path, "bs.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 1.0, width: 0.5}\n"
                    f"nu_values: [8]\noutput_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg])
        assert res.exit_code != EXIT_NONCONVERGENCE
        assert isinstance(res.exception, RuntimeError)
        assert "did not converge" in str(res.exception)

    @pytest.mark.parametrize("nu_values,decay,code", [
        ("[8]", "not_compared", EXIT_PASS),
        ("[4, 64]", "pass", EXIT_PASS),
        ("[64, 4]", "fail", EXIT_VERDICT),
    ], ids=["one-nu", "decays", "grows"])
    def test_decay_verdict_recorded(self, runner, tmp_path, nu_values, decay, code):
        # a single nu compares nothing: the report says so rather than "pass"
        cfg = write(tmp_path, "bs.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 1.0, width: 0.5}\n"
                    f"nu_values: {nu_values}\noutput_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg])
        assert res.exit_code == code
        report = json.loads((tmp_path / "out" / "bs_norm_sweep.json").read_text())
        assert report["params"]["decay_verdict"] == decay

    def test_zero_potential_fails_decay_verdict(self, runner, tmp_path):
        # a zero potential has norm 0 at every nu, and 0 <= 0.5 * 0 passed (exit 0)
        cfg = write(tmp_path, "bs.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 0.0, width: 0.5}\n"
                    f"nu_values: [4, 64]\noutput_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg])
        assert res.exit_code == EXIT_VERDICT
        report = json.loads((tmp_path / "out" / "bs_norm_sweep.json").read_text())
        assert [s["ratio"] for s in report["samples"]] == [0.0, 0.0]
        assert report["params"]["decay_verdict"] == "fail"

    def test_disagreeing_starts_exit(self, runner, tmp_path, monkeypatch):
        def sweep(V, nu_values, **kwargs):
            report = EstimateReport("bs_decay", {}, {})
            report.samples.append({"nu": 8.0, "ratio": 0.07, "converged": True,
                                   "starts_agree": False, "seed": 0})
            return report

        monkeypatch.setattr(cli, "bs_decay_sweep", sweep)
        cfg = write(tmp_path, "bs.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 1.0, width: 0.5}\n"
                    f"nu_values: [8]\noutput_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg])
        assert res.exit_code == EXIT_NONCONVERGENCE
        assert not (tmp_path / "out" / "bs_norm_sweep.json").exists()


class TestReportDecidesExit:
    """run_experiment alone maps a report to exit 0 or 1: verdict and rules together."""

    def test_control_nan_ratio_exits_1(self, runner, tmp_path, monkeypatch):
        # max and min skip a NaN that is not first, so the control rule passes; the
        # report's verdict fails, and the run exited 0 while its report said "fail"
        def sweep(rho_list, family, **kwargs):
            report = EstimateReport("embedding_ratio", {}, {"family": family})
            report.samples = [{"rho": float(rho), "ratio": r, "seed": 0}
                              for rho, r in zip(rho_list, [0.5, float("nan"), 0.7])]
            return report

        monkeypatch.setattr(cli, "embedding_ratio_sweep", sweep)
        cfg = write(tmp_path, "c.yaml", "rho_values: [4, 16, 64]\nfamily: control\n"
                    f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["counterexample-sweep", "--config", cfg])
        assert res.exit_code == EXIT_VERDICT
        report = json.loads((tmp_path / "out" / "counterexample_control.json").read_text())
        assert report["verdict"] == "fail"
        assert report["params"]["verdict_growth"] == "pass"

    def test_decay_nan_ratio_exits_1(self, runner, tmp_path, monkeypatch):
        # the decay rule reads only the first and last norms, so a NaN between them
        # passed it, and the run exited 0 while its report said "fail"
        def sweep(V, nu_values, **kwargs):
            report = EstimateReport("bs_decay", {}, {})
            report.samples = [{"nu": float(nu), "ratio": r, "converged": True,
                               "starts_agree": True, "seed": 0}
                              for nu, r in zip(nu_values, [0.5, float("nan"), 0.1])]
            return report

        monkeypatch.setattr(cli, "bs_decay_sweep", sweep)
        cfg = write(tmp_path, "bs.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 1.0, width: 0.5}\n"
                    f"nu_values: [4, 16, 64]\noutput_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg])
        assert res.exit_code == EXIT_VERDICT
        report = json.loads((tmp_path / "out" / "bs_norm_sweep.json").read_text())
        assert report["verdict"] == "fail"
        assert report["params"]["decay_verdict"] == "pass"

    def test_strichartz_csv_rows_have_header_width(self, runner, tmp_path):
        # the pair cell ['4/3', '4/3'] split into two columns: a 5-field header, 6-field rows
        res = runner.invoke(main, ["verify-strichartz", "--config",
                                   str(ROOT / "configs" / "strichartz.yaml"),
                                   "--output", str(tmp_path), "--format", "csv"])
        assert res.exit_code == EXIT_PASS, res.output
        with open(tmp_path / "strichartz_sweep.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["field", "nu", "pair", "ratio", "seed"]
        assert len(rows) == 90
        assert all(len(row) == len(header) for row in rows)
        assert rows[0][2] == "['4/3', '4/3']"


class TestRunAllScript:
    """scripts/run_all.sh, the command registry and configs/ stay in step."""

    RUNS = re.findall(r"^run\s+(\S+)\s+(\S+)\s*$",
                      (ROOT / "scripts" / "run_all.sh").read_text(), re.M)

    def test_every_command_and_config_is_run(self):
        assert {cmd for cmd, _ in self.RUNS} == set(main.commands)
        committed = {f"configs/{p.name}" for p in (ROOT / "configs").glob("*.yaml")}
        assert {cfg for _, cfg in self.RUNS} == committed
        # and every estimate of verify-strichartz, so that none is left unrun
        configs = [load_config(str(ROOT / cfg)) for cmd, cfg in self.RUNS
                   if cmd == "verify-strichartz"]
        assert {read(c, sweep_table(c))["estimate"] for c in configs} == set(SWEEP_TABLES)

    @pytest.mark.parametrize("command,config", RUNS)
    def test_dry_run(self, runner, command, config):
        res = runner.invoke(main, [command, "--config", str(ROOT / config), "--dry-run"])
        assert res.exit_code == EXIT_PASS, res.output


def kind_name(kind):
    """How docs/config_schema.md names a kind."""
    if isinstance(kind, list):
        return f"list of {kind_name(kind[0])}"
    if isinstance(kind, tuple):
        return "one of " + ", ".join(kind)
    if isinstance(kind, dict) or kind is cli.potential_table:
        return "mapping"
    return getattr(kind, "__name__", kind)


def schema_rows(table, path=""):
    """(key path, kind, default) rows of a table, as docs/config_schema.md writes them.

    The shared ``grid`` and ``potential`` blocks have sections of their own.
    """
    for key, (kind, default) in table.items():
        here = f"{path}.{key}" if path else key
        yield here, kind_name(kind), "required" if default is REQUIRED else json.dumps(default)
        if isinstance(kind, dict) and kind is not GRID_TABLE:
            yield from schema_rows(kind, here)


def test_schema_doc_matches_tables():
    text = (ROOT / "docs" / "config_schema.md").read_text()
    documented = {title: [tuple(c.strip().strip("`") for c in row.split("|")[1:4])
                          for row in rows.splitlines()[2:]]
                  for title, rows in re.findall(r"^### (.+)\n\n((?:\|.*\n)+)", text, re.M)}
    expected = {"grid": list(schema_rows(GRID_TABLE, "grid")),
                **{f"potential ({kind})": list(schema_rows(table, "potential"))
                   for kind, table in cli.POTENTIALS.items()}}
    for name, table in cli.TABLES.items():
        if callable(table):  # verify-strichartz: one table per estimate
            expected.update({f"{name} ({est})": list(schema_rows(t))
                             for est, t in SWEEP_TABLES.items()})
        else:
            expected[name] = list(schema_rows({**COMMON, **table}))
    assert documented == expected


class TestCommands:
    def test_gain_sweep_pass(self, runner, tmp_path):
        cfg = write(tmp_path, "g.yaml", GRID +
                    "estimate: gain\nnu_values: [4, 16]\nfamily: 2\nseed: 0\n"
                    "ceiling: 2.0\n" + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg])
        assert res.exit_code == EXIT_PASS
        report = json.loads((tmp_path / "out" / "gain_sweep.json").read_text())
        assert report["verdict"] == "pass"
        assert "config_hash" in report["params"]
        assert "version" in report["params"]

    def test_unknown_grid_key_rejected(self, runner, tmp_path):
        # a key nothing reads, at any depth, is a typo or a removed option
        cfg = write(tmp_path, "g.yaml", GRID + "  note: x\n"
                    "estimate: gain\nnu_values: [4]\nfamily: 1\nseed: 0\n"
                    + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg])
        assert res.exit_code == EXIT_CONFIG
        assert "unknown config key: grid.note" in res.output
        assert not (tmp_path / "out").exists()

    def test_kernel_table_pass_and_csv(self, runner, tmp_path):
        cfg = write(tmp_path, "k.yaml",
                    "sigmas: [-1, 0.5]\nx: {min: -3.0, max: 3.0, count: 5}\n"
                    f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["kernel-table", "--config", cfg,
                                   "--format", "csv"])
        assert res.exit_code == EXIT_PASS
        assert (tmp_path / "out" / "kernel_table.csv").exists()

    def test_kernel_table_small_sigma_pass(self, runner, tmp_path):
        # QAWF missed the width-sigma peak at eta = 0: -0.500 against 0 at x = 0 and 1, exit 1
        cfg = write(tmp_path, "k.yaml", "sigmas: [1.0e-6]\nx: {min: -1.0, max: 1.0, count: 3}\n"
                    + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["kernel-table", "--config", cfg])
        assert res.exit_code == EXIT_PASS
        report = json.loads((tmp_path / "out" / "kernel_table.json").read_text())
        assert report["verdict"] == "pass"

    def test_cgo_remainder_sweep_records_the_sweep(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", GRID + "potential: {kind: cusp, alpha: 0.75}\n"
                    "nu_values: [16, 64]\n")
        res = runner.invoke(main, ["cgo-remainder-sweep", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_PASS, res.output
        report = json.loads((tmp_path / "cgo_remainder_sweep_cusp.json").read_text())
        assert report["verdict"] == "recorded"
        V = cusp_potential(build_grid(load_config(cfg)), alpha=0.75)
        assert report["samples"] == cgo.remainder_decay_sweep(V, [16.0, 64.0]).samples

    def test_bs_norm_sweep_memory_peak(self, runner, tmp_path, monkeypatch):
        # the committed 32^3 sweep at its peak: V, W, the plan's symbol, both iterates
        # and half a field of one draw; the modulation is a 32 x 32 table.  Measured at
        # 5.64-5.70 fields
        monkeypatch.setattr(parallel, "_THREADS", 2)
        tracemalloc.start()
        try:
            res = runner.invoke(main, ["bs-norm-sweep", "--config",
                                       str(ROOT / "configs" / "bs_sweep.yaml"),
                                       "--output", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == EXIT_PASS, res.output
        assert peak / (16 * 32**3) < 5.70 + 0.5

    def test_kernel_table_memory_peak(self, runner, tmp_path):
        # the committed table peaks in the JSON encoding of its 1600 samples; the
        # quadrature stays near 1 MiB, its e^{-i x eta} blocks holding 2^15 terms
        # (512 KiB).  Measured at 2.60 MiB, against 6.01 MiB with 2^20-term blocks
        tracemalloc.start()
        try:
            res = runner.invoke(main, ["kernel-table", "--config",
                                       str(ROOT / "configs" / "kernel_table.yaml"),
                                       "--output", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == EXIT_PASS, res.output
        assert peak / 2**20 < 2.60 + 0.5

    def test_remainder_sweep_reports_name_their_potential(self, runner, tmp_path):
        # the Gaussian and cusp reports of run_all.sh differed only in name and config_hash
        for config in ("cgo_remainder.yaml", "cgo_remainder_cusp.yaml"):
            res = runner.invoke(main, ["cgo-remainder-sweep", "--config",
                                       str(ROOT / "configs" / config), "--output", str(tmp_path)])
            assert res.exit_code == EXIT_PASS, res.output
        named = {kind: json.loads((tmp_path / f"cgo_remainder_sweep_{kind}.json").read_text())
                 ["params"]["potential"] for kind in ("gaussian", "cusp")}
        assert named == {"gaussian": {"kind": "gaussian", "amplitude": 2.0, "width": 0.6},
                         "cusp": {"kind": "cusp", "alpha": 0.75, "amplitude": 1.0}}

    def test_forward_evolve_pass(self, runner, tmp_path):
        cfg = write(tmp_path, "f.yaml", GRID.replace("pts_space: 16", "pts_space: 32") +
                    "potential: {kind: gaussian, amplitude: 1.0, width: 0.6}\n"
                    "T: 0.2\nsteps: 32\n"
                    "initial: {width: 0.5, center: [0.0, 0.0], modulation: [2.0, 0.0]}\n"
                    + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["forward-evolve", "--config", cfg])
        assert res.exit_code == EXIT_PASS
        assert (tmp_path / "out" / "final_state.npy").exists()

    def test_reconstruct_zero_reference_fails(self, runner, tmp_path):
        # V vanishes at t = 0, the reference slice: the error was reported as 0.0, a pass
        cfg = write(tmp_path, "r.yaml", GRID.replace("pts_space: 16", "pts_space: 32") +
                    "potential: {kind: gaussian, amplitude: 0.05, width: 0.8, window: [0.1, 3.0]}\n"
                    "T: 0.5\nsteps: 16\nfreq_radius: 3.0\n" + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["reconstruct", "--config", cfg])
        assert res.exit_code == EXIT_VERDICT
        report = json.loads((tmp_path / "out" / "reconstruct.json").read_text())
        assert report["verdict"] == "fail"
        assert np.isnan(report["samples"][0]["ratio"])

    def test_runtime_logged(self, runner, tmp_path, caplog):
        # forward-evolve logged "(runtime 0.00s)": only some experiments timed themselves
        caplog.set_level(logging.INFO, logger="schrodlab")
        cfg = write(tmp_path, "f.yaml", GRID.replace("pts_space: 16", "pts_space: 32") +
                    "potential: {kind: gaussian}\nT: 0.2\nsteps: 256\n"
                    + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["forward-evolve", "--config", cfg])
        assert res.exit_code == EXIT_PASS
        runtime = re.search(r"forward_evolve report .* \(runtime (\d+\.\d+)s\)", caplog.text)
        assert runtime and float(runtime.group(1)) > 0.0

    def test_byte_identical_rerun(self, runner, tmp_path):
        base = (GRID + "estimate: gain\nnu_values: [4, 16]\nfamily: 2\nseed: 3\n"
                "ceiling: 2.0\n")
        cfg = write(tmp_path, "g.yaml", base)
        for d in ("out1", "out2"):
            res = runner.invoke(main, ["verify-strichartz", "--config", cfg,
                                       "--output", str(tmp_path / d)])
            assert res.exit_code == EXIT_PASS
        b1 = (tmp_path / "out1" / "gain_sweep.json").read_bytes()
        b2 = (tmp_path / "out2" / "gain_sweep.json").read_bytes()
        assert b1 == b2
