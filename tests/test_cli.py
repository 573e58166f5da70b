"""Command-line interface: exit codes, file outputs, determinism."""

import json
import pathlib
import re

import pytest
from click.testing import CliRunner

from schrodlab import cli
from schrodlab.cli import (
    EXIT_CONFIG,
    EXIT_NONCONVERGENCE,
    EXIT_PASS,
    ConfigError,
    build_grid,
    load_config,
    main,
    require,
)
from schrodlab.reports import EstimateReport

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
            require({"a": 1}, "b")

    def test_require_wrong_type(self):
        with pytest.raises(ConfigError):
            require({"a": "x"}, "a", int)

    def test_build_grid_validates(self):
        with pytest.raises(ConfigError):
            build_grid({"grid": {"n": 2, "box_time": 1.0, "box_space": 1.0,
                                 "pts_time": 12, "pts_space": 16}})


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

    def test_inadmissible_potential_pair(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", GRID + "potential: {kind: gaussian, pair: [2, 3]}\n"
                    "nu_values: [4, 8]\n")
        res = runner.invoke(main, ["bs-norm-sweep", "--config", cfg,
                                   "--output", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert "potential: pair (2, 3)" in res.output

    def test_dry_run(self, runner, tmp_path):
        cfg = write(tmp_path, "g.yaml", GRID + "estimate: gain\nnu_values: [2]\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg, "--dry-run"])
        assert res.exit_code == EXIT_PASS
        assert json.loads(res.output)["estimate"] == "gain"

    def test_nonconvergence_exit(self, runner, tmp_path):
        # a strong potential at tiny nu breaks the CGO contraction
        cfg = write(tmp_path, "cgo.yaml", GRID +
                    "potential: {kind: gaussian, amplitude: 50.0, width: 0.6}\n"
                    "nu: 2\ntol: 1.0e-8\nrho_cap: 0.9\n"
                    f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["cgo-build", "--config", cfg])
        assert res.exit_code == EXIT_NONCONVERGENCE

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


class TestRunAllScript:
    """scripts/run_all.sh, the command registry and configs/ stay in step."""

    RUNS = re.findall(r"^run\s+(\S+)\s+(\S+)\s*$",
                      (ROOT / "scripts" / "run_all.sh").read_text(), re.M)

    def test_every_command_and_config_is_run(self):
        assert {cmd for cmd, _ in self.RUNS} == set(main.commands)
        committed = {f"configs/{p.name}" for p in (ROOT / "configs").glob("*.yaml")}
        assert {cfg for _, cfg in self.RUNS} == committed

    @pytest.mark.parametrize("command,config", RUNS)
    def test_dry_run(self, runner, command, config):
        res = runner.invoke(main, [command, "--config", str(ROOT / config), "--dry-run"])
        assert res.exit_code == EXIT_PASS, res.output


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

    def test_unknown_grid_key_ignored(self, runner, tmp_path):
        # the grid block is parsed once, by build_grid; the report echoes it
        cfg = write(tmp_path, "g.yaml", GRID + "  note: x\n"
                    "estimate: gain\nnu_values: [4]\nfamily: 1\nseed: 0\n"
                    + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["verify-strichartz", "--config", cfg])
        assert res.exit_code == EXIT_PASS, res.output
        report = json.loads((tmp_path / "out" / "gain_sweep.json").read_text())
        assert report["grid"]["note"] == "x"

    def test_kernel_table_pass_and_csv(self, runner, tmp_path):
        cfg = write(tmp_path, "k.yaml",
                    "sigmas: [-1, 0.5]\nx: {min: -3.0, max: 3.0, count: 5}\n"
                    "tol: 1.0e-6\n" + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["kernel-table", "--config", cfg,
                                   "--format", "csv"])
        assert res.exit_code == EXIT_PASS
        assert (tmp_path / "out" / "kernel_table.csv").exists()

    def test_forward_evolve_pass(self, runner, tmp_path):
        cfg = write(tmp_path, "f.yaml", GRID.replace("pts_space: 16", "pts_space: 32") +
                    "potential: {kind: gaussian, amplitude: 1.0, width: 0.6}\n"
                    "T: 0.2\nsteps: 32\n"
                    "initial: {width: 0.5, center: [0.0, 0.0], modulation: [2.0, 0.0]}\n"
                    + f"output_dir: {tmp_path}/out\n")
        res = runner.invoke(main, ["forward-evolve", "--config", cfg])
        assert res.exit_code == EXIT_PASS
        assert (tmp_path / "out" / "final_state.npy").exists()

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
