"""Command-line interface: subcommands, outputs, exit codes, determinism."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plantfit import (
    ColumnSpec,
    PlantParameters,
    SolverOptions,
    load_series,
    make_grid,
    synthesize,
)
import plantfit.cli
from plantfit.cli import main
from plantfit.ingest import format_timestamp
from conftest import EPSILON, flat_dynamics, toy_market

TRUE = PlantParameters(eta=0.45, sigma=500.0, phi=50.0, nu=1.0, epsilon=EPSILON)
T = 96


def build_fixture(root):
    market = toy_market(35.0 + 25.0 * np.sin(np.arange(T) / 4.0),
                        dt=0.5, fuel=15.0, carbon=10.0)
    dynamics = flat_dynamics(T, mel=100.0, sel=40.0, ramp_up=120.0, ramp_dn=120.0)
    observed = synthesize(TRUE, dynamics, market, SolverOptions())

    stamps = [format_timestamp(t) for t in market.grid]
    lines = ["timestamp_utc,electricity_gbp_mwh,fuel_gbp_mwh_fuel,carbon_gbp_tco2"]
    lines += [f"{s},{w},{f},{e}" for s, w, f, e
              in zip(stamps, market.w, market.f, market.e)]
    (root / "prices.csv").write_text("\n".join(lines) + "\n")

    lines = ["timestamp_utc,mw"]
    lines += [f"{s},{p}" for s, p in zip(stamps, observed.power)]
    (root / "production.csv").write_text("\n".join(lines) + "\n")

    lines = ["timestamp_utc,mel_mw,sel_mw,ramp_up_mw_per_h,ramp_dn_mw_per_h"]
    lines += [f"{s},{m},{sl},120.0,120.0" for s, m, sl
              in zip(stamps, dynamics.mel, dynamics.sel)]
    (root / "dynamics.csv").write_text("\n".join(lines) + "\n")

    (root / "plant.json").write_text(json.dumps({
        "plant_id": "DEMO-1",
        "epsilon_tco2_per_mwh_fuel": EPSILON,
        "fuel": "gas",
    }, indent=2))

    (root / "config.json").write_text(json.dumps({
        "prices": "prices.csv",
        "production": "production.csv",
        "dynamics": "dynamics.csv",
        "plant": "plant.json",
        "start": stamps[0],
        "end": format_timestamp(market.grid[-1] + np.timedelta64(1800, "s")),
        "dt": 0.5,
        "de": {"population": 16, "generations": 80},
        "compass": {"max_iterations": 60},
        "seed": 1,
    }, indent=2))
    return root


def with_config(fixture_dir, root, **changes):
    """The fixture's config, written to ``root`` with ``changes`` applied."""
    config = json.loads((fixture_dir / "config.json").read_text())
    for key in ("prices", "production", "dynamics", "plant"):
        config[key] = str(fixture_dir / config[key])
    config.update(changes)
    (root / "config.json").write_text(json.dumps(config))
    return str(root / "config.json")


def with_production(fixture_dir, root, edit):
    """A config over the fixture's data with its production rows passed through ``edit``."""
    rows = (fixture_dir / "production.csv").read_text().splitlines()
    (root / "production.csv").write_text("\n".join(edit(rows)) + "\n")
    return with_config(fixture_dir, root, production=str(root / "production.csv"))


def with_plant(fixture_dir, root, **changes):
    """A config over the fixture's data with ``changes`` applied to its plant."""
    plant = json.loads((fixture_dir / "plant.json").read_text())
    plant.update(changes)
    (root / "plant.json").write_text(json.dumps(plant))
    return with_config(fixture_dir, root, plant=str(root / "plant.json"))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    return build_fixture(tmp_path_factory.mktemp("dataset"))


class TestFit:
    def test_closed_loop_recovery(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fit", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out)])
        assert code == 0
        result = json.loads((out / "fit_result.json").read_text())
        assert result["rms_mw"] <= 1.0
        assert result["plant_id"] == "DEMO-1"
        assert 0.2 <= result["parameters"]["eta"] <= 0.65

        header, *rows = (out / "trace.csv").read_text().strip().splitlines()
        assert header == "evaluation,eta,sigma,phi,nu,sse"
        assert len(rows) == result["evaluations"]

        schedule = load_series(out / "schedule.csv",
                               ColumnSpec("timestamp_utc", "fitted_mw"))
        observed = load_series(out / "schedule.csv",
                               ColumnSpec("timestamp_utc", "observed_mw"))
        assert len(schedule) == T
        assert np.allclose(schedule.values, observed.values, atol=1e-9)

    def test_same_seed_byte_identical(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["fit", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["fit", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out2), "--jobs", "2"]) == 0
        for name in ("fit_result.json", "trace.csv", "schedule.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_schedule_written_without_another_solve(self, fixture_dir, tmp_path,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(plantfit.cli, "solve_uc", lambda *a, **k: calls.append(a))
        assert main(["fit", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == []

    def test_shared_problem_error_exits_3(self, fixture_dir, tmp_path, capsys):
        # a first observed value above MEL is taken as an infeasible initial power
        def too_high(rows):
            rows[1] = rows[1].split(",")[0] + ",150.0"
            return rows

        config = with_production(fixture_dir, tmp_path, too_high)
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert "initial power exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fit", "--jobs", "1"],
        ["landscape", "--jobs", "2", "--eta", "0.45", "--axes", "eta,sigma",
         "--grid1", "0.3:0.6:3", "--grid2", "0:1000:3"],
    ])
    def test_too_many_states_exits_3(self, fixture_dir, tmp_path, capsys, argv):
        # 0.1 MW rungs below SEL 40: 399 of them
        header, *rows = (fixture_dir / "dynamics.csv").read_text().splitlines()
        rows = [",".join(row.split(",")[:3] + ["0.2", "0.2"]) for row in rows]
        (tmp_path / "dynamics.csv").write_text("\n".join([header, *rows]) + "\n")
        config = with_config(fixture_dir, tmp_path, dynamics=str(tmp_path / "dynamics.csv"))
        command, *rest = argv
        assert main([command, "--config", config, "--out", str(tmp_path / "out"), *rest]) == 3
        assert "more than 256 states: SEL 40 MW" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fit", "--jobs", "0"],
        ["landscape", "--jobs", "-3", "--eta", "0.45", "--axes", "eta,sigma",
         "--grid1", "0.3:0.6:3", "--grid2", "0:1000:3"],
    ])
    def test_jobs_below_one_exits_1(self, fixture_dir, tmp_path, capsys, argv):
        command, *rest = argv
        assert main([command, "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"), *rest]) == 1
        assert f"jobs must be at least 1, got {rest[1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_production_file(self, fixture_dir, tmp_path, capsys):
        config = json.loads((fixture_dir / "config.json").read_text())
        config["production"] = "nowhere.csv"
        bad = fixture_dir / "bad_config.json"
        bad.write_text(json.dumps(config))
        code = main(["fit", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nowhere.csv" in capsys.readouterr().err


class TestSimulate:
    def test_per_capacity_parameters(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.58",
                     "--sigma-per-cap", "62", "--phi-per-cap", "11.4",
                     "--nu", "0.9"])
        assert code == 0
        result = json.loads((out / "simulate_result.json").read_text())
        assert result["parameters"]["eta"] == 0.58
        assert result["parameters"]["sigma_gbp"] == pytest.approx(62.0 * 100.0)
        series = load_series(out / "schedule.csv",
                             ColumnSpec("timestamp_utc", "mw"))
        assert len(series) == T

    def test_unprofitable_prices_stay_off(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.2", "--sigma", "1000",
                     "--phi", "10", "--nu", "5"])
        assert code == 0
        result = json.loads((out / "simulate_result.json").read_text())
        assert result["profit_gbp"] == 0.0
        series = load_series(out / "schedule.csv",
                             ColumnSpec("timestamp_utc", "mw"))
        assert np.all(series.values == 0.0)


class TestLandscape:
    def test_grid_rows(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["landscape", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.45", "--sigma", "500",
                     "--phi", "50", "--nu", "1.0",
                     "--axes", "eta,sigma",
                     "--grid1", "0.3:0.6:5", "--grid2", "0:1000:4"])
        assert code == 0
        header, *rows = (out / "landscape.csv").read_text().strip().splitlines()
        assert header == "eta,sigma,rms_mw"
        assert len(rows) == 20

    def test_identical_axes_rejected(self, fixture_dir, tmp_path, capsys):
        code = main(["landscape", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"), "--eta", "0.45",
                     "--axes", "eta,eta", "--grid1", "0.3:0.6:3",
                     "--grid2", "0:1:3"])
        assert code == 1
        assert "axes must differ" in capsys.readouterr().err

    def test_fixed_parameters_validated(self, fixture_dir, tmp_path, capsys):
        code = main(["landscape", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"), "--eta", "0.45",
                     "--sigma", "-15000", "--axes", "eta,phi",
                     "--grid1", "0.3:0.6:3", "--grid2", "0:100:3"])
        assert code == 1
        assert "sigma negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_summary_printed(self, fixture_dir, capsys):
        code = main(["validate", "--config", str(fixture_dir / "config.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "DEMO-1" in out
        assert "96 periods" in out

    def test_corrupt_config(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text("{not json")
        assert main(["validate", "--config", str(bad)]) == 1

    def test_missing_second_row_is_a_gap(self, fixture_dir, tmp_path, capsys):
        config = with_production(fixture_dir, tmp_path, lambda rows: rows[:2] + rows[3:])
        assert main(["validate", "--config", config]) == 2
        assert "gap in observed production at 2018-01-01T00:30:00Z" in capsys.readouterr().err


    @pytest.mark.parametrize("changes,message", [
        ({"de": {"generation": 5}}, "unknown key 'generation' in config section 'de'"),
        ({"de": {"population": 2}}, "population must be at least 4"),
        ({"compass": {"contraction": 1.5}}, "contraction must be in (0, 1)"),
        ({"seed": -1}, "seed must be non-negative"),
    ])
    def test_config_fit_rejects_fails_validation(self, fixture_dir, tmp_path, capsys,
                                                  changes, message):
        config = with_config(fixture_dir, tmp_path, **changes)
        assert main(["validate", "--config", config]) == 1
        assert message in capsys.readouterr().err
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bounds,message", [
        ({"eta": [0.3]}, "plant bounds for eta must be a [low, high] pair"),
        ({"nu_per_cap": [0, 1]}, "unknown key 'nu_per_cap' in plant bounds"),
    ])
    def test_plant_bounds_checked(self, fixture_dir, tmp_path, capsys, bounds, message):
        config = with_plant(fixture_dir, tmp_path, bounds=bounds)
        assert main(["validate", "--config", config]) == 1
        assert message in capsys.readouterr().err


class TestUsage:
    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["fit"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "plantfit" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["validate", "--jobs", "4"],
        ["simulate", "--seed", "3", "--eta", "0.45"],
    ])
    def test_flag_the_command_does_not_read_exits_1(self, fixture_dir, tmp_path, capsys, argv):
        command, *rest = argv
        code = main([command, "--config", str(fixture_dir / "config.json"), *rest])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigKeys:
    @pytest.mark.parametrize("section,key", [
        ("de", "generation"), ("compass", "iterations"), ("solver", "levels")])
    def test_unknown_section_key_exits_1(self, fixture_dir, tmp_path, capsys, section, key):
        config = with_config(fixture_dir, tmp_path, **{section: {key: 5}})
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert f"unknown key {key!r} in config section {section!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_value_of_the_wrong_type_exits_1(self, fixture_dir, tmp_path, capsys):
        config = with_config(fixture_dir, tmp_path, de={"population": "many"})
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "de.population must be a number, got 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,name", [
        ("seed", 1.7, "seed"),
        ("solver", {"power_levels": 8.5}, "solver.power_levels"),
        ("de", {"population": 8.9}, "de.population"),
        ("de", {"generations": 2.5}, "de.generations"),
        ("compass", {"max_iterations": 1.5}, "compass.max_iterations")])
    def test_integer_key_with_a_fraction_exits_1(self, fixture_dir, tmp_path, capsys,
                                                 key, value, name):
        config = with_config(fixture_dir, tmp_path, **{key: value})
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        bad = value if key == "seed" else next(iter(value.values()))
        assert f"{name} must be an integer, got {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_runs_as_the_integer(self, fixture_dir, tmp_path):
        outputs = []
        for kind in (int, float):
            root = tmp_path / kind.__name__
            root.mkdir()
            config = with_config(fixture_dir, root, seed=kind(3),
                                 solver={"power_levels": kind(11)},
                                 de={"population": kind(8), "generations": kind(3)},
                                 compass={"max_iterations": kind(2)})
            assert main(["fit", "--config", config, "--out", str(root / "out")]) == 0
            outputs.append([(root / "out" / name).read_bytes()
                            for name in ("fit_result.json", "trace.csv", "schedule.csv")])
        assert outputs[0] == outputs[1]
        assert b'"seed": 3,' in outputs[1][0]

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("seed", math.inf), ("dt", "half"), ("dt", None)])
    def test_top_level_value_of_the_wrong_type_exits_1(self, fixture_dir, tmp_path, capsys,
                                                       key, value):
        config = with_config(fixture_dir, tmp_path, **{key: value})
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bounds_absolute_or_per_mw_of_capacity(self):
        bounds = plantfit.cli._bounds_from_plant(
            {"bounds": {"eta": [0.3, 0.6], "sigma_per_cap": [0, 120], "phi": [0, 500]}}, 100.0)
        assert bounds.range("eta") == (0.3, 0.6)
        assert bounds.range("sigma") == (0.0, 12000.0)
        assert bounds.range("phi") == (0.0, 500.0)

    @pytest.mark.parametrize("key", ["eta_per_cap", "nu_per_cap", "sigma_per_mw"])
    def test_unknown_bound_key_rejected(self, key):
        with pytest.raises(plantfit.cli.ConfigError, match=key):
            plantfit.cli._bounds_from_plant({"bounds": {key: [0, 1]}}, 100.0)

    @pytest.mark.parametrize("value", [0.5, ["low", 1.0], [0.0, 1.0, 2.0]])
    def test_bound_that_is_not_a_pair_rejected(self, value):
        with pytest.raises(plantfit.cli.ConfigError, match="sigma"):
            plantfit.cli._bounds_from_plant({"bounds": {"sigma_per_cap": value}}, 100.0)


class TestPoolLoading:
    @pytest.mark.parametrize("argv,loaded", [
        (["fit", "--jobs", "1"], False),
        (["landscape", "--jobs", "2", "--eta", "0.45", "--axes", "eta,sigma",
          "--grid1", "0.3:0.6:3", "--grid2", "0:1000:3"], True),
    ])
    def test_process_pool_loaded_only_with_workers(self, fixture_dir, tmp_path, argv, loaded):
        config = with_config(fixture_dir, tmp_path, de={"population": 8, "generations": 2},
                             compass={"max_iterations": 1})
        script = ("import sys; from plantfit.cli import main; code = main(sys.argv[1:]); "
                  "print('concurrent.futures.process' in sys.modules); sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=str(Path(plantfit.cli.__file__).parents[1]))
        command, *rest = argv
        proc = subprocess.run(
            [sys.executable, "-c", script, command, "--config", config,
             "--out", str(tmp_path / "out"), *rest],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loaded)
