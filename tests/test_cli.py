"""Command-line interface: subcommands, outputs, exit codes, determinism."""
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plantfit import (
    PlantParameters,
    SolverOptions,
    Violation,
    load_series,
    make_grid,
    synthesize,
)
import plantfit.cli
import plantfit.ingest
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
    # a lone surrogate "\udcXX" in a row is written as the byte 0xXX
    (root / "production.csv").write_text("\n".join(edit(rows)) + "\n",
                                         errors="surrogateescape")
    return with_config(fixture_dir, root, production=str(root / "production.csv"))


def with_plant(fixture_dir, root, **changes):
    """A config over the fixture's data with ``changes`` applied to its plant."""
    plant = json.loads((fixture_dir / "plant.json").read_text())
    plant.update(changes)
    (root / "plant.json").write_text(json.dumps(plant))
    return with_config(fixture_dir, root, plant=str(root / "plant.json"))


def without(path, key):
    """Rewrite the JSON object at ``path`` without ``key``."""
    data = json.loads(Path(path).read_text())
    del data[key]
    Path(path).write_text(json.dumps(data))


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
        per_cap, cap = result["parameters_per_mw_cap"], result["capacity_mw"]
        assert cap == 100.0
        assert per_cap["sigma_gbp_per_mw"] == result["parameters"]["sigma_gbp"] / cap
        assert per_cap["phi_gbp_per_h_per_mw"] == result["parameters"]["phi_gbp_per_h"] / cap

        header, *rows = (out / "trace.csv").read_text().strip().splitlines()
        assert header == "evaluation,eta,sigma,phi,nu,sse"
        assert len(rows) == result["evaluations"]

        table = load_series(out / "schedule.csv", ["fitted_mw", "observed_mw"])
        schedule, observed = table["fitted_mw"], table["observed_mw"]
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
        ["validate"],
        ["fit", "--out", "out"],
        ["simulate", "--eta", "0.45", "--out", "out"],
        ["landscape", "--eta", "0.45", "--axes", "eta,sigma", "--grid1", "0.3:0.6:3",
         "--grid2", "0:1000:3", "--out", "out"],
    ], ids=lambda argv: argv[0])
    def test_no_feasible_schedule_exits_3(self, fixture_dir, tmp_path, capsys, argv):
        # committed at 95 MW, 5 MW steps down: MEL 50 from the third period is out of reach
        header, *rows = (fixture_dir / "dynamics.csv").read_text().splitlines()
        rows = [",".join([row.split(",")[0], "100.0" if i < 2 else "50.0", "40.0", "10.0", "10.0"])
                for i, row in enumerate(rows)]
        (tmp_path / "dynamics.csv").write_text("\n".join([header, *rows]) + "\n")
        header, *rows = (fixture_dir / "production.csv").read_text().splitlines()
        rows = [row.split(",")[0] + ",95.0" for row in rows]
        (tmp_path / "production.csv").write_text("\n".join([header, *rows]) + "\n")
        config = with_config(fixture_dir, tmp_path, production=str(tmp_path / "production.csv"),
                             dynamics=str(tmp_path / "dynamics.csv"))
        argv = [str(tmp_path / arg) if arg == "out" else arg for arg in argv]
        assert main([*argv, "--config", config]) == 3
        assert ("no feasible schedule exists for this instance: no path from the initial "
                "state reaches period 2 (counting from 0)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        # costs enter absolute; the result also gives them per MW of capacity (100 MW)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.58",
                     "--sigma", "6200", "--phi", "1140", "--nu", "0.9"])
        assert code == 0
        result = json.loads((out / "simulate_result.json").read_text())
        assert result["parameters"]["eta"] == 0.58
        assert result["parameters"]["sigma_gbp"] == 6200.0
        assert result["parameters_per_mw_cap"] == {"sigma_gbp_per_mw": 62.0,
                                                   "phi_gbp_per_h_per_mw": 11.4}
        series = load_series(out / "schedule.csv", ["mw"])["mw"]
        assert len(series) == T

    def test_overflowing_margins_exit_3_with_one_line(self, fixture_dir, tmp_path, capsys):
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"), "--eta", "1e-320"])
        assert code == 3
        assert capsys.readouterr().err == ("error: no schedule of finite profit at these "
                                           "parameters\n")

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_naming_a_file_exits_1_with_one_line(self, fixture_dir, tmp_path, capsys,
                                                     out):
        (tmp_path / "file").write_text("")
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / out), "--eta", "0.45"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / out / 'schedule.csv'}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_failed_rename_exits_1_and_leaves_no_temp_file(self, fixture_dir, tmp_path,
                                                           capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.45"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: cannot write {out / 'schedule.csv'}: "
                                           "rename refused\n")
        assert list(out.iterdir()) == []

    def test_rename_fault_propagates_and_leaves_no_temp_file(self, fixture_dir, tmp_path,
                                                             monkeypatch):
        # only an OSError is a write error; any other exception is a fault for main's caller
        def fail(src, dst):
            raise RuntimeError("rename fault")

        monkeypatch.setattr(os, "replace", fail)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="rename fault"):
            main(["simulate", "--config", str(fixture_dir / "config.json"),
                  "--out", str(out), "--eta", "0.45"])
        assert list(out.iterdir()) == []

    def test_infeasible_simulated_schedule_exits_3_with_one_line(self, fixture_dir, tmp_path,
                                                                 capsys, monkeypatch):
        monkeypatch.setattr(plantfit.cli, "validate_schedule",
                            lambda schedule, instance: [Violation("ramp", 3, 1.0)])
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.45"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: simulated schedule is infeasible: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_unprofitable_prices_stay_off(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.2", "--sigma", "1000",
                     "--phi", "10", "--nu", "5"])
        assert code == 0
        result = json.loads((out / "simulate_result.json").read_text())
        assert result["profit_gbp"] == 0.0
        series = load_series(out / "schedule.csv", ["mw"])["mw"]
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

    def test_invalid_cells_read_inf(self, fixture_dir, tmp_path):
        # eta 0 and eta above 1 fail validation: those cells, and only those, are inf
        out = tmp_path / "out"
        code = main(["landscape", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.45", "--sigma", "500",
                     "--phi", "50", "--nu", "1.0", "--axes", "eta,sigma",
                     "--grid1", "0:1.2:7", "--grid2", "0:1000:3"])
        assert code == 0
        rows = [line.split(",") for line in
                (out / "landscape.csv").read_text().strip().splitlines()[1:]]
        assert len(rows) == 21
        for eta, _, rms in rows:
            assert (rms == "inf") == (not 0.0 < float(eta) <= 1.0)

    def test_overflowing_margins_read_inf_without_a_warning(self, fixture_dir, tmp_path,
                                                             capsys):
        # at eta 1e-320 f/eta overflows: the cell reads inf, and nothing warns
        # (pytest turns a warning into an error)
        out = tmp_path / "out"
        code = main(["landscape", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out), "--eta", "0.45", "--axes", "eta,sigma",
                     "--grid1", "1e-320:1e-300:2", "--grid2", "0:1000:3"])
        assert code == 0
        rows = [line.split(",") for line in
                (out / "landscape.csv").read_text().strip().splitlines()[1:]]
        assert [rms for eta, _, rms in rows if float(eta) == 1e-320] == ["inf"] * 3
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_non_finite_grid_bound_exits_1(self, fixture_dir, tmp_path, capsys, bound):
        code = main(["landscape", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"), "--eta", "0.45",
                     "--axes", "eta,sigma", "--grid1", f"0.4:{bound}:3",
                     "--grid2", "0:1000:3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "grid bounds must be finite" in err and f"got '0.4:{bound}:3'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--grid1", "0.3:0.6", "grid must look like lo:hi:count, got '0.3:0.6'"),
        ("--axes", "eta", "--axes takes two comma-separated parameter names"),
    ])
    def test_malformed_flag_exits_1(self, fixture_dir, tmp_path, capsys, flag, value, message):
        flags = {"--axes": "eta,sigma", "--grid1": "0.3:0.6:3", "--grid2": "0:1000:3", flag: value}
        code = main(["landscape", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"), "--eta", "0.45",
                     *(item for pair in flags.items() for item in pair)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("case,message", [
        ("absent", "config file not found: "),
        ("directory", "config file not found: "),
        ("through-a-file", "config file not found: "),
        ("array", "must hold a JSON object"),
        ("no-start", "config is missing required key 'start'"),
        ("no-epsilon", "plant.json: missing epsilon_tco2_per_mwh_fuel"),
        ("plant-not-utf-8", "plant.json is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ])
    def test_unusable_config_exits_1(self, fixture_dir, tmp_path, capsys, case, message):
        config = with_plant(fixture_dir, tmp_path)
        if case == "absent":
            config = str(tmp_path / "absent.json")
        elif case == "directory":
            config = str(tmp_path)
        elif case == "through-a-file":
            config = str(Path(config) / "x")
        elif case == "array":
            Path(config).write_text("[]")
        elif case == "no-start":
            without(config, "start")
        elif case == "plant-not-utf-8":
            plant = tmp_path / "plant.json"
            plant.write_bytes(plant.read_bytes().replace(b"DEMO-1", b"DEMO-\xff"))
        else:
            without(tmp_path / "plant.json", "epsilon_tco2_per_mwh_fuel")
        assert main(["validate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("name,module,code", [
        ("config.json", plantfit.cli, 1),
        ("plant.json", plantfit.cli, 1),
        ("production.csv", plantfit.ingest, 2),
    ])
    def test_unreadable_file_exits_with_one_line(self, fixture_dir, tmp_path, capsys,
                                                 monkeypatch, name, module, code):
        # root reads a file of mode 000 all the same, so open refuses it here
        def refuse(path, *args, **kwargs):
            if Path(path).name == name:
                raise PermissionError(13, "Permission denied", str(path))
            return open(path, *args, **kwargs)

        for copied in ("plant.json", "production.csv"):
            (tmp_path / copied).write_bytes((fixture_dir / copied).read_bytes())
        config = with_config(fixture_dir, tmp_path, plant=str(tmp_path / "plant.json"),
                             production=str(tmp_path / "production.csv"))
        monkeypatch.setattr(module, "open", refuse, raising=False)
        assert main(["validate", "--config", config]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path / name}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_mel_zero_in_every_period_exits_2_with_one_line(self, fixture_dir, tmp_path,
                                                            capsys):
        header, *rows = (fixture_dir / "dynamics.csv").read_text().splitlines()
        dynamics = tmp_path / "dynamics.csv"
        dynamics.write_text("\n".join([header, *(row.split(",")[0] + ",0.0,0.0,120.0,120.0"
                                                 for row in rows)]) + "\n")
        config = with_config(fixture_dir, tmp_path, dynamics=str(dynamics))
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: MEL is 0 MW in every period of {dynamics}\n"

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda rows: rows[:4] + ["yesterday,1.0"] + rows[5:],
                     "production.csv:5: unparseable timestamp: 'yesterday'", id="timestamp"),
        pytest.param(lambda rows: rows[:4] + [rows[4].split(",")[0] + ",1.5MW"] + rows[5:],
                     "production.csv:5: unparseable value '1.5MW'", id="value"),
        pytest.param(lambda rows: rows[:4] + [rows[4].split(",")[0] + ",1\udcff5"] + rows[5:],
                     "production.csv: not UTF-8 text: cannot decode byte 0xff "
                     "(invalid start byte)",
                     id="not-utf-8"),
        pytest.param(lambda rows: rows[:1], "production.csv: no data rows", id="header-only"),
        pytest.param(lambda rows: rows[:1] + rows[2:],
                     "gap in observed production: horizon starts 2018-01-01T00:00:00Z "
                     "before first data row", id="starts-late"),
    ])
    def test_malformed_production_exits_2(self, fixture_dir, tmp_path, capsys, edit, message):
        config = with_production(fixture_dir, tmp_path, edit)
        assert main(["validate", "--config", config]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("changes,message", [
        ({"plant": "absent.json"}, "plant config file not found: "),
        ({"end": "2018-01-01T00:00:00Z"}, "horizon start must precede end"),
        # an empty name resolves to the config's directory
        ({"plant": ""}, "plant config file not found: "),
        ({"production": ""}, "production file not found: "),
        ({"dynamics": ""}, "dynamics file not found: "),
        ({"prices": ""}, "price file not found: "),
        # rounds to a 0 s step, which must not reach the division by the step
        ({"dt": 1e-320}, "dt must be a positive whole number of seconds"),
        # a price's own file key, once present, is read even when empty
        ({"fuel_prices": ""}, "price file not found: "),
    ])
    def test_config_naming_unusable_data_exits_2(self, fixture_dir, tmp_path, capsys,
                                                 changes, message):
        assert main(["validate", "--config", with_config(fixture_dir, tmp_path, **changes)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_second_row_is_a_gap(self, fixture_dir, tmp_path, capsys):
        config = with_production(fixture_dir, tmp_path, lambda rows: rows[:2] + rows[3:])
        assert main(["validate", "--config", config]) == 2
        assert "gap in observed production at 2018-01-01T00:30:00Z" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, fixture_dir, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_bytes(b"\xef\xbb\xbf" + (fixture_dir / "prices.csv").read_bytes())
        config = with_config(fixture_dir, tmp_path, prices=str(prices))
        assert main(["validate", "--config", config]) == 0
        assert capsys.readouterr().out.endswith("ok\n")

    def test_row_with_an_extra_field_exits_2(self, fixture_dir, tmp_path, capsys):
        config = with_production(fixture_dir, tmp_path,
                                 lambda rows: rows[:3] + [rows[3] + ",5"] + rows[4:])
        assert main(["validate", "--config", config]) == 2
        assert "production.csv:4: 3 fields but the header has 2" in capsys.readouterr().err

    def test_column_named_twice_exits_2(self, fixture_dir, tmp_path, capsys):
        config = with_production(fixture_dir, tmp_path,
                                 lambda rows: [rows[0] + ",mw"] + [r + ",0" for r in rows[1:]])
        assert main(["validate", "--config", config]) == 2
        assert "production.csv: column 'mw' appears twice in the header" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["0", "-0.5", "nan", "inf"])
    def test_bad_dt_exits_2(self, fixture_dir, tmp_path, capsys, dt):
        # json writes NaN and Infinity, and reads them back
        config = with_config(fixture_dir, tmp_path, dt=float(dt))
        assert main(["validate", "--config", config]) == 2
        assert "dt must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("changes,message", [
        ({"de": {"generation": 5}}, "unknown key 'generation' in config section 'de'"),
        ({"de": {"population": 2}}, "population must be at least 4"),
        ({"compass": {"contraction": 1.5}}, "contraction must be in (0, 1)"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"de": 5}, "config section 'de' must be a JSON object"),
        ({"de": {"generations": -1}}, "generations must be non-negative"),
        ({"compass": {"max_iterations": -1}}, "max_iterations must be non-negative"),
        ({"solver": {"power_levels": 1}}, "power_levels must be at least 2"),
    ])
    def test_config_fit_rejects_fails_validation(self, fixture_dir, tmp_path, capsys,
                                                  changes, message):
        config = with_config(fixture_dir, tmp_path, **changes)
        assert main(["validate", "--config", config]) == 1
        assert message in capsys.readouterr().err
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("problem,message", [
        ("power_levels", "a period would hold more than 256 states"),
        ("initial_power", "initial power exceeds the first-period export limit"),
    ])
    def test_problem_fit_cannot_solve_exits_3(self, fixture_dir, tmp_path, capsys,
                                              problem, message):
        # the state graph is built: 300 stable levels, or a first output above MEL 100
        if problem == "power_levels":
            config = with_config(fixture_dir, tmp_path, solver={"power_levels": 300})
        else:
            config = with_production(fixture_dir, tmp_path, lambda rows: [
                rows[0], rows[1].split(",")[0] + ",150.0", *rows[2:]])
        assert main(["validate", "--config", config]) == 3
        assert message in capsys.readouterr().err
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bounds,message", [
        ({"eta": [0.3]}, "plant bounds for eta must be a [low, high] pair"),
        ({"nu_per_cap": [0, 1]}, "unknown key 'nu_per_cap' in plant bounds"),
        ({"sigma_per_cap": [0, 120]}, "unknown key 'sigma_per_cap'"),
        ({"phi": [0, 500], "phi_per_cap": [0, 20]}, "unknown key 'phi_per_cap'"),
        ({"phi": [True, 3]}, "plant bounds phi must be a number, got True"),
        ({"eta": [0.3, 0.2]},
         "lower bound of eta must be below its upper bound, got [0.3, 0.2]"),
        ({"nu": [0, math.nan]}, "bounds of nu must be finite, got [0.0, nan]"),
        ({"eta": ["0.3", "0.6"]}, "plant bounds eta must be a number, got '0.3'"),
        ({"nu": [0, "nan"]}, "plant bounds nu must be a number, got 'nan'"),
        ({"sigma": [-10, 100]}, "lower bounds are not valid parameters: sigma negative"),
        ({"nu": [-1, 5]}, "lower bounds are not valid parameters: nu negative"),
    ])
    def test_plant_bounds_checked(self, fixture_dir, tmp_path, capsys, bounds, message):
        config = with_plant(fixture_dir, tmp_path, bounds=bounds)
        assert main(["validate", "--config", config]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["abc", None, True, "0.2"])
    def test_plant_epsilon_that_is_not_a_number_exits_1(self, fixture_dir, tmp_path, capsys,
                                                        epsilon):
        config = with_plant(fixture_dir, tmp_path, epsilon_tco2_per_mwh_fuel=epsilon)
        assert main(["validate", "--config", config]) == 1
        assert (f"epsilon_tco2_per_mwh_fuel must be a number, got {epsilon!r}"
                in capsys.readouterr().err)


LANDSCAPE_AXES = ["--axes", "eta,sigma", "--grid1", "0.3:0.6:3", "--grid2", "0:1000:3"]


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
        ["fit", "--seed", "3"],
        ["validate", "--dt", "0.5"],
        ["simulate", "--eta", "0.45", "--sigma-per-cap", "62"],
        ["simulate", "--eta", "0.45", "--phi-per-cap", "11.4"],
        ["landscape", "--eta", "0.45", "--sigma-per-cap", "62", *LANDSCAPE_AXES],
        ["landscape", "--eta", "0.45", "--phi-per-cap", "11.4", *LANDSCAPE_AXES],
    ])
    def test_flag_the_command_does_not_read_exits_1(self, fixture_dir, tmp_path, capsys,
                                                    monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # where a run that took the flag would write out/
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

    @pytest.mark.parametrize("key,value", [("population", "many"), ("generations", "1_0")])
    def test_value_of_the_wrong_type_exits_1(self, fixture_dir, tmp_path, capsys, key, value):
        config = with_config(fixture_dir, tmp_path, de={key: value})
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert f"de.{key} must be a number, got {value!r}" in capsys.readouterr().err

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
        ("seed", "x"), ("seed", math.inf), ("dt", "half"), ("dt", None),
        ("seed", True), ("dt", False), ("seed", "3"), ("dt", "0.5")])
    def test_top_level_value_of_the_wrong_type_exits_1(self, fixture_dir, tmp_path, capsys,
                                                       key, value):
        config = with_config(fixture_dir, tmp_path, **{key: value})
        assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_is_a_free_key(self, fixture_dir, tmp_path):
        # the output directory is --out alone
        assert main(["validate", "--config", with_config(fixture_dir, tmp_path, out=1)]) == 0

    def test_bounds_override_the_plant_defaults(self):
        bounds = plantfit.cli._bounds_from_plant(
            {"bounds": {"eta": [0.3, 0.6], "phi": [0, 500]}}, 100.0)
        assert bounds.range("eta") == (0.3, 0.6)
        assert bounds.range("sigma") == (0.0, 20000.0)  # the default, 200 per MW
        assert bounds.range("phi") == (0.0, 500.0)

    @pytest.mark.parametrize("key", ["eta_per_cap", "nu_per_cap", "sigma_per_mw",
                                     "sigma_per_cap", "phi_per_cap"])
    def test_unknown_bound_key_rejected(self, key):
        with pytest.raises(plantfit.cli.ConfigError, match=key):
            plantfit.cli._bounds_from_plant({"bounds": {key: [0, 1]}}, 100.0)

    @pytest.mark.parametrize("value", [0.5, ["low", 1.0], [0.0, 1.0, 2.0]])
    def test_bound_that_is_not_a_pair_rejected(self, value):
        with pytest.raises(plantfit.cli.ConfigError, match="sigma"):
            plantfit.cli._bounds_from_plant({"bounds": {"sigma": value}}, 100.0)


# values any config, plant or bound key may be given: wrong types, empty, zero,
# negative, subnormal, huge and non-finite numbers, and containers
FUZZ_VALUES = ["x", "", 0, -1, 1e-320, 1e308, math.nan, math.inf, [0, 1], {"a": 1}, None, True]
FUZZ_KEYS = {
    "config": ("prices", "production", "dynamics", "plant", "start", "end", "dt", "seed",
               "solver", "de", "compass", "fuel_prices"),
    "solver": ("power_levels",),
    "de": ("population", "weight", "crossover", "generations", "target"),
    "compass": ("contraction", "max_iterations"),
    "plant": ("plant_id", "epsilon_tco2_per_mwh_fuel", "bounds"),
    "bounds": ("eta", "sigma", "phi", "nu"),
}
# a population or generation count of 1e308 is a valid request for that much work
SIZES = {"population", "generations"}
# malformed CSV text: a non-UTF-8 byte, a NUL, a stray quote, extra or missing
# fields, non-finite or unparseable values, a repeated timestamp
FUZZ_ROWS = [b"\xff", b"\x00", b'"', b",,,", b"nan", b"1e400", b"x,y", b"",
             b"2018-01-01T00:00:00Z,1"]
FUZZ_ARGS = {
    "validate": [],
    "fit": [],
    "simulate": ["--eta", "0.45", "--sigma", "500"],
    "landscape": ["--eta", "0.45", "--axes", "eta,sigma", "--grid1", "0.3:0.6:2",
                  "--grid2", "0:1000:2"],
}


@st.composite
def key_edits(draw):
    """(where, key, value) settings drawn from ``FUZZ_VALUES``; a bound may
    also be a pair of them."""
    where, key = draw(st.sampled_from([(where, key) for where, keys in FUZZ_KEYS.items()
                                       for key in keys]))
    values = st.sampled_from([v for v in FUZZ_VALUES if not (key in SIZES and v == 1e308)])
    if where == "bounds":
        values = values | st.lists(values, min_size=2, max_size=2)
    return where, key, copy.deepcopy(draw(values))  # edits may nest into it


csv_edits = st.tuples(st.sampled_from(["prices", "production", "dynamics"]),
                      st.integers(0, 100), st.sampled_from(FUZZ_ROWS),
                      st.sampled_from(["replace", "append", "insert", "truncate"]))


class TestFuzzedInputs:
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(sorted(FUZZ_ARGS)), st.lists(key_edits(), max_size=3),
           st.none() | csv_edits)
    @example("validate", [], ("production", 5, b"\xff", "append"))
    @example("validate", [("solver", "power_levels", 1e308)], None)
    @example("fit", [("config", "dt", 1e308)], None)
    def test_any_input_exits_with_a_code_and_one_error_line(self, fixture_dir, command,
                                                           edits, csv_edit):
        # tiny runs; pytest makes a warning an error, which would escape main
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            config = json.loads((fixture_dir / "config.json").read_text())
            for key in ("prices", "production", "dynamics"):
                config[key] = str(fixture_dir / config[key])
            config.update(plant=str(work / "plant.json"),
                          de={"population": 4, "generations": 1},
                          compass={"max_iterations": 1})
            plant = json.loads((fixture_dir / "plant.json").read_text())
            if csv_edit is not None:
                name, at, row, how = csv_edit
                rows = (fixture_dir / f"{name}.csv").read_bytes().split(b"\n")
                at %= len(rows)
                if how == "truncate":
                    rows = rows[:at]
                elif how == "insert":
                    rows.insert(at, row)
                else:
                    rows[at] = row if how == "replace" else rows[at] + row
                (work / f"{name}.csv").write_bytes(b"\n".join(rows))
                config[name] = str(work / f"{name}.csv")
            for where, key, value in edits:
                if where in ("config", "plant"):
                    (config if where == "config" else plant)[key] = value
                    continue
                owner = plant if where == "bounds" else config
                if not isinstance(owner.get(where), dict):
                    owner[where] = {}
                owner[where][key] = value
            (work / "plant.json").write_text(json.dumps(plant))
            (work / "config.json").write_text(json.dumps(config))
            out = [] if command == "validate" else ["--out", str(work / "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(work / "config.json"), *out,
                             *FUZZ_ARGS[command]])
        assert code in (0, 1, 2, 3)
        lines = err.getvalue().splitlines()
        if code:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert lines == []


class TestPoolLoading:
    def imported(self, fixture_dir, tmp_path, argv, module):
        """Whether ``module`` is imported once a fresh interpreter has run
        ``plantfit`` with ``argv`` on a tiny fit's config."""
        config = with_config(fixture_dir, tmp_path, de={"population": 8, "generations": 2},
                             compass={"max_iterations": 1})
        script = ("import sys; from plantfit.cli import main; code = main(sys.argv[2:]); "
                  "print(sys.argv[1] in sys.modules); sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=str(Path(plantfit.cli.__file__).parents[1]))
        command, *rest = argv
        proc = subprocess.run(
            [sys.executable, "-c", script, module, command, "--config", config,
             "--out", str(tmp_path / "out"), *rest],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1] == "True"

    @pytest.mark.parametrize("argv,loaded", [
        (["fit", "--jobs", "1"], False),
        (["landscape", "--jobs", "2", "--eta", "0.45", "--axes", "eta,sigma",
          "--grid1", "0.3:0.6:3", "--grid2", "0:1000:3"], True),
    ])
    def test_process_pool_loaded_only_with_workers(self, fixture_dir, tmp_path, argv, loaded):
        assert self.imported(fixture_dir, tmp_path, argv, "concurrent.futures.process") == loaded

    def test_fit_never_imports_numpy_random(self, fixture_dir, tmp_path):
        # DE draws from the standard library; numpy.random would load OpenSSL's libcrypto
        assert not self.imported(fixture_dir, tmp_path, ["fit"], "numpy.random")


class TestLoadDataset:
    @pytest.fixture
    def reads(self, monkeypatch):
        """The path of every reader call ``_load_dataset`` makes."""
        paths = []
        reader = plantfit.cli.load_series

        def counted(path, columns):
            paths.append(Path(path).name)
            return reader(path, columns)

        monkeypatch.setattr(plantfit.cli, "load_series", counted)
        return paths

    def load(self, config_path):
        cfg = json.loads(Path(config_path).read_text())
        return plantfit.cli._load_dataset(cfg, 0.5, Path(config_path).parent)

    def test_each_file_read_once(self, fixture_dir, reads):
        self.load(fixture_dir / "config.json")
        assert sorted(reads) == ["dynamics.csv", "prices.csv", "production.csv"]

    def test_each_price_in_its_own_file(self, fixture_dir, tmp_path, reads):
        header, *rows = (fixture_dir / "prices.csv").read_text().splitlines()
        files = {}
        for i, role in enumerate(("electricity", "fuel", "carbon"), start=1):
            lines = [f"timestamp_utc,{header.split(',')[i]}"]
            lines += [f"{row.split(',')[0]},{row.split(',')[i]}" for row in rows]
            (tmp_path / f"{role}.csv").write_text("\n".join(lines) + "\n")
            files[f"{role}_prices"] = str(tmp_path / f"{role}.csv")
        config = with_config(fixture_dir, tmp_path, prices="absent.csv", **files)
        split, _, _ = self.load(config)
        assert sorted(reads) == ["carbon.csv", "dynamics.csv", "electricity.csv",
                                 "fuel.csv", "production.csv"]
        whole, _, _ = self.load(fixture_dir / "config.json")
        for name in ("w", "f", "e"):
            assert np.array_equal(getattr(split, name), getattr(whole, name))

    def test_a_file_named_twice_is_read_once(self, fixture_dir, tmp_path, reads):
        config = with_config(fixture_dir, tmp_path,
                             fuel_prices=str(fixture_dir / "prices.csv"))
        self.load(config)
        assert sorted(reads) == ["dynamics.csv", "prices.csv", "production.csv"]


class TestOutputFiles:
    def test_created_as_open_would_under_the_umask(self, fixture_dir, tmp_path, monkeypatch):
        config = with_config(fixture_dir, tmp_path, de={"population": 8, "generations": 2},
                             compass={"max_iterations": 1})
        params = ["--eta", "0.45", "--sigma", "500", "--phi", "50"]
        previous = os.umask(0o022)

        def flip(mask):
            raise AssertionError("writing an output changed the process umask")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", flip)
                assert main(["fit", "--config", config, "--out", str(tmp_path / "fit")]) == 0
                assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim"),
                             *params]) == 0
                assert main(["landscape", "--config", config, "--out", str(tmp_path / "land"),
                             *params, "--axes", "eta,sigma", "--grid1", "0.3:0.6:2",
                             "--grid2", "0:1000:2"]) == 0
        finally:
            os.umask(previous)
        written = sorted(tmp_path.glob("*/*"))
        assert [p.name for p in written] == ["fit_result.json", "schedule.csv", "trace.csv",
                                             "landscape.csv", "schedule.csv",
                                             "simulate_result.json"]
        assert {oct(p.stat().st_mode & 0o777) for p in written} == {oct(0o644)}


class TestBlasThreads:
    SCRIPT = ("import os, plantfit; print(os.environ.get('OPENBLAS_NUM_THREADS')); "
              "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
              "else '')")

    def run(self, **preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(preset, PYTHONPATH=str(Path(plantfit.cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split("\n")[:2]

    def test_import_pins_one_thread(self):
        setting, tasks = self.run()
        assert setting == "1"
        if not tasks:
            pytest.skip("no /proc/self/task to count threads in")
        assert tasks == "1"

    def test_a_preset_value_wins(self):
        assert self.run(OPENBLAS_NUM_THREADS="2")[0] == "2"
