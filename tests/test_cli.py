import pytest

from enks.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from enks.configfile import (ConfigError, experiment_config, parse_config_file)
from enks.harness import ExperimentConfig, convergence_sweep

POPULATION_SEED = 2   # bounded truth through T = 5
DIVERGING_SEED = 1    # truth overflows before T = 8


class TestConfigFile:
    def test_parse_typed_values(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# population run\n"
            "problem = population\n"
            "filter = enks, enkf\n"
            "ensemble = 500\n"
            "dt = 0.1\n"
            "alpha = 0.7\n"
            "seed = 3\n"
            "horizon = 2.0\n"
            "tracked_channels = 0\n")
        settings = parse_config_file(p)
        assert settings["problem"] == "population"
        assert settings["filter"] == ("enks", "enkf")
        assert settings["ensemble"] == 500
        assert settings["alpha"] == 0.7
        assert settings["tracked_channels"] == (0,)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("problme = population\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("ensemble = many\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")

    def test_cli_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("problem = population\nensemble = 500\n")
        cfg = experiment_config(parse_config_file(p), {"ensemble": 64})
        assert cfg.N == 64
        assert cfg.problem == "population"

    def test_missing_problem(self):
        with pytest.raises(ConfigError):
            experiment_config({}, {})

    @pytest.mark.parametrize("problem", ["population", "frame50"])
    def test_unset_keys_take_the_config_defaults(self, problem):
        assert experiment_config({"problem": problem}) == \
            ExperimentConfig(problem=problem)


class TestCli:
    def test_invalid_problem_exits_2(self, capsys):
        code = main(["run", "--problem", "galaxy", "--out", "/tmp/enks-x"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch,
                                                        capsys):
        def broken(cfg, data=None):
            raise ValueError("internal bug")

        monkeypatch.setattr("enks.cli.run_experiment", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["run", "--problem", "population", "--out", "/tmp/enks-x"])
        assert "config error" not in capsys.readouterr().err

    def test_time_origin_key_exits_2(self, tmp_path, capsys):
        # the gain's time is dt at every step; the key no longer exists
        p = tmp_path / "run.cfg"
        p.write_text("problem = population\ntime_origin = step\n")
        code = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "unknown key 'time_origin'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("dt", "nan"), ("dt", "inf"), ("horizon", "nan"), ("horizon", "inf"),
        ("proc_noise", "nan"), ("proc_noise", "inf"),
        ("meas_noise_std", "nan"), ("meas_noise_std", "inf"),
        ("param_diffusion", "nan"), ("param_diffusion", "-inf"),
        ("init_spread_scale", "nan"), ("init_spread_scale", "inf"),
        ("init_spread_scale", "-1"), ("init_spread_scale", "0")])
    def test_non_finite_or_out_of_range_value_exits_2(self, tmp_path, capsys,
                                                      key, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"problem = population\n{key} = {value}\n")
        code = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"config error: {key} must be finite" in capsys.readouterr().err
        assert not any(tmp_path.glob("population_*"))

    def test_bad_sweep_values_exit_2(self, capsys):
        code = main(["sweep", "--problem", "linear-gaussian", "--variable", "N",
                     "--values", "20,forty,80", "--out", "/tmp/enks-x"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_mismatched_dataset_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--problem", "population", "--horizon", "1.0",
                     "--out", str(tmp_path / "data")]) == EXIT_OK
        code = main(["run", "--problem", "pendulum", "--horizon", "1.0",
                     "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert "does not match the problem" in capsys.readouterr().err

    def test_dataset_on_another_time_grid_exits_2(self, tmp_path, capsys):
        # measurements 0.1 apart cannot drive steps of 0.2; the matching
        # dt reads the same dataset
        assert main(["simulate", "--problem", "population", "--dt", "0.1",
                     "--horizon", "2.0", "--out", str(tmp_path / "data")]) == EXIT_OK
        code = main(["run", "--problem", "population", "--dt", "0.2",
                     "--horizon", "2.0", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert "not the multiples of dt=0.2" in capsys.readouterr().err
        assert main(["run", "--problem", "population", "--dt", "0.1",
                     "--horizon", "2.0", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "runs")]) == EXIT_OK

    def test_horizon_other_than_the_dataset_exits_2(self, tmp_path, capsys):
        # 20 steps of data cannot be a 10-step run; without --horizon the
        # dataset's length decides
        assert main(["simulate", "--problem", "population", "--horizon", "2.0",
                     "--seed", str(POPULATION_SEED),
                     "--out", str(tmp_path / "data")]) == EXIT_OK
        run = ["run", "--problem", "population", "--seed", str(POPULATION_SEED),
               "--data", str(tmp_path / "data"), "--out", str(tmp_path / "runs")]
        assert main(run + ["--horizon", "1.0"]) == EXIT_CONFIG
        assert ("horizon=1.0 gives 10 steps of dt=0.1, the loaded dataset "
                "has 20") in capsys.readouterr().err
        assert main(run + ["--horizon", "2.0"]) == EXIT_OK
        assert main(run) == EXIT_OK
        assert "steps=20" in capsys.readouterr().out

    def test_seed_other_than_the_dataset_exits_2(self, tmp_path, capsys):
        # the filter's forcing draw comes from the seed, so the data must
        # have been simulated with the run's; a dataset saved without its
        # seed is not checked
        data = tmp_path / "data"
        assert main(["simulate", "--problem", "frame4-damaged", "--seed", "0",
                     "--horizon", "0.2", "--out", str(data)]) == EXIT_OK
        assert (data / "seed.txt").read_text() == "0\n"
        run = ["run", "--problem", "frame4-damaged", "--ensemble", "20",
               "--horizon", "0.2", "--data", str(data),
               "--out", str(tmp_path / "runs")]
        assert main(run + ["--seed", "1"]) == EXIT_CONFIG
        assert ("simulated with seed 0, not the run's seed 1"
                in capsys.readouterr().err)
        assert main(run + ["--seed", "0"]) == EXIT_OK
        (data / "seed.txt").write_text("zero\n")
        assert main(run + ["--seed", "0"]) == EXIT_CONFIG
        assert "malformed dataset seed" in capsys.readouterr().err
        (data / "seed.txt").unlink()
        assert main(run + ["--seed", "1"]) == EXIT_OK

    def test_malformed_dataset_row_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["simulate", "--problem", "population", "--horizon", "1.0",
                     "--out", str(data)]) == EXIT_OK
        with open(data / "measurements.csv", "a", encoding="utf-8") as fh:
            fh.write("11,1.1,0,not-a-number\n")
        code = main(["run", "--problem", "population", "--horizon", "1.0",
                     "--data", str(data), "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert "malformed dataset row" in capsys.readouterr().err

    def test_dataset_with_a_deleted_measurement_row_exits_2(self, tmp_path,
                                                            capsys):
        # a missing (step, channel) row is refused, not read as 0.0
        data = tmp_path / "data"
        assert main(["simulate", "--problem", "frame4-damaged", "--seed", "0",
                     "--horizon", "0.2", "--out", str(data)]) == EXIT_OK
        lines = (data / "measurements.csv").read_text().splitlines(True)
        step, _, channel = lines[5].split(",")[:3]
        (data / "measurements.csv").write_text("".join(lines[:5] + lines[6:]))
        code = main(["run", "--problem", "frame4-damaged", "--seed", "0",
                     "--ensemble", "20", "--horizon", "0.2",
                     "--data", str(data), "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert (f"no row for step {step}, channel {channel}"
                in capsys.readouterr().err)

    def test_dataset_with_two_measurement_times_swapped_exits_2(self,
                                                                tmp_path,
                                                                capsys):
        # measurement times out of order are refused, not a traceback
        data = tmp_path / "data"
        assert main(["simulate", "--problem", "population", "--seed",
                     str(POPULATION_SEED), "--horizon", "1.0",
                     "--out", str(data)]) == EXIT_OK
        path = data / "measurements.csv"
        lines = path.read_text().splitlines(True)
        first, second = (line.split(",") for line in lines[2:4])
        first[1], second[1] = second[1], first[1]
        path.write_text("".join(lines[:2] + [",".join(first), ",".join(second)]
                                + lines[4:]))
        code = main(["run", "--problem", "population", "--seed",
                     str(POPULATION_SEED), "--ensemble", "20",
                     "--horizon", "1.0", "--data", str(data),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "times must be strictly increasing" in err
        assert "measurements.csv" in err

    def test_run_population(self, tmp_path, capsys):
        code = main(["run", "--problem", "population", "--ensemble", "200",
                     "--horizon", "2.0", "--seed", str(POPULATION_SEED),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "population_rows.csv").exists()
        out = capsys.readouterr().out
        assert "rmse" in out

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # diverging population truth overflows before this horizon
        code = main(["run", "--problem", "population", "--ensemble", "50",
                     "--horizon", "8.0", "--seed", str(DIVERGING_SEED),
                     "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_simulate_writes_datasets(self, tmp_path):
        code = main(["simulate", "--problem", "population", "--horizon", "2.0",
                     "--seed", str(POPULATION_SEED), "--out", str(tmp_path)])
        assert code == EXIT_OK
        for name in ("truth.csv", "measurements.csv", "noise_std.csv"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "truth.csv").read_text().splitlines()
        assert lines[0] == "step,time,channel,value"
        assert len(lines) == 1 + 20

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--problem", "population", "--horizon",
                         "2.0", "--seed", "5", "--out", str(out)]) == EXIT_OK
        assert (a / "measurements.csv").read_bytes() == \
            (b / "measurements.csv").read_bytes()

    def test_sweep_command(self, tmp_path, capsys, monkeypatch):
        reports = []

        def sweep(*args):
            reports.append(convergence_sweep(*args))
            return reports[-1]

        monkeypatch.setattr("enks.cli.convergence_sweep", sweep)
        code = main(["sweep", "--problem", "linear-gaussian", "--variable", "N",
                     "--values", "20,40,80", "--repeats", "5",
                     "--horizon", "0.5", "--out", str(tmp_path / "sweep")])
        assert code == EXIT_OK
        assert "slope" in capsys.readouterr().out
        # the bytes of the writer that formatted each numpy scalar
        rep, = reports
        lines = ["N,error_mean,error_std"] + [
            f"{repr(float(v))},{repr(float(m))},{repr(float(s))}"
            for v, m, s in zip(rep.values, rep.mean_errors, rep.std_errors)]
        assert (tmp_path / "sweep" / "sweep_N.csv").read_bytes() == \
            ("\n".join(lines) + "\n").encode("utf-8")

    def test_compare_command(self, tmp_path, capsys):
        code = main(["compare", "--problem", "population", "--ensemble", "100",
                     "--horizon", "1.0", "--seed", str(POPULATION_SEED),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for name in ("enks", "enks-iter", "enkf"):
            assert name in out

    def test_config_file_driven_run(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem = population\n"
            "filter = enks\n"
            "ensemble = 100\n"
            f"seed = {POPULATION_SEED}\n"
            "horizon = 1.0\n"
            f"out = {tmp_path / 'runs'}\n")
        assert main(["run", "--config", str(cfgfile)]) == EXIT_OK
        assert (tmp_path / "runs" / "population_rows.csv").exists()
