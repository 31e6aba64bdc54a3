import numpy as np
import pytest

from enks.errors import ConfigError
from enks.models import MeasurementSeries
from enks.record import (RunRecord, emit_csv, emit_dataset, emit_linechart,
                         emit_series_csv, emit_summary, load_csv,
                         load_dataset, load_series_csv, rmse)


def small_record(M=3, n=2, filters=("enks", "enkf")):
    rng = np.random.default_rng(0)
    return RunRecord(
        steps=np.arange(1, M + 1),
        times=0.1 * np.arange(1, M + 1),
        truth=rng.standard_normal((n, M)),
        filter_means={f: rng.standard_normal((n, M)) for f in filters},
        filter_stds={f: np.abs(rng.standard_normal((n, M))) for f in filters},
        seed=7)


def awkward_record():
    """A record holding a subnormal, -0.0, 1e300, 1/3 and a NaN mean."""
    rec = small_record(M=4, n=3)
    rec.truth[1, 2] = 1e-310
    rec.truth[2, 0] = 1 / 3
    rec.filter_means["enkf"][0, 1] = -0.0
    rec.filter_means["enks"][2, 3] = np.nan
    rec.filter_stds["enks"][1, 1] = 1e300
    return rec


def lines_bytes(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


# Each long table has one step with channels 0 and 1; the cases break
# that in the ways the reader must refuse.
MALFORMED_ROWS = {
    "missing-row": ["1,0.1,0,{v}", "1,0.1,1,{v}", "2,0.2,0,{v}"],
    "repeated-row": ["1,0.1,0,{v}", "1,0.1,1,{v}", "1,0.1,1,{v}"],
    "skipped-channel": ["1,0.1,0,{v}", "1,0.1,2,{v}"],
    "long-row": ["1,0.1,0,{v}", "1,0.1,1,{v},5.0"],
    "short-row": ["1,0.1,0,{v}", "1,0.1"],
    "value": ["1,0.1,0,{v}", "1,0.1,1,abc"],
}


class TestRmse:
    def test_exact_estimates(self):
        t = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(rmse(t, t), [0.0, 0.0])

    def test_constant_offset(self):
        t = np.zeros((1, 5))
        assert rmse(t + 1.0, t)[0] == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0]))[0] == \
            pytest.approx(np.sqrt(25 / 2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))


class TestCsv:
    def test_empty_record_header_only(self, tmp_path):
        rec = RunRecord(steps=np.zeros(0, dtype=int), times=np.zeros(0),
                        truth=np.zeros((1, 0)),
                        filter_means={"enks": np.zeros((1, 0))},
                        filter_stds={"enks": np.zeros((1, 0))})
        path = emit_csv(rec, tmp_path / "empty.csv")
        lines = path.read_text().splitlines()
        assert lines == ["step,time,channel,truth,enks_mean,enks_std"]

    def test_single_row_schema(self, tmp_path):
        rec = RunRecord(steps=[1], times=[0.5], truth=np.array([[1.25]]),
                        filter_means={"enks": np.array([[2.5]])},
                        filter_stds={"enks": np.array([[0.125]])})
        path = emit_csv(rec, tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "step,time,channel,truth,enks_mean,enks_std"
        assert lines[1] == "1,0.5,0,1.25,2.5,0.125"

    def test_round_trip_identity(self, tmp_path):
        rec = small_record()
        path = emit_csv(rec, tmp_path / "rt.csv")
        back = load_csv(path)
        assert np.array_equal(back.steps, rec.steps)
        assert np.array_equal(back.times, rec.times)
        assert np.array_equal(back.truth, rec.truth)
        for name in rec.filters:
            assert np.array_equal(back.filter_means[name], rec.filter_means[name])
            assert np.array_equal(back.filter_stds[name], rec.filter_stds[name])

    def test_bytes_match_the_writer_that_indexes_the_arrays(self, tmp_path):
        # emit_csv formats Python floats from tolist(); the reference
        # formats the numpy scalar of every entry, as the writer once did
        rec = awkward_record()
        lines = [",".join(["step", "time", "channel", "truth"]
                          + [f"{f}_{s}" for f in rec.filters
                             for s in ("mean", "std")])]
        for i, (step, t) in enumerate(zip(rec.steps, rec.times)):
            for c in range(rec.n_channels):
                row = [str(int(step)), repr(float(t)), str(c),
                       repr(float(rec.truth[c, i]))]
                for name in rec.filters:
                    row += [repr(float(rec.filter_means[name][c, i])),
                            repr(float(rec.filter_stds[name][c, i]))]
                lines.append(",".join(row))
        path = emit_csv(rec, tmp_path / "rows.csv")
        assert path.read_bytes() == lines_bytes(lines)

    def test_writes_rows_in_blocks_with_the_same_bytes(self, tmp_path,
                                                       monkeypatch):
        # blocks of one step, and of three steps for four steps of three
        # channels
        rec = awkward_record()
        whole = emit_csv(rec, tmp_path / "whole.csv").read_bytes()
        for rows in (1, 10):
            monkeypatch.setattr("enks.record._BLOCK_ROWS", rows)
            assert emit_csv(rec, tmp_path / f"b{rows}.csv").read_bytes() == whole

    def test_round_trip_keeps_nan_and_signed_zero(self, tmp_path):
        rec = awkward_record()
        back = load_csv(emit_csv(rec, tmp_path / "rows.csv"))
        for name in rec.filters:
            assert np.array_equal(back.filter_means[name],
                                  rec.filter_means[name], equal_nan=True)
        assert np.signbit(back.filter_means["enkf"][0, 1])

    def test_header_only_file_is_one_empty_channel(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("step,time,channel,truth,enks_mean,enks_std\n")
        back = load_csv(path)
        assert back.steps.dtype.kind == "i" and back.steps.size == 0
        assert back.truth.shape == (1, 0)
        assert back.filters == ["enks"]
        assert back.filter_stds["enks"].shape == (1, 0)

    @pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
    def test_malformed_input_is_a_config_error(self, tmp_path, case):
        rows = [r.format(v="1.0,2.0,0.5") for r in MALFORMED_ROWS[case]]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(
            ["step,time,channel,truth,enks_mean,enks_std"] + rows) + "\n")
        with pytest.raises(ConfigError, match="bad.csv"):
            load_csv(path)

    @pytest.mark.parametrize("header", [
        "step,time,truth,enks_mean,enks_std",
        "step,time,channel,enks_mean,enks_std",
        "step,time,channel,truth,enks_mean",
        "step,time,channel,truth,enks_std,enks_mean",
        ""])
    def test_unrecognized_header_is_a_config_error(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n")
        with pytest.raises(ConfigError, match="unrecognized CSV header"):
            load_csv(path)

    def test_missing_and_repeated_rows_are_named(self, tmp_path):
        head = "step,time,channel,truth,enks_mean,enks_std"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([head] + [r.format(v="1.0,2.0,0.5") for r in
                                            MALFORMED_ROWS["missing-row"]]))
        with pytest.raises(ConfigError, match="no row for step 2, channel 1"):
            load_csv(path)
        path.write_text("\n".join([head] + [r.format(v="1.0,2.0,0.5") for r in
                                            MALFORMED_ROWS["repeated-row"]]))
        with pytest.raises(ConfigError, match="row 4 in .*repeats step 1, "
                                              "channel 1"):
            load_csv(path)

    def test_round_trip_survives_awkward_floats(self, tmp_path):
        rec = small_record(M=2, n=1, filters=("enks",))
        rec.truth[0] = [1 / 3, 1e-17]
        rec.filter_means["enks"][0] = [np.pi, -2.5e300]
        path = emit_csv(rec, tmp_path / "awk.csv")
        back = load_csv(path)
        assert np.array_equal(back.truth, rec.truth)
        assert np.array_equal(back.filter_means["enks"], rec.filter_means["enks"])

    def test_summary_rmse_matches_recomputation(self, tmp_path):
        rec = small_record()
        summary = rec.summary_rmse()
        for name in rec.filters:
            again = rmse(rec.filter_means[name], rec.truth)
            assert np.allclose(summary[name], again, rtol=1e-12, atol=0)
        path = emit_summary(rec, tmp_path / "summary.csv")
        assert path.exists()

    def test_summary_bytes_match_the_writer_that_formats_each_cell(self,
                                                                  tmp_path):
        rec = awkward_record()
        rec.wall_time = 12.34567
        summary = rec.summary_rmse()
        lines = ["channel," + ",".join(f"{n}_rmse" for n in rec.filters)
                 + ",seed,wall_time"]
        for c in range(rec.n_channels):
            lines.append(",".join(
                [str(c)] + [repr(float(summary[n][c])) for n in rec.filters]
                + [str(rec.seed), f"{rec.wall_time:.3f}"]))
        assert "nan" in lines[3]
        path = emit_summary(rec, tmp_path / "summary.csv")
        assert path.read_bytes() == lines_bytes(lines)


class TestSeriesCsv:
    def test_round_trip_identity(self, tmp_path):
        times = np.array([0.1, 0.2, 1 / 3])
        values = np.array([[1.0, -2.5, 1e-17], [np.pi, 0.0, -1 / 7]])
        path = emit_series_csv(tmp_path / "s.csv", times, values)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,time,channel,value"
        assert lines[1] == "1,0.1,0,1.0"
        back_t, back_v = load_series_csv(path)
        assert np.array_equal(back_t, times)
        assert np.array_equal(back_v, values)

    def test_bytes_match_the_writer_that_indexes_the_arrays(self, tmp_path):
        times = np.array([0.1, 0.2, 1 / 3, 1e300])
        values = np.array([[1e-310, -0.0, 1 / 3, 1e300],
                           [np.pi, 0.0, -1 / 7, np.nan]])
        lines = ["step,time,channel,value"]
        for i, t in enumerate(times):
            for c in range(values.shape[0]):
                lines.append(f"{i + 1},{repr(float(t))},{c},"
                             f"{repr(float(values[c, i]))}")
        path = emit_series_csv(tmp_path / "s.csv", times, values)
        assert path.read_bytes() == lines_bytes(lines)

    @pytest.mark.parametrize("case", ["header", "other-column",
                                      "repeated-column"]
                             + sorted(MALFORMED_ROWS))
    def test_malformed_input_is_a_config_error(self, tmp_path, case):
        if case == "header":
            text = "step,time,value\n1,0.1,2.0\n"
        elif case == "other-column":
            text = "step,time,channel,truth\n1,0.1,0,2.0\n"
        elif case == "repeated-column":
            text = "step,time,channel,value,value\n1,0.1,0,2.0,3.0\n"
        else:
            text = "\n".join(["step,time,channel,value"] + [
                r.format(v="2.0") for r in MALFORMED_ROWS[case]]) + "\n"
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match="bad.csv"):
            load_series_csv(path)


class TestDataset:
    def make(self, out):
        times = np.array([0.1, 0.2, 0.3])
        truth = np.array([[1e-310, -0.0, 1 / 3], [1e300, 2.0, -1 / 7]])
        series = MeasurementSeries(times=times, values=truth + 0.5)
        return emit_dataset(out, truth, series, np.array([1 / 3, 1e-310]), 11)

    def test_noise_and_seed_bytes_match_the_writer_that_formats_each_cell(
            self, tmp_path):
        out = self.make(tmp_path / "data")
        assert (out / "noise_std.csv").read_bytes() == lines_bytes(
            ["channel,noise_std", f"0,{repr(1 / 3)}", "1,1e-310"])
        assert (out / "seed.txt").read_bytes() == b"11\n"

    def test_round_trip(self, tmp_path):
        out = self.make(tmp_path / "data")
        truth, series, noise_std, seed = load_dataset(out)
        assert np.array_equal(truth[1], [1e300, 2.0, -1 / 7])
        assert np.array_equal(series.times, [0.1, 0.2, 0.3])
        assert np.array_equal(noise_std, [1 / 3, 1e-310])
        assert seed == 11

    def test_truth_on_another_time_grid_is_a_config_error(self, tmp_path):
        # a truth series whose times are not the measurements' is refused,
        # however many rows it has
        out = self.make(tmp_path / "data")
        truth, series, _, _ = load_dataset(out)
        emit_series_csv(out / "truth.csv", 7 * series.times, truth)
        with pytest.raises(ConfigError, match="truth.csv"):
            load_dataset(out)

    @pytest.mark.parametrize("text", [
        "channel,std\n0,0.5\n",
        "0,0.5\n1,0.5\n",
        "channel,noise_std\n0,0.5,1.0\n",
        "channel,noise_std\n0\n",
        "channel,noise_std\n0,half\n",
    ], ids=["header", "no-header", "long-row", "short-row", "value"])
    def test_malformed_noise_levels_are_a_config_error(self, tmp_path, text):
        out = self.make(tmp_path / "data")
        (out / "noise_std.csv").write_text(text)
        with pytest.raises(ConfigError, match="noise_std.csv"):
            load_dataset(out)


def reference_polylines(rec, channels):
    """Each polyline's points as the chart once formed them: one numpy
    scalar per point, through the chart's affine map."""
    series = [rec.truth[c] for c in channels]
    for name in rec.filters:
        series += [rec.filter_means[name][c] for c in channels]
    finite = np.concatenate([s[np.isfinite(s)] for s in series])
    lo, hi = float(finite.min()), float(finite.max())
    t0, t1 = float(rec.times[0]), float(rec.times[-1])
    pw, ph = 800 - 60 - 20, 480 - 20 - 45
    return [" ".join(f"{60 + (t - t0) / (t1 - t0) * pw:.2f},"
                     f"{20 + (hi - v) / (hi - lo) * ph:.2f}"
                     for t, v in zip(rec.times, vals) if np.isfinite(v))
            for vals in series]


class TestLinechart:
    def test_points_match_the_per_point_formula(self, tmp_path):
        rec = small_record(M=40, n=2, filters=("enks", "enkf"))
        rec.filter_means["enks"][1, 7] = np.nan
        rec.filter_means["enkf"][0, 0] = np.inf
        text = emit_linechart(rec, [0, 1], tmp_path / "c.svg").read_text()
        points = [l.split('points="')[1].split('"')[0]
                  for l in text.splitlines() if l.startswith("<polyline")]
        assert points == reference_polylines(rec, [0, 1])
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                               'width="800" height="480">')

    def test_constant_series_is_horizontal(self, tmp_path):
        rec = RunRecord(steps=[1, 2, 3], times=[0.1, 0.2, 0.3],
                        truth=np.full((1, 3), 2.0),
                        filter_means={"enks": np.full((1, 3), 2.0)},
                        filter_stds={"enks": np.zeros((1, 3))})
        path = emit_linechart(rec, [0], tmp_path / "c.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        polys = [l for l in text.splitlines() if l.startswith("<polyline")]
        assert len(polys) == 2  # truth + one filter
        pts = polys[0].split('points="')[1].split('"')[0].split()
        ys = {p.split(",")[1] for p in pts}
        assert len(ys) == 1  # horizontal

    def test_empty_channel_selection_rejected(self, tmp_path):
        rec = small_record()
        with pytest.raises(ValueError):
            emit_linechart(rec, [], tmp_path / "x.svg")
        with pytest.raises(ValueError):
            emit_linechart(rec, [99], tmp_path / "x.svg")

    def test_polyline_count_structure(self, tmp_path):
        rec = small_record(filters=("enks", "enks-iter", "enkf"))
        path = emit_linechart(rec, [0, 1], tmp_path / "p.svg")
        text = path.read_text()
        polys = [l for l in text.splitlines() if l.startswith("<polyline")]
        assert len(polys) == (1 + 3) * 2  # (truth + 3 filters) x 2 channels
        assert "time</text>" in text  # labeled axes
        assert "value</text>" in text
