import numpy as np
import pytest

from enks.errors import ConfigError
from enks.record import (RunRecord, emit_csv, emit_linechart, emit_series_csv,
                         emit_summary, load_csv, load_series_csv, rmse)


def small_record(M=3, n=2, filters=("enks", "enkf")):
    rng = np.random.default_rng(0)
    return RunRecord(
        steps=np.arange(1, M + 1),
        times=0.1 * np.arange(1, M + 1),
        truth=rng.standard_normal((n, M)),
        filter_means={f: rng.standard_normal((n, M)) for f in filters},
        filter_stds={f: np.abs(rng.standard_normal((n, M))) for f in filters},
        seed=7)


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
        rec = small_record(M=4, n=3)
        rec.truth[1, 2] = 1e-310
        rec.filter_means["enkf"][0, 1] = -0.0
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
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

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

    @pytest.mark.parametrize("text", [
        "step,time,value\n1,0.1,2.0\n",
        "step,time,channel,value\n1,0.1,0,abc\n",
        "step,time,channel,value\n1,0.1\n",
    ], ids=["header", "value", "short-row"])
    def test_malformed_input_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_series_csv(path)


class TestLinechart:
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
