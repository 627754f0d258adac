"""Parameter sweep runner."""

import pytest

from repro.errors import ConfigError
from repro.pipeline.sweep import Sweep, SweepResult, expand_grid


class TestExpandGrid:
    def test_cartesian_product(self):
        points = list(expand_grid({"a": [1, 2], "b": ["x", "y"]}))
        assert len(points) == 4
        assert {"a": 1, "b": "y"} in points

    def test_empty_grid(self):
        assert list(expand_grid({})) == [{}]

    def test_single_axis(self):
        points = list(expand_grid({"bits": [8, 4, 2]}))
        assert [p["bits"] for p in points] == [8, 4, 2]


class TestSweep:
    def test_runs_every_point(self):
        calls = []

        def experiment(a, b):
            calls.append((a, b))
            return {"sum": a + b}

        sweep = Sweep({"a": [1, 2], "b": [10, 20]}, experiment)
        assert len(sweep) == 4
        result = sweep.run()
        assert len(result) == 4
        assert len(calls) == 4
        assert {"a": 2, "b": 20, "sum": 22} in result.records

    def test_progress_callback(self):
        seen = []
        Sweep({"x": [1, 2]}, lambda x: {"y": x}).run(progress=seen.append)
        assert seen == [{"x": 1}, {"x": 2}]

    def test_non_callable_raises(self):
        with pytest.raises(ConfigError):
            Sweep({"a": [1]}, experiment="not callable")


class TestSweepResult:
    def make(self):
        return SweepResult(records=[
            {"bits": 8, "acc": 0.9},
            {"bits": 4, "acc": 0.8},
            {"bits": 2, "acc": 0.3},
        ])

    def test_filter(self):
        assert len(self.make().filter(bits=4)) == 1

    def test_best_maximize(self):
        assert self.make().best("acc")["bits"] == 8

    def test_best_minimize(self):
        assert self.make().best("acc", maximize=False)["bits"] == 2

    def test_best_missing_metric_raises(self):
        with pytest.raises(ConfigError):
            self.make().best("mape")

    def test_columns_union(self):
        result = SweepResult(records=[{"a": 1}, {"b": 2}])
        assert result.columns() == ["a", "b"]

    def test_to_table(self):
        table = self.make().to_table(title="sweep")
        assert "bits" in table and "acc" in table
        assert table.splitlines()[0] == "sweep"

    def test_to_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        self.make().to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bits,acc"
        assert len(lines) == 4


class TestSweepResultWithFailures:
    """Failure records (missing/None/NaN metrics) must not break queries."""

    def make(self):
        return SweepResult(records=[
            {"bits": 8, "acc": 0.9},
            {"bits": 4, "error": "RuntimeError('diverged')",
             "error_kind": "exception"},
            {"bits": 2, "acc": None},
            {"bits": 1, "acc": float("nan")},
        ])

    def test_best_skips_missing_and_unorderable(self):
        assert self.make().best("acc")["bits"] == 8

    def test_best_minimize_skips_failures(self):
        result = SweepResult(records=[
            {"bits": 8, "acc": 0.9},
            {"bits": 4, "error": "boom"},
            {"bits": 2, "acc": 0.3},
        ])
        assert result.best("acc", maximize=False)["bits"] == 2

    def test_best_all_failed_raises(self):
        result = SweepResult(records=[{"bits": 4, "error": "boom"}])
        with pytest.raises(ConfigError):
            result.best("acc")

    def test_filter_ignores_missing_keys(self):
        assert len(self.make().filter(acc=0.9)) == 1
        assert len(self.make().filter(missing_key=1)) == 0

    def test_filter_selects_failures_by_params(self):
        assert self.make().filter(bits=4).records[0]["error_kind"] == "exception"

    def test_failures_and_ok_split(self):
        result = self.make()
        assert len(result.failures()) == 1
        assert len(result.ok()) == 3
        assert len(result.failures()) + len(result.ok()) == len(result)

    def test_to_csv_pads_missing_columns(self, tmp_path):
        path = tmp_path / "ragged.csv"
        self.make().to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5

    def test_to_table_renders(self):
        assert "error" in self.make().to_table()


class TestSweepTelemetry:
    def test_records_unchanged_by_default(self):
        result = Sweep({"x": [1]}, lambda x: {"y": x}).run()
        assert result.records == [{"x": 1, "y": 1}]

    def test_telemetry_adds_duration_and_snapshot(self):
        from repro.telemetry import default_registry

        def experiment(x):
            default_registry().counter("sweep.test.counter").inc(3)
            return {"y": x}

        sweep = Sweep({"x": [1, 2]}, experiment, telemetry=True)
        # pooled points carry their own worker's snapshot, not a total
        for record in sweep.run(parallel=2).records:
            assert record["duration_s"] >= 0.0
            assert record["tm.sweep.test.counter"] == 3.0
        # in-process points: the metrics land in this process's registry
        for record in sweep.run().records:
            assert record["duration_s"] >= 0.0
            assert not any(key.startswith("tm.") for key in record)

    def test_points_emit_spans(self):
        from repro.telemetry import recording
        with recording() as recorder:
            Sweep({"x": [1, 2, 3]}, lambda x: {"y": x}).run()
        assert len(recorder.by_name("sweep.point")) == 3
