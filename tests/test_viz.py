"""Terminal sparklines."""

from repro.viz import sparkline


class TestSparkline:
    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_constant_series_uses_mid_tick(self):
        out = sparkline([3.0, 3.0, 3.0])
        assert len(out) == 3
        assert len(set(out)) == 1
        assert out[0] in "▁▂▃▄▅▆▇█"

    def test_monotone_rise(self):
        out = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert out == "▁▂▃▄▅▆▇█"

    def test_nan_becomes_placeholder(self):
        out = sparkline([0.0, float("nan"), 1.0])
        assert out[1] == "·"
        assert out[0] == "▁" and out[2] == "█"

    def test_all_nan_series(self):
        assert sparkline([float("nan")] * 4) == "····"

    def test_width_subsamples(self):
        out = sparkline(list(range(100)), width=10)
        assert len(out) == 10
        assert out[0] == "▁" and out[-1] == "█"
