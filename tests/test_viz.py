"""ASCII visualization helpers."""

import numpy as np

from repro.viz import ascii_image


class TestAsciiImage:
    def test_gray_2d(self):
        art = ascii_image(np.zeros((4, 4)))
        lines = art.splitlines()
        assert len(lines) == 4
        assert all(line == "  " * 4 for line in lines)  # all-dark = spaces

    def test_bright_is_dense(self):
        art = ascii_image(np.full((2, 2), 255.0))
        assert set(art.replace("\n", "")) == {"@"}

    def test_channel_image(self):
        art = ascii_image(np.zeros((3, 3, 1), dtype=np.uint8))
        assert len(art.splitlines()) == 3

    def test_rgb_uses_luma(self):
        red = np.zeros((1, 1, 3), dtype=np.uint8)
        red[..., 0] = 255
        green = np.zeros((1, 1, 3), dtype=np.uint8)
        green[..., 1] = 255
        # Green is brighter than red in luma.
        ramp = " .:-=+*#%@"
        assert ramp.index(ascii_image(green)[0]) > ramp.index(ascii_image(red)[0])

    def test_wide_images_subsampled(self):
        art = ascii_image(np.zeros((4, 200)), max_width=40)
        assert max(len(line) for line in art.splitlines()) <= 2 * 40


class TestSparkline:
    def test_empty_series(self):
        from repro.viz import sparkline
        assert sparkline([]) == ""

    def test_constant_series_uses_mid_tick(self):
        from repro.viz import sparkline
        out = sparkline([3.0, 3.0, 3.0])
        assert len(out) == 3
        assert len(set(out)) == 1
        assert out[0] in "▁▂▃▄▅▆▇█"

    def test_monotone_rise(self):
        from repro.viz import sparkline
        out = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert out == "▁▂▃▄▅▆▇█"

    def test_nan_becomes_placeholder(self):
        from repro.viz import sparkline
        out = sparkline([0.0, float("nan"), 1.0])
        assert out[1] == "·"
        assert out[0] == "▁" and out[2] == "█"

    def test_all_nan_series(self):
        from repro.viz import sparkline
        assert sparkline([float("nan")] * 4) == "····"

    def test_width_subsamples(self):
        from repro.viz import sparkline
        out = sparkline(list(range(100)), width=10)
        assert len(out) == 10
        assert out[0] == "▁" and out[-1] == "█"


class TestTrend:
    def test_first_to_last(self):
        from repro.viz import trend
        assert trend([1.0, 5.0, 2.0]) == "1 -> 2"

    def test_no_finite_values(self):
        from repro.viz import trend
        assert trend([]) == "n/a"
        assert trend([float("nan")]) == "n/a"
