import warnings

import numpy as np
import pytest

from niconsensus import svgplot
from niconsensus.svgplot import _polyline_points, write_line_plot


def per_point_points(x_px, y_rows):
    """Oracle: the points attributes as formatted before the template, one
    f-string per point on numpy scalars."""
    return (" ".join(f"{xv:.2f},{yv:.2f}" for xv, yv in zip(x_px, row)) for row in y_rows)


def test_polyline_points_are_the_bytes_of_the_per_point_formatter():
    x = np.array([0.0, -0.0, 1.005, -3.14159, 0.125, 123456.789, -1e-3, np.nan, np.inf])
    rows = [x[::-1], np.full(x.size, -0.0), np.full(x.size, 2.5), -x,
            np.array([np.nan, -np.inf, -0.004, 0.005, -0.005, 1e-300, -1e300, 7.0, -7.0])]
    assert list(_polyline_points(x, rows)) == list(per_point_points(x, rows))


@pytest.mark.parametrize("case", ["mixed", "flat"])
def test_plot_is_the_bytes_of_the_per_point_formatter(tmp_path, monkeypatch, case):
    """Whole files: series with negative values and -0.0 beside a flat one,
    and a plot of one flat series (the padded y range)."""
    t = np.linspace(0.0, 2.0, 201)
    if case == "mixed":
        series = np.vstack([np.sin(3.0 * t) - 0.5, np.where(t < 1.0, -0.0, -t),
                            np.full(t.size, 0.25), -np.cos(t)])
    else:
        series = np.full((1, t.size), -0.0)
    write_line_plot(tmp_path / "new.svg", t, series, title="t", xlabel="x", ylabel="y")
    monkeypatch.setattr(svgplot, "_polyline_points", per_point_points)
    write_line_plot(tmp_path / "old.svg", t, series, title="t", xlabel="x", ylabel="y")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def test_a_one_sample_plot_is_finite(tmp_path):
    """One sample has a zero x range, widened as a zero y range is: its point
    sits mid-plot, with no nan and no warning. So do a flat series and a flat
    x range near 1e17, where a widening by 1 is lost to rounding."""
    for x, series, points in (([0.0], [[1.0]], "395.00,255.00"),
                              ([0.0, 1.0], [[1e17, 1e17]], "70.00,255.00 720.00,255.00"),
                              ([1e17, 1e17], [[0.0, 1.0]], "395.00,445.00 395.00,65.00")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_line_plot(tmp_path / "one.svg", x, series)
        svg = (tmp_path / "one.svg").read_text()
        assert "nan" not in svg and f'points="{points}"' in svg
