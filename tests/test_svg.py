import re

import numpy as np

from aperture_dof._svg import plot_lines


def _doc():
    x = np.arange(1, 6)
    return plot_lines(
        [
            {"x": x, "y": [1.0, 1e-2, 1e-5, 0.0, -1.0], "label": "a"},
            {"x": x[:3], "y": [1.0, 0.5, 0.1]},
        ],
        vlines=[(2.5, "mark")],
        y_floor=1e-4,
    )


def _polylines(doc):
    return [
        [tuple(map(float, p.split(","))) for p in pts.split()]
        for pts in re.findall(r'<polyline points="([^"]*)"', doc)
    ]


def test_each_polyline_has_one_point_per_sample():
    assert [len(line) for line in _polylines(_doc())] == [5, 3]


def test_values_below_the_floor_are_clamped_to_it():
    doc = _doc()
    ys = [y for _, y in _polylines(doc)[0]]
    # 1.0 and y_floor are the top and bottom decades: the plot frame's edges
    frame = re.search(r'<rect x="[^"]*" y="([^"]*)" width="[^"]*" height="([^"]*)"', doc)
    top, bottom = float(frame[1]), float(frame[1]) + float(frame[2])
    assert ys[0] == top
    assert ys[2:] == [bottom, bottom, bottom]
    assert top < ys[1] < bottom


def test_y_tick_labels_are_decades():
    labels = re.findall(r'text-anchor="end">([^<]*)</text>', _doc())
    assert labels == ["1e-4", "1e-3", "1e-2", "1e-1", "1e0"]
