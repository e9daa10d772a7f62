"""Workload inputs: program command lines and expected output shapes.

Nothing here imports the program.  The benchmark hands the program only the
command lines and the sweep file built below.

A workload is a fixed operation made from the seed; one pass is one
repetition, and a run repeats it until its time is up.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

KINDS = ("qoc", "gqoc-sym", "gqoc-asym")

#: Stroke and coupling preset shared by every figure of the paper.
PRESET = {"delta_c": 0.10, "delta_h": 0.99, "kappa": 0.05}
W_MAX = 0.5 * (PRESET["delta_h"] - PRESET["delta_c"])

#: Every per-cycle output column of a sweep, in the program's documented order.
SWEEP_OUTPUTS = (
    "q12", "q34", "w", "eta", "xi12", "xi34", "xi_diff",
    "positive_work", "unity", "pi12", "pi34", "pi_total",
) + tuple(f"P{i}_{s}" for s in ("c", "h") for i in (1, 2, 3, 4)) \
  + tuple(f"E{i}_{s}" for s in ("c", "h") for i in (1, 2, 3, 4))

#: Grid of the wide table: B(-3..3, 601) x T_M(0.21..6, 11) at dT = 2.4, before
#: the seeded shift of the B axis (see ``wide_axes``).
WIDE_AXES = (("B", -3.0, 3.0, 601), ("T_M", 0.21, 6.0, 11))
WIDE_DT = 2.4

#: Grid of the fig5 preset: B(-3..3, 241) x dT(0..12, 121), asymmetric GQOC.
FIG5_AXES = (("B", -3.0, 3.0, 241), ("dT", 0.0, 12.0, 121))


def axis_values(start: float, stop: float, count: int) -> list[float]:
    """Linearly spaced axis values (the sweep documentation's linear spacing)."""
    span = count - 1
    return [start * (1.0 - i / span) + stop * (i / span) for i in range(count)]


def grid(axes) -> list[tuple[float, float]]:
    """Two-axis grid in row-major order, first axis outermost."""
    outer = axis_values(*axes[0][1:])
    inner = axis_values(*axes[1][1:])
    return [(u, v) for u in outer for v in inner]


def wide_axes(seed: int):
    """The wide table's axes, with B shifted by a seeded fraction of one step.

    The shift lies in [-step/2, step/2): different seeds evaluate different
    B values at the same cost, and B stays within 0.005 of [-3, 3].
    """
    (b_name, b_start, b_stop, b_count), t_axis = WIDE_AXES
    step = (b_stop - b_start) / (b_count - 1)
    shift = step * (random.Random(f"wide_table:{seed}").random() - 0.5)
    return ((b_name, b_start + shift, b_stop + shift, b_count), t_axis)


def wide_config(seed: int) -> dict:
    """Sweep JSON for the wide table: all three cycles, every output column."""
    axes = wide_axes(seed)
    return {
        "base": {"kind": "qoc", "B": 0.0, "J": 1.0, **PRESET,
                 "T_M": axes[1][1], "dT": WIDE_DT, "T_floor": 0.005},
        "axes": [{"name": n, "start": a, "stop": b, "count": c} for n, a, b, c in axes],
        "cycles": list(KINDS),
        "outputs": list(SWEEP_OUTPUTS),
    }


def write_wide_config(work: Path, seed: int) -> Path:
    path = work / "wide_table.json"
    path.write_text(json.dumps(wide_config(seed)), encoding="ascii")
    return path
