"""Layer-sensitivity self-test: slow one layer, watch the paired metric move.

The benchmark claims that a change to the ``system`` layer shows in
``sim_s_per_s`` on ``fleet-testbed``, where stepping testbed nodes is
most of the op, and barely on ``fleet-scale``, whose closed-form source
is a small share. This test makes the wrapped ``FleetSource.step``
busy-wait an extra half of each call's own duration and checks that
fleet-testbed's rate drops by at least half the drop its traced step
share predicts, that fleet-scale's stays small, and that the gap between
the two is at least half the predicted gap. The slowdown is large enough
that each of these fails when the delay has no effect.

Run from the repository root (about three minutes)::

    python3 -m pytest e2ebench/test_sensitivity.py -q
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import pytest  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, fresh_op_state  # noqa: E402

#: Extra busy time per step, as a share of the step's own duration:
#: about a 26% drop predicted on fleet-testbed against 6% on fleet-scale,
#: both well clear of the drift below.
DELAY = 0.5
#: Ops with and without the delay, alternating which runs first.
PAIRS = 6
#: Absolute slack on a measured drop: within one process the rate of
#: identical ops drifts with the host even after each op is calibrated
#: by the kernel samples taken during it; medians of six pairs landed up
#: to 3.2 points from the prediction on fleet-scale.
SLACK = 0.035


def _measure(name: str, work_dir: Path) -> tuple[float, float, float]:
    """(step share, predicted drop, measured drop) of ``sim_s_per_s``
    under the delay."""
    wl = WORKLOADS[name](1, work_dir)
    wl.setup()
    wl.warmup()
    cal = harness.Calibrator(array=wl.array_kernel)
    rec = tracing.Recorder()
    rec.op = "0"
    cal.rec = rec
    fresh_op_state()
    [traced] = wl.op(0, cal, rec)
    cal.rec = None
    share = sum(tracing.OpTrace(rec, "0").by_name["FleetSource.step"]) / traced.seconds
    predicted = DELAY * share / (1.0 + DELAY * share)

    # Same inputs on both sides of a pair; alternate which side runs first.
    ratios = []
    for i in range(PAIRS):
        rates = {}
        for delay in ((0.0, DELAY) if i % 2 == 0 else (DELAY, 0.0)):
            fresh_op_state()
            [op] = wl.op(i + 1, cal, step_delay=delay)
            rates[delay] = wl.rate(op) / cal.factor(op.kernel)
        ratios.append(rates[DELAY] / rates[0.0])
    return share, predicted, 1.0 - statistics.median(ratios)


@pytest.fixture(scope="module")
def drops(tmp_path_factory):
    return {
        "fleet-testbed": _measure("fleet-testbed", tmp_path_factory.mktemp("tb")),
        "fleet-scale": _measure("fleet-scale", tmp_path_factory.mktemp("fs")),
    }


def test_testbed_rate_tracks_the_system_share(drops):
    share, predicted, measured = drops["fleet-testbed"]
    assert share > 0.5, f"fleet-testbed step share is not the most: {share:.3f}"
    assert predicted / 2 <= measured <= 1.5 * predicted + SLACK, (
        f"fleet-testbed sim_s_per_s dropped {measured:.3f}, predicted {predicted:.3f}"
    )


def test_scale_rate_barely_moves(drops):
    share, predicted, measured = drops["fleet-scale"]
    assert share < 0.25, f"fleet-scale step share is not small: {share:.3f}"
    assert measured <= 1.5 * predicted + SLACK, (
        f"fleet-scale sim_s_per_s dropped {measured:.3f}, predicted {predicted:.3f}"
    )


def test_the_drop_follows_the_share(drops):
    _, tb_predicted, tb_measured = drops["fleet-testbed"]
    _, sc_predicted, sc_measured = drops["fleet-scale"]
    margin = 0.5 * (tb_predicted - sc_predicted)
    assert tb_measured - sc_measured >= margin, (
        f"fleet-testbed dropped {tb_measured:.3f} and fleet-scale {sc_measured:.3f}: "
        f"a gap under {margin:.3f}"
    )
