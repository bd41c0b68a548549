"""The observability switches reach workers under any start method.

Under Linux's default ``fork`` start method every worker inherits the
parent's obs switches, so the rest of this suite cannot tell whether
:func:`repro.parallel.run_tasks` ships them. These tests drive a campaign
in a subprocess under ``spawn``, whose workers start from a fresh
interpreter (obs on by default) and see only what the pool initializer
hands them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

DRIVER = textwrap.dedent(
    """
    import json
    import multiprocessing
    import sys

    import repro.core  # noqa: F401  (repro.core before repro.system)
    from campaign_util import parallel_campaign
    from repro import obs
    from repro.obs import get_metrics, get_telemetry, get_tracer
    from repro.parallel import run_tasks
    from repro.system import TestbedSimulator


    def worker_switches(_payload):
        return [get_tracer().enabled, get_metrics().enabled, get_telemetry().enabled]


    def main(mode):
        multiprocessing.set_start_method("spawn")
        if mode == "off":
            obs.disable()
        config = parallel_campaign(n_runs=4)
        serial = TestbedSimulator(config).run_campaign(jobs=1)
        serial_counters = get_metrics().snapshot()["counters"]
        obs.reset()
        parallel = TestbedSimulator(config).run_campaign(jobs=2)
        report = {
            "start_method": multiprocessing.get_start_method(),
            "same_history": (
                parallel.content_fingerprint() == serial.content_fingerprint()
            ),
            "serial_counters": serial_counters,
            "counters": get_metrics().snapshot()["counters"],
            "series": sorted(get_telemetry().snapshot()["series"]),
            "roots": [s.name for s in get_tracer().roots],
        }
        report["worker_switches"] = run_tasks(worker_switches, [0, 1], jobs=2)
        json.dump(report, sys.stdout)


    if __name__ == "__main__":
        main(sys.argv[1])
    """
)


def _run_spawned(tmp_path: Path, mode: str) -> dict:
    here = Path(__file__).resolve().parent
    src = here.parents[1] / "src"
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    env = dict(os.environ)
    env.pop("F2PM_OBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, str(driver), mode],
        capture_output=True,
        cwd=tmp_path,
        env=env,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["start_method"] == "spawn"
    assert report["same_history"]
    return report


def test_disabled_obs_stays_disabled_in_spawned_workers(tmp_path):
    report = _run_spawned(tmp_path, "off")
    assert report["worker_switches"] == [[False, False, False]] * 2
    assert report["counters"] == {}
    assert report["series"] == []
    assert report["roots"] == []


def test_spawned_workers_merge_the_serial_counters(tmp_path):
    report = _run_spawned(tmp_path, "on")
    assert report["worker_switches"] == [[True, True, True]] * 2
    assert report["counters"] == report["serial_counters"]
    assert report["counters"]["sim.runs_total"] == 4
    assert "sim.run_seconds" in report["series"]
    assert report["roots"] == ["simulate.campaign"]
