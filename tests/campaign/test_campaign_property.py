"""Property tests: diff algebra over random spec pairs, kill-resume identity.

The union property is the heart of run-missing: for any two specs A and
B sharing a store, the missing frontier of their union must be exactly
the union of their missing frontiers (dedup by artifact fingerprint),
and the cached set likewise. Cells are "cached" here via synthetic store
entries — the property is about the *diff*, so no simulation runs.

The SIGKILL torture mirrors ``tests/store``: a driver is killed mid-
campaign, a second driver re-runs the spec, and the final artifacts must
be bit-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import CampaignManager, CampaignSpec, merged_cells, plan_cells
from repro.store import ArtifactStore
from tests.conftest import small_campaign

# -- diff-union property ------------------------------------------------------

seeds_strategy = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=3, unique=True
)
browsers_strategy = st.lists(
    st.sampled_from([38, 40, 42, 44]), min_size=1, max_size=3, unique=True
)


def build_spec(seeds, browsers) -> CampaignSpec:
    return CampaignSpec(
        name="prop",
        base=small_campaign(n_runs=2),
        axes={"n_browsers": tuple(browsers)},
        seeds=tuple(seeds),
        stages=("simulate",),
    )


def fake_cache(store: ArtifactStore, spec: CampaignSpec, cached_cells) -> None:
    """Publish a synthetic (verified) entry for each chosen cell, so the
    planner sees it as cached without anything being simulated."""
    from repro.campaign import stage_artifact

    for cell in cached_cells:
        name, fp = stage_artifact(spec, cell, "simulate")
        if not store.contains(name):
            store.write(
                name,
                lambda p: p.write_bytes(b"synthetic"),
                kind="history",
                fingerprint=fp,
            )


def missing_fps(spec, cells, store) -> set:
    plan = plan_cells(spec, cells, store)
    return {p.cell.fingerprint for p in plan.missing_cells}


def cached_fps(spec, cells, store) -> set:
    plan = plan_cells(spec, cells, store)
    return {p.cell.fingerprint for p in plan.cached_cells}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seeds_a=seeds_strategy,
    browsers_a=browsers_strategy,
    seeds_b=seeds_strategy,
    browsers_b=browsers_strategy,
    cache_mask=st.integers(min_value=0, max_value=2**12 - 1),
)
def test_diff_of_union_is_union_of_diffs(
    tmp_path_factory, seeds_a, browsers_a, seeds_b, browsers_b, cache_mask
):
    store = ArtifactStore(tmp_path_factory.mktemp("prop-store"))
    spec_a = build_spec(seeds_a, browsers_a)
    spec_b = build_spec(seeds_b, browsers_b)

    union = merged_cells([spec_a, spec_b])
    # Pre-cache an arbitrary subset of the union's cells (the mask picks
    # which); both specs share the store, as cooperating drivers would.
    cached = [cell for i, cell in enumerate(union) if cache_mask & (1 << i)]
    fake_cache(store, spec_a, cached)

    # diff(A ∪ B) == diff(A) ∪ diff(B) — and the cached complement too.
    assert missing_fps(spec_a, union, store) == (
        missing_fps(spec_a, spec_a.cells(), store)
        | missing_fps(spec_b, spec_b.cells(), store)
    )
    assert cached_fps(spec_a, union, store) == (
        cached_fps(spec_a, spec_a.cells(), store)
        | cached_fps(spec_b, spec_b.cells(), store)
    )
    # Sanity: the union partitions exactly.
    assert len(missing_fps(spec_a, union, store)) + len(
        cached_fps(spec_a, union, store)
    ) == len(union)


# -- SIGKILL torture ----------------------------------------------------------

TORTURE_RUNS = 24

TORTURE_DRIVER = textwrap.dedent(
    """
    import sys

    from repro.campaign import CampaignManager, CampaignSpec
    from repro.store import ArtifactStore, checkpoint

    checkpoint.CHECKPOINT_EVERY = 1
    spec = CampaignSpec.from_json_file(sys.argv[1])
    print("started", flush=True)
    CampaignManager(spec, ArtifactStore()).run(jobs=1)
    print("finished", flush=True)
    """
)


def test_sigkill_mid_campaign_then_rerun_is_bit_identical(tmp_path):
    repo = Path(__file__).resolve().parents[2]
    spec = CampaignSpec(
        name="torture",
        base=small_campaign(n_runs=TORTURE_RUNS),
        stages=("simulate",),
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())

    # Reference: an uninterrupted run in a private store.
    reference = (
        CampaignManager(spec, ArtifactStore(tmp_path / "reference"))
        .run(jobs=1)
        .outcome(0)
        .results["simulate"]
        .content_fingerprint()
    )

    shared = tmp_path / "cache"
    env = dict(os.environ)
    env["F2PM_CACHE_DIR"] = str(shared)
    env["PYTHONPATH"] = f"{repo / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"

    # Kill a driver mid-campaign (a cadence of 1 makes any moment
    # mid-campaign); retry with a longer fuse if it finished too fast.
    killed = False
    for fuse in (0.4, 0.2, 0.1):
        proc = subprocess.Popen(
            [sys.executable, "-c", TORTURE_DRIVER, str(spec_path)],
            stdout=subprocess.PIPE,
            cwd=repo,
            env=env,
            text=True,
        )
        assert proc.stdout.readline().strip() == "started"
        time.sleep(fuse)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            killed = True
            break
        # Finished before the fuse: clear and try a shorter one.
        for p in shared.glob("*"):
            if p.is_file():
                p.unlink()

    # Even if every fuse lost the race (very fast machine), the rerun
    # assertion below still verifies resume-or-load bit-identity.
    result = CampaignManager(spec, ArtifactStore(shared)).run(jobs=1)
    final = result.outcome(0).results["simulate"].content_fingerprint()
    assert final == reference, (
        f"killed={killed}: resumed campaign diverged from uninterrupted run"
    )
