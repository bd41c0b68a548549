"""Experiment drivers — one per table/figure of the paper's Sec. IV.

Every driver exposes ``run(<input>=None, verbose=True)`` returning a
structured result, and can be executed as a script::

    python -m repro.experiments.fig4_lasso_path

The input is what the artefact is computed from: the campaign history
(Fig. 3), a fitted Lasso path (Fig. 4, Table I) or one F2PM execution
(Tables II-IV, Fig. 5, the rejuvenation sweep). ``runall`` builds each
once and hands it to every driver that reads it; a driver run on its
own builds its input from the default campaign, which is simulated once
and cached on disk (:mod:`repro.experiments.common`) — like the paper's
one-week trace feeding all its tables.

=========  ===================================================
driver     paper artefact
=========  ===================================================
fig3_*     Fig. 3 — response-time / inter-generation-time correlation
fig4_*     Fig. 4 — #parameters selected by Lasso vs lambda
table1_*   Table I — weights at the strongest selection point
table2_*   Table II — S-MAE, all vs selected parameters
table3_*   Table III — training time
table4_*   Table IV — validation time
fig5_*     Fig. 5 — predicted vs real RTTF per method
runall     all of the above, sharing one history and one F2PM execution
=========  ===================================================
"""

from repro.experiments.common import (
    DEFAULT_CAMPAIGN,
    default_history,
    default_f2pm_config,
)

__all__ = [
    "DEFAULT_CAMPAIGN",
    "default_history",
    "default_f2pm_config",
]
