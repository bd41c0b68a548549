"""F2PM core: the paper's contribution.

Workflow phases (paper Sec. III, Fig. 1):

A. *Initial system monitoring* — produces a :class:`~repro.core.history.DataHistory`
   (raw datapoints + fail events over many runs). In this reproduction the
   history comes from :mod:`repro.system`'s simulated testbed, but any
   source emitting the 15-feature schema works.
B. *Datapoint aggregation and added metrics* —
   :func:`~repro.core.aggregation.aggregate_history` (time windows, Eq. 1
   slopes, inter-generation time, RTTF labels).
C. *Feature selection* — :class:`~repro.core.feature_selection.LassoFeatureSelector`.
D. *Model generation and validation* — :mod:`~repro.core.model_zoo` +
   :func:`~repro.core.evaluation.evaluate_model`.
E. Orchestrated end-to-end by :class:`~repro.core.framework.F2PM`.
"""

from repro.core.datapoint import (
    FEATURES,
    BASE_FEATURES,
    SLOPE_FEATURES,
    GEN_TIME,
    TGEN,
    AGGREGATED_FEATURES,
    Datapoint,
)
from repro.core.history import RunRecord, DataHistory
from repro.core.aggregation import AggregationConfig, aggregate_run, aggregate_history
from repro.core.dataset import TrainingSet
from repro.core.feature_selection import DesignAudit, LassoFeatureSelector, SelectionResult
from repro.core.model_zoo import make_model, available_models, PAPER_MODELS
from repro.core.evaluation import ModelReport, evaluate_model
from repro.core.correlation import ResponseTimeCorrelator
from repro.core.framework import F2PM, F2PMConfig, F2PMResult
from repro.core.incremental import (
    IncrementalCollector,
    IncrementalConfig,
    IncrementalResult,
)
from repro.core.report import render_markdown_report, write_markdown_report
from repro.core.persistence import ModelEnvelope, save_model, load_model
from repro.core.ingest import (
    CSVTraceSpec,
    read_run_csv,
    read_campaign_csv,
    write_run_csv,
)
from repro.core.sanitize import (
    DataQualityError,
    QualityReport,
    RunQualityReport,
    SanitizeConfig,
    sanitize_history,
    sanitize_run,
)

__all__ = [
    "FEATURES",
    "BASE_FEATURES",
    "SLOPE_FEATURES",
    "GEN_TIME",
    "TGEN",
    "AGGREGATED_FEATURES",
    "Datapoint",
    "RunRecord",
    "DataHistory",
    "AggregationConfig",
    "aggregate_run",
    "aggregate_history",
    "TrainingSet",
    "DesignAudit",
    "LassoFeatureSelector",
    "SelectionResult",
    "make_model",
    "available_models",
    "PAPER_MODELS",
    "ModelReport",
    "evaluate_model",
    "ResponseTimeCorrelator",
    "F2PM",
    "F2PMConfig",
    "F2PMResult",
    "IncrementalCollector",
    "IncrementalConfig",
    "IncrementalResult",
    "render_markdown_report",
    "write_markdown_report",
    "ModelEnvelope",
    "save_model",
    "load_model",
    "CSVTraceSpec",
    "read_run_csv",
    "read_campaign_csv",
    "write_run_csv",
    "DataQualityError",
    "QualityReport",
    "RunQualityReport",
    "SanitizeConfig",
    "sanitize_history",
    "sanitize_run",
]
