"""From-scratch machine-learning substrate (numpy/scipy only).

Implements the six regression methods F2PM evaluates (paper Sec. III-D):

- :class:`~repro.ml.linear.LinearRegression` (Alpaydin 2014)
- :class:`~repro.ml.lasso.Lasso` (Tibshirani 1994) — used both for
  regularization-based feature selection and as a predictor
- :class:`~repro.ml.tree.m5p.M5PRegressor` (Wang & Witten 1997)
- :class:`~repro.ml.tree.reptree.REPTreeRegressor` (reduced-error pruning)
- :class:`~repro.ml.svr.SVR` (Cortes & Vapnik 1995, epsilon-insensitive)
- :class:`~repro.ml.lssvm.LSSVMRegressor` (Suykens & Vandewalle 1999)

plus preprocessing, metrics (including the paper's S-MAE) and model
selection utilities.
"""

from repro.ml.base import Regressor, clone, solver_converged
from repro.ml.preprocessing import StandardScaler, MinMaxScaler
from repro.ml.metrics import (
    mean_absolute_error,
    relative_absolute_error,
    max_absolute_error,
    soft_mean_absolute_error,
    root_mean_squared_error,
    r2_score,
)
from repro.ml.model_selection import (
    train_test_split,
    KFold,
    cross_validate,
    GridSearchCV,
)
from repro.ml.linear import LinearRegression, RidgeRegression
from repro.ml.lasso import Lasso, LassoPath, lasso_path, span_audit
from repro.ml.kernels import (
    KernelExpansion,
    kernel_gram,
    linear_kernel,
    polynomial_kernel,
    rbf_kernel,
    squared_norms,
)
from repro.ml.svr import SVR
from repro.ml.lssvm import LSSVMRegressor
from repro.ml.tree import REPTreeRegressor, M5PRegressor
from repro.ml.ensemble import BaggingRegressor
from repro.ml.inspection import permutation_importance, PermutationImportance
from repro.ml.serving import CompiledPredictor, CompileReport, compile_predictor

__all__ = [
    "Regressor",
    "clone",
    "solver_converged",
    "StandardScaler",
    "MinMaxScaler",
    "mean_absolute_error",
    "relative_absolute_error",
    "max_absolute_error",
    "soft_mean_absolute_error",
    "root_mean_squared_error",
    "r2_score",
    "train_test_split",
    "KFold",
    "cross_validate",
    "GridSearchCV",
    "LinearRegression",
    "RidgeRegression",
    "Lasso",
    "lasso_path",
    "LassoPath",
    "span_audit",
    "KernelExpansion",
    "kernel_gram",
    "linear_kernel",
    "polynomial_kernel",
    "rbf_kernel",
    "squared_norms",
    "CompiledPredictor",
    "CompileReport",
    "compile_predictor",
    "SVR",
    "LSSVMRegressor",
    "REPTreeRegressor",
    "M5PRegressor",
    "BaggingRegressor",
    "permutation_importance",
    "PermutationImportance",
]
