"""Censored quantile regression with small neural predictors.

Estimates latent-distribution quantiles from censored observations:
tilted-loss and censored-NLL objectives, hand-backpropagated linear /
ELU / regularized / LSTM predictors, a Tobit parametric baseline,
synthetic benchmarks with analytic ground truth, and the censorship and
evaluation protocols wired into a reproducible experiment CLI.
"""

from .datagen import (
    NOISES,
    CensoredDataset,
    CensoredSeries,
    SyntheticSpec,
    bundled_daily_series,
    build_lagged_dataset,
    censor_fleet,
    censor_partial,
    gen_synthetic,
    gen_trip_table,
    lag_features,
    latent_quantile,
    split,
)
from .losses import (
    censored_qr_nll,
    censored_qr_nll_grad,
    tilted_loss,
    tilted_loss_subgrad,
    tobit_nll,
)
from .metrics import EvalReport, interval_metrics, point_metrics, subset_report
from .models import (
    LinearQuantileNet,
    LstmQuantileNet,
    MirrorWrapper,
    RegularizedLinearNet,
    StackedUnitNet,
    TobitNet,
    init_weights,
    net_from_dict,
)
from .normal import std_normal_quantile
from .tobit import tobit_fit
from .training import (
    FitResult,
    TrainConfig,
    fit,
    fit_with_lr_grid,
    impute_thresholds,
    select_initialization,
    train_mean_ratio,
)

__version__ = "0.2.0"
