"""Activity-spectrum estimation from waiting-time (duration) data.

Two complementary estimators for the mixing density over exponential
rates whose Laplace transform is the observed survival function:
Tikhonov-regularized inversion of the discretized exponential kernel,
and a windowed delta-comb (piecewise constant activity) fit.  Both are
scored by a Kolmogorov-Smirnov criterion; seeded synthetic generators
(exponential mixtures, Mittag-Leffler) provide ground truth for
calibration.
"""

from .delta_comb import (CombSolution, DeltaComb, comb_survival, default_delta_t_grid,
                         estimate_h, fit_comb, sweep_delta_t)
from .durations import (DurationSeries, SurvivalCurve, default_tau_grid,
                        empirical_survival, load_durations)
from .gof import KsReport, ks_compare, ks_pvalue, ks_statistic
from .kernel import KernelMatrix, assemble_kernel, conditioning_ratio
from .synthetic import (MixtureSpec, MlParams, gen_mittag_leffler,
                        gen_mixture, ml_survival)
from .tikhonov import (SpectrumGrid, TikhonovSolution, default_mu_grid,
                       eval_objective, solve_tikhonov, sweep_mu)

__version__ = "0.1.0"

__all__ = [
    "DurationSeries", "SurvivalCurve", "load_durations", "empirical_survival",
    "default_tau_grid",
    "KernelMatrix", "assemble_kernel", "conditioning_ratio",
    "KsReport", "ks_statistic", "ks_pvalue", "ks_compare",
    "SpectrumGrid", "TikhonovSolution", "eval_objective", "solve_tikhonov",
    "sweep_mu", "default_mu_grid",
    "DeltaComb", "CombSolution", "fit_comb", "comb_survival", "sweep_delta_t",
    "estimate_h", "default_delta_t_grid",
    "MixtureSpec", "MlParams", "gen_mixture", "gen_mittag_leffler",
    "ml_survival",
]
