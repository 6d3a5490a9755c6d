"""Decay-rate analysis: empirical autocorrelation, exponential fits and
the Kruskal-Wallis heterogeneity test.

Each variable's temporal behaviour is summarized by a decay rate fitted
to its lag-binned autocorrelation, assuming Corr(dt) = exp(-rate * dt).
Pairs are formed only within an episode; cross-patient pairs carry no
temporal information. The fit is a through-origin least squares of
log-correlation against lag, so Corr(0) = 1 is forced by the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import integral, positive
from .metrics import midranks

# bins whose correlation is at or below this carry no usable log-correlation
MIN_CORR = 0.01


class InsufficientDataError(ValueError):
    """Not enough usable observations to compute the estimate."""


@dataclass
class AutocorrEstimate:
    lags: np.ndarray          # representative lag per usable bin (mean pair lag)
    correlations: np.ndarray  # Pearson correlation per usable bin
    pair_counts: np.ndarray   # pairs per usable bin
    n_excluded_bins: int      # bins dropped for sparsity or zero variance


@dataclass
class DecayFit:
    decay_rate: float
    residual: float  # rms of log-correlation residuals over the fitted bins
    n_bins: int


@dataclass
class KWResult:
    statistic: float
    df: int
    p_value: float


def empirical_autocorr(series: list[tuple[np.ndarray, np.ndarray]],
                       n_bins: int = 10,
                       max_lag: float | None = None,
                       min_pairs: int = 5) -> AutocorrEstimate:
    """Lag-binned Pearson autocorrelation from per-episode (times, values).

    Timestamps must be ascending within each episode (episodes guarantee
    this). Every within-episode observation pair (i, j) with i < j
    contributes the value pair (x_i, x_j) to the bin holding t_j - t_i.
    Bins with fewer than ``min_pairs`` pairs, or with zero variance on
    either side, are excluded and counted in ``n_excluded_bins``. A given
    ``max_lag`` that is not positive and finite raises a plain
    ``ValueError``; by default it is the largest pair lag, and a zero one
    raises :class:`InsufficientDataError`.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if max_lag is not None:
        positive(max_lag, "max_lag")
    lag_list: list[np.ndarray] = []
    left_list: list[np.ndarray] = []
    right_list: list[np.ndarray] = []
    for times, values in series:
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        m = len(times)
        if m < 2:
            continue
        ii, jj = np.triu_indices(m, k=1)
        lag_list.append(times[jj] - times[ii])
        left_list.append(values[ii])
        right_list.append(values[jj])
    if not lag_list:
        raise InsufficientDataError("no episode contributes an observation pair")
    lags = np.concatenate(lag_list)
    left = np.concatenate(left_list)
    right = np.concatenate(right_list)

    if max_lag is None:
        max_lag = float(lags.max())
    if max_lag <= 0:
        raise InsufficientDataError("all pair lags are zero")
    keep = (lags > 0) & (lags <= max_lag)
    lags, left, right = lags[keep], left[keep], right[keep]
    if len(lags) == 0:
        raise InsufficientDataError("no pairs inside the lag window")

    edges = np.linspace(0.0, max_lag, n_bins + 1)
    idx = np.minimum(np.searchsorted(edges, lags, side="left") - 1, n_bins - 1)

    out_lags, out_corrs, out_counts = [], [], []
    excluded = 0
    for b in range(n_bins):
        members = idx == b
        count = int(members.sum())
        if count < min_pairs:
            excluded += 1
            continue
        x = left[members]
        y = right[members]
        sx = x.std()
        sy = y.std()
        if sx < 1e-12 or sy < 1e-12:
            excluded += 1
            continue
        corr = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
        out_lags.append(float(lags[members].mean()))
        out_corrs.append(corr)
        out_counts.append(count)
    if not out_lags:
        raise InsufficientDataError("every lag bin was excluded")
    return AutocorrEstimate(
        lags=np.asarray(out_lags),
        correlations=np.asarray(out_corrs),
        pair_counts=np.asarray(out_counts, dtype=np.int64),
        n_excluded_bins=excluded,
    )


def fit_decay_rate(estimate: AutocorrEstimate) -> DecayFit:
    """Through-origin least squares of log correlation against lag.

    rate = -sum(lag * log corr) / sum(lag^2) over bins with corr above
    ``MIN_CORR``, clamped to be non-negative.
    """
    usable = estimate.correlations > MIN_CORR
    lags = estimate.lags[usable]
    corrs = estimate.correlations[usable]
    if len(lags) < 2:
        raise InsufficientDataError(
            f"decay fit needs >= 2 usable lag bins, got {len(lags)}")
    log_corr = np.log(corrs)
    rate = max(-float((lags * log_corr).sum() / (lags * lags).sum()), 0.0)
    residual = float(np.sqrt(np.mean((log_corr + rate * lags) ** 2)))
    return DecayFit(decay_rate=rate, residual=residual, n_bins=int(len(lags)))


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared survival function for a whole number ``df`` >= 1.

    With h = x / 2 it is the sum of e^-h h^a / Gamma(a + 1) over a = 0, 1,
    ..., df/2 - 1 for even df, and over a = 1/2, 3/2, ..., df/2 - 1 plus
    erfc(sqrt(h)) for odd df. Each term is taken in log space, since a
    running h^a / a! overflows at large df, and ``math.fsum`` adds them.
    """
    df = integral(df, "chi2_sf df")
    if df < 1:
        raise ValueError(f"chi2_sf df must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    h = x / 2.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    terms = [math.exp(k / 2 * log_h - h - math.lgamma(k / 2 + 1))
             for k in range(df % 2, df, 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return math.fsum(terms)


def kruskal_wallis(groups: list) -> KWResult:
    """Kruskal-Wallis H test on pooled midranks with tie correction.

    All-identical values across every group give H = 0 and p = 1 rather
    than an error.
    """
    if len(groups) < 2:
        raise InsufficientDataError(f"Kruskal-Wallis needs >= 2 groups, got {len(groups)}")
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    sizes = [len(a) for a in arrays]
    if any(s < 1 for s in sizes):
        raise InsufficientDataError("every group needs at least one sample")
    n_total = sum(sizes)
    if n_total < 3:
        raise InsufficientDataError(f"Kruskal-Wallis needs N >= 3, got {n_total}")

    ranks, ties = midranks(np.concatenate(arrays))
    tie_term = float((ties ** 3 - ties).sum())

    df = len(arrays) - 1
    denom = 1.0 - tie_term / (n_total ** 3 - n_total)
    if denom <= 0.0:
        # every pooled value identical: no evidence of any difference
        return KWResult(statistic=0.0, df=df, p_value=1.0)

    start = 0
    rank_sq_sum = 0.0
    for size in sizes:
        r = ranks[start:start + size].sum()
        rank_sq_sum += r * r / size
        start += size
    h = (12.0 / (n_total * (n_total + 1)) * rank_sq_sum - 3.0 * (n_total + 1)) / denom
    h = float(max(h, 0.0))
    return KWResult(statistic=h, df=df, p_value=chi2_sf(h, df))
