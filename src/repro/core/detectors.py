"""Alternative congestion detectors (the paper's future-work section).

The paper's deployed detector thresholds the normalized intra-day
throughput difference (``V_H > H``; see :mod:`repro.core.congestion`)
and section 5 proposes improving it "using time series analysis
approaches, such as autocorrelation and hidden Markov models".  This
module implements both proposals behind a common interface, so they
can be compared against the deployed method and against ground truth
(see ``benchmarks/bench_ablation_detectors.py``):

* :class:`VariabilityDetector` - the paper's V_H-threshold method.
* :class:`AutocorrelationDetector` - detects recurring diurnal
  structure via the lag-24h autocorrelation (the approach of
  Dhamdhere et al., "Inferring Persistent Interdomain Congestion"),
  then labels the recurring trough hours.
* :class:`HmmDetector` - a two-state Gaussian hidden Markov model over
  log-throughput fitted with EM (Baum-Welch); the low-mean state is
  "congested" when the states separate enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import AnalysisError
from .campaign import CampaignDataset
from .congestion import PAPER_THRESHOLD, PairKey, hourly_variability

__all__ = [
    "DetectionSeries",
    "CongestionDetector",
    "VariabilityDetector",
    "AutocorrelationDetector",
    "HmmDetector",
]

#: Autocorrelation detector: the lag-24h correlation that makes a pair
#: a candidate, and how many standard deviations below the mean a
#: candidate's sample must fall to count as congested.
MIN_LAG_CORRELATION = 0.25
DEPTH_SIGMA = 1.5
#: HMM detector: the state-mean separation (in pooled standard
#: deviations) below which nothing is labeled.
MIN_SEPARATION = 1.2


@dataclass
class DetectionSeries:
    """Per-sample congestion labels for one pair."""

    pair: PairKey
    method: str
    ts: np.ndarray
    congested: np.ndarray          # bool mask, aligned with ts
    #: method-specific diagnostic score per sample (higher = more
    #: congested-looking).
    score: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.ts) == len(self.congested) == len(self.score)):
            raise AnalysisError("detection series arrays misaligned")

    @property
    def n_events(self) -> int:
        return int(self.congested.sum())


class CongestionDetector:
    """Interface: label each measurement of a pair as congested or not."""

    name = "base"

    def detect(self, dataset: CampaignDataset,
               pair: PairKey) -> DetectionSeries:
        raise NotImplementedError

    def _series(self, dataset: CampaignDataset,
                pair: PairKey, metric: str = "download"
                ) -> Tuple[np.ndarray, np.ndarray]:
        series = dataset.table.series(pair)
        return series["ts"], series[metric]


class VariabilityDetector(CongestionDetector):
    """The deployed method: V_H(s, t) > H below the daily peak."""

    name = "variability"

    def __init__(self, threshold: float = PAPER_THRESHOLD) -> None:
        if not 0 < threshold < 1:
            raise AnalysisError(
                f"threshold must be in (0, 1), got {threshold}")
        self.threshold = threshold

    def detect(self, dataset: CampaignDataset,
               pair: PairKey) -> DetectionSeries:
        ts, vh = hourly_variability(dataset, pair)
        return DetectionSeries(pair=pair, method=self.name, ts=ts,
                               congested=vh > self.threshold, score=vh)


class AutocorrelationDetector(CongestionDetector):
    """Diurnal-periodicity detector.

    A pair is a congestion *candidate* when its hourly throughput shows
    significant lag-24h autocorrelation (at least
    :data:`MIN_LAG_CORRELATION`: recurring daily structure - noise does
    not repeat, evening collapses do).  For candidates, the congested
    samples are those that fall into the recurring trough: below
    ``mean - DEPTH_SIGMA * std`` of the series.
    """

    name = "autocorrelation"

    @staticmethod
    def lag_autocorrelation(values: np.ndarray, lag: int) -> float:
        """Pearson autocorrelation at *lag* (0 for degenerate input)."""
        if values.size <= lag + 2:
            return 0.0
        a = values[:-lag]
        b = values[lag:]
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            return 0.0
        return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))

    def detect(self, dataset: CampaignDataset,
               pair: PairKey) -> DetectionSeries:
        ts, values = self._series(dataset, pair)
        if values.size == 0:
            return DetectionSeries(pair, self.name, ts,
                                   np.zeros(0, bool), np.zeros(0))
        # Hourly cadence: lag 24 samples ~ 24 hours.
        corr = self.lag_autocorrelation(values, lag=24)
        mean = values.mean()
        std = values.std()
        if std == 0:
            score = np.zeros_like(values)
        else:
            score = (mean - values) / std
        if corr < MIN_LAG_CORRELATION:
            congested = np.zeros(values.size, dtype=bool)
        else:
            congested = score > DEPTH_SIGMA
        return DetectionSeries(pair=pair, method=self.name, ts=ts,
                               congested=congested, score=score)


class HmmDetector(CongestionDetector):
    """Two-state Gaussian HMM over log-throughput, fitted with EM.

    State 0 is "normal", state 1 "congested" (lower mean).  The
    congested labels are the Viterbi path's state-1 samples, accepted
    only when the two state means separate by at least
    :data:`MIN_SEPARATION` standard deviations (otherwise the model
    just split noise in half and nothing is labeled).
    """

    name = "hmm"

    def __init__(self, n_iter: int = 30) -> None:
        if n_iter < 1:
            raise AnalysisError(f"n_iter must be >= 1, got {n_iter}")
        self.n_iter = n_iter

    # -- tiny 2-state Gaussian HMM ------------------------------------

    @staticmethod
    def _gauss_logpdf(x: np.ndarray, mean: float,
                      var: float) -> np.ndarray:
        var = max(var, 1e-6)
        return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)

    def fit_predict(self, values: np.ndarray
                    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """Return (state sequence, model params) for one series."""
        x = np.log(np.maximum(values, 1e-3))
        n = x.size
        if n < 12:
            return np.zeros(n, dtype=int), {"separation": 0.0}
        # Init: split at the 25th percentile.
        cut = np.percentile(x, 25)
        means = np.array([x[x > cut].mean() if (x > cut).any() else x.mean(),
                          x[x <= cut].mean() if (x <= cut).any() else x.min()])
        variances = np.array([max(x.var(), 1e-4)] * 2)
        trans = np.array([[0.95, 0.05], [0.20, 0.80]])
        start = np.array([0.9, 0.1])

        log_b = None
        for _ in range(self.n_iter):
            log_b = np.stack([self._gauss_logpdf(x, means[s], variances[s])
                              for s in (0, 1)], axis=1)
            log_trans = np.log(trans)
            log_start = np.log(start)
            # forward
            log_alpha = np.zeros((n, 2))
            log_alpha[0] = log_start + log_b[0]
            for t in range(1, n):
                for s in (0, 1):
                    log_alpha[t, s] = log_b[t, s] + np.logaddexp(
                        log_alpha[t - 1, 0] + log_trans[0, s],
                        log_alpha[t - 1, 1] + log_trans[1, s])
            # backward
            log_beta = np.zeros((n, 2))
            for t in range(n - 2, -1, -1):
                for s in (0, 1):
                    log_beta[t, s] = np.logaddexp(
                        log_trans[s, 0] + log_b[t + 1, 0] + log_beta[t + 1, 0],
                        log_trans[s, 1] + log_b[t + 1, 1] + log_beta[t + 1, 1])
            log_gamma = log_alpha + log_beta
            log_gamma -= log_gamma.max(axis=1, keepdims=True)
            gamma = np.exp(log_gamma)
            gamma /= gamma.sum(axis=1, keepdims=True)
            # transition expectations
            xi = np.zeros((2, 2))
            for t in range(n - 1):
                m = (log_alpha[t][:, None] + log_trans
                     + log_b[t + 1][None, :] + log_beta[t + 1][None, :])
                m = np.exp(m - m.max())
                xi += m / m.sum()
            # M step
            weights = gamma.sum(axis=0)
            means = (gamma * x[:, None]).sum(axis=0) / np.maximum(weights,
                                                                  1e-9)
            variances = ((gamma * (x[:, None] - means[None, :]) ** 2)
                         .sum(axis=0) / np.maximum(weights, 1e-9))
            variances = np.maximum(variances, 1e-5)
            trans = xi / np.maximum(xi.sum(axis=1, keepdims=True), 1e-12)
            trans = np.clip(trans, 1e-4, 1 - 1e-4)
            trans /= trans.sum(axis=1, keepdims=True)
            start = np.clip(gamma[0], 1e-4, 1.0)
            start /= start.sum()

        # Order states: index 1 = lower mean = congested.
        if means[0] < means[1]:
            means = means[::-1]
            variances = variances[::-1]
            trans = trans[::-1, ::-1]
            start = start[::-1]
            log_b = log_b[:, ::-1]

        # Viterbi
        log_trans = np.log(trans)
        delta = np.log(start) + log_b[0]
        back = np.zeros((n, 2), dtype=int)
        for t in range(1, n):
            for s in (0, 1):
                options = delta + log_trans[:, s]
                back[t, s] = int(np.argmax(options))
                # fill after the loop to avoid overwriting delta early
            new_delta = np.array([
                (delta + log_trans[:, 0]).max() + log_b[t, 0],
                (delta + log_trans[:, 1]).max() + log_b[t, 1]])
            delta = new_delta
        states = np.zeros(n, dtype=int)
        states[-1] = int(np.argmax(delta))
        for t in range(n - 2, -1, -1):
            states[t] = back[t + 1, states[t + 1]]

        pooled_sd = math.sqrt(float(variances.mean()))
        separation = float((means[0] - means[1]) / max(pooled_sd, 1e-6))
        params = {"mean_normal": float(means[0]),
                  "mean_congested": float(means[1]),
                  "separation": separation}
        return states, params

    def detect(self, dataset: CampaignDataset,
               pair: PairKey) -> DetectionSeries:
        ts, values = self._series(dataset, pair)
        states, params = self.fit_predict(values)
        if params["separation"] < MIN_SEPARATION:
            congested = np.zeros(values.size, dtype=bool)
        else:
            congested = states == 1
        score = states.astype(float) * params["separation"]
        return DetectionSeries(pair=pair, method=self.name, ts=ts,
                               congested=congested, score=score)
