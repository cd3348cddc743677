"""Data substrate: synthetic stand-ins for the paper's evaluation data.

The paper evaluates on 18 UCR Time Series Archive data sets (Table II) and
a Yahoo-Finance US-stock data set with ICB sector ground truth. Neither is
available offline, so (per the reproduction brief) we synthesize the
closest equivalents that exercise the same code paths:

* ``UCR_LITE`` — a registry mirroring Table II's (n, L, #classes) at
  ~1/10 scale. Each data set is generated by a per-class latent smooth
  curve plus smooth per-instance noise, which yields exactly the blocked
  Pearson-correlation structure that TMFG/DBHT consume. The CBF entry uses
  the *exact* classic cylinder-bell-funnel generator (synthetic in the
  original archive too). Class imbalance and noise levels vary per entry
  so difficulty varies like the real archive.
* ``stock_market`` — a market + sector + idiosyncratic factor model of
  daily returns with known sector labels, preprocessed the same way as the
  paper (detrended log-returns, Pearson correlation).

Similarity is the Pearson correlation p; dissimilarity is
``d = sqrt(2 (1 - p))`` (Section VII, Mantegna metric).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass
class TSDataset:
    """A labeled time-series data set."""

    name: str
    X: np.ndarray  # (n, L)
    y: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def length(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(np.unique(self.y))


def _smooth(curve: np.ndarray, window: int) -> np.ndarray:
    """Moving-average smoothing (reflection-padded)."""
    if window <= 1:
        return curve
    pad = window // 2
    padded = np.pad(curve, pad, mode="reflect")
    kernel = np.ones(window) / window
    out = np.convolve(padded, kernel, mode="same")[pad:pad + len(curve)]
    return out


# Rows with a smaller standard deviation count as constant.
MIN_STD = 1e-12


def znorm(X: np.ndarray) -> np.ndarray:
    """Z-normalize each row; a constant row (std < MIN_STD) becomes zeros."""
    mu = X.mean(axis=1, keepdims=True)
    sd = X.std(axis=1, keepdims=True)
    sd[sd < MIN_STD] = 1.0
    return (X - mu) / sd


def latent_curve_dataset(name: str, n: int, length: int, n_classes: int,
                         *, noise: float = 0.8, shared: float = 0.45,
                         outlier_frac: float = 0.05,
                         seed: int = 0) -> TSDataset:
    """Per-class smooth latent curve + smooth instance noise.

    ``shared`` correlates the class bases with a common market-like mode
    (cross-class correlation > 0, as in real time-series archives);
    ``noise`` sets the typical instance noise level, with per-instance
    heterogeneity (x0.5..x2); ``outlier_frac`` of instances get 6x noise.
    Outliers are what break the agglomerative baselines' dendrogram cuts
    (the paper's data sets 9/15/16 phenomenon) while DBHT's topological
    constraints absorb them. Class sizes are mildly imbalanced.
    """
    rng = np.random.default_rng(seed)
    window = max(3, length // 16)
    common = znorm(_smooth(rng.standard_normal(length), window)[None])[0]
    bases = []
    for _ in range(n_classes):
        own = znorm(_smooth(rng.standard_normal(length), window)[None])[0]
        bases.append(shared * common + np.sqrt(1.0 - shared ** 2) * own)
    bases = np.stack(bases)
    sizes = rng.multinomial(n - n_classes, np.ones(n_classes) / n_classes)
    sizes = sizes + 1  # at least one instance per class
    y = np.repeat(np.arange(n_classes), sizes)
    rng.shuffle(y)
    X = np.empty((n, length))
    for i in range(n):
        eps = _smooth(rng.standard_normal(length), window)
        eps = (eps - eps.mean()) / max(eps.std(), 1e-12)
        level = noise * (0.5 + 1.5 * rng.random())
        if rng.random() < outlier_frac:
            level = noise * 6.0
        scale = 1.0 + 0.2 * rng.standard_normal()
        X[i] = scale * (bases[y[i]] + level * eps)
    return TSDataset(name=name, X=X, y=y)


def cbf_dataset(name: str = "CBF", n: int = 124, length: int = 128,
                *, seed: int = 0) -> TSDataset:
    """The classic cylinder-bell-funnel generator (Saito 1994)."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    X = np.empty((n, length))
    t = np.arange(length)
    for i in range(n):
        a = int(rng.integers(length // 8, length // 4))
        b = int(rng.integers(length // 2, 7 * length // 8))
        amp = 6.0 + rng.standard_normal()
        eta = rng.standard_normal(length)
        mask = ((t >= a) & (t <= b)).astype(float)
        span = max(b - a, 1)
        if y[i] == 0:  # cylinder
            shape = mask
        elif y[i] == 1:  # bell
            shape = mask * (t - a) / span
        else:  # funnel
            shape = mask * (b - t) / span
        X[i] = amp * shape + eta
    return TSDataset(name=name, X=X, y=y)


# Registry mirroring Table II at reduced scale (see DESIGN.md substitutions).
# Fields: (paper name, n, L, classes, noise, shared, outlier_frac)
_UCR_SPECS: List[Tuple[str, int, int, int, float, float, float]] = [
    ("Mallat", 160, 128, 8, 0.8, 0.40, 0.04),
    ("UWaveGestureLibraryAll", 300, 128, 8, 1.0, 0.45, 0.05),
    ("NonInvasiveFetalECGThorax2", 252, 96, 42, 0.7, 0.35, 0.03),
    ("MixedShapesRegularTrain", 195, 128, 5, 1.0, 0.45, 0.05),
    ("MixedShapesSmallTrain", 170, 128, 5, 1.1, 0.50, 0.06),
    ("ECG5000", 334, 70, 5, 1.0, 0.45, 0.05),
    ("NonInvasiveFetalECGThorax1", 252, 96, 42, 0.8, 0.35, 0.03),
    ("StarLightCurves", 616, 64, 2, 1.1, 0.45, 0.05),
    ("HandOutlines", 92, 180, 2, 1.3, 0.50, 0.07),
    ("UWaveGestureLibraryX", 300, 105, 8, 1.1, 0.45, 0.05),
    ("CBF", 124, 128, 3, 0.0, 0.0, 0.0),  # exact generator; fields unused
    ("InsectWingbeatSound", 147, 86, 11, 1.0, 0.40, 0.04),
    ("UWaveGestureLibraryY", 300, 105, 8, 1.2, 0.45, 0.05),
    ("ShapesAll", 180, 128, 60, 0.6, 0.30, 0.02),
    ("SonyAIBORobotSurface2", 98, 65, 2, 1.2, 0.50, 0.07),
    ("FreezerSmallTrain", 192, 100, 2, 1.3, 0.50, 0.06),
    ("Crop", 1294, 46, 24, 0.8, 0.40, 0.04),
    ("ElectricDevices", 1078, 96, 7, 1.1, 0.45, 0.05),
]

UCR_LITE: Dict[int, Tuple[str, int, int, int, float, float, float]] = {
    i + 1: spec for i, spec in enumerate(_UCR_SPECS)
}


def load_ucr_lite(dataset_id: int, *, seed: int = 0) -> TSDataset:
    """Generate UCR-lite data set by paper Table II id (1-18)."""
    name, n, length, classes, noise, shared, out_frac = UCR_LITE[dataset_id]
    if name == "CBF":
        return cbf_dataset(name, n, length, seed=seed)
    return latent_curve_dataset(name, n, length, classes, noise=noise,
                                shared=shared, outlier_frac=out_frac,
                                seed=seed + dataset_id)


# ------------------------------------------------------------- correlations
# Entries per block of the correlation's symmetrisation.
_SYM_BLOCK = 1 << 16


def correlation_matrices(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(similarity S = Pearson p, dissimilarity D = sqrt(2(1-p))).

    ``X`` is ``(n, L)``: n series of L time points. Raises ``ValueError``
    on non-finite values, on L < 2 and on a zero-variance row (std <
    ``MIN_STD``), whose correlation is undefined.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if X.shape[1] < 2:
        raise ValueError("each series needs at least 2 time points")
    flat = np.flatnonzero(X.std(axis=1) < MIN_STD)
    if len(flat):
        raise ValueError(f"{len(flat)} zero-variance series (std < "
                         f"{MIN_STD:g}), first row {flat[0]}: their "
                         "correlation is undefined")
    Z = znorm(X)
    p = Z @ Z.T
    p /= Z.shape[1]
    np.clip(p, -1.0, 1.0, out=p)
    np.fill_diagonal(p, 1.0)
    # p = 0.5 * (p + p.T), one block of rows of the upper triangle at a
    # time: both entries of a pair get 0.5 * (p[i, j] + p[j, i]), the same
    # float either way round, with no n x n temporary
    n = len(p)
    step = max(1, _SYM_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        s = p[lo:hi, lo:] + p[lo:, lo:hi].T
        s *= 0.5
        p[lo:hi, lo:] = s
        p[lo:, lo:hi] = s.T
    D = np.subtract(1.0, p)  # D = sqrt(max(2(1 - p), 0)), in place
    D *= 2.0
    np.maximum(D, 0.0, out=D)
    np.sqrt(D, out=D)
    return p, D


# ------------------------------------------------------------------- stocks
SECTORS = ["TEC", "I", "F", "HC", "CD", "RE", "U", "CS", "BM", "E", "TEL"]


def stock_market(n_stocks: int = 322, n_days: int = 440, *,
                 n_sectors: int = 11, seed: int = 7,
                 market_beta: float = 0.6, sector_beta: float = 0.85,
                 idio: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic daily close prices with sector ground truth.

    Returns ``(prices (n_stocks, n_days+1), sectors (n_stocks,))``. Daily
    log-returns follow ``r = beta_m * market + beta_s * sector + eps``
    with per-stock random betas, mimicking the correlation structure ICB
    sectors induce in real equity data. Small-cap stocks (last two
    sectors' tail) get extra idiosyncratic volatility, mirroring the
    paper's observation that clusters of smaller companies are noisier.
    """
    rng = np.random.default_rng(seed)
    sectors = rng.integers(0, n_sectors, n_stocks)
    market = 0.01 * rng.standard_normal(n_days)
    sector_f = 0.01 * rng.standard_normal((n_sectors, n_days))
    bm = market_beta * (1.0 + 0.3 * rng.standard_normal(n_stocks))
    bs = sector_beta * (1.0 + 0.2 * rng.standard_normal(n_stocks))
    vol = idio * 0.01 * (0.8 + 0.4 * rng.random(n_stocks))
    small_cap = rng.random(n_stocks) < 0.25
    vol[small_cap] *= 2.0
    r = (bm[:, None] * market[None, :]
         + bs[:, None] * sector_f[sectors]
         + vol[:, None] * rng.standard_normal((n_stocks, n_days)))
    log_prices = np.cumsum(np.concatenate(
        [np.log(20 + 80 * rng.random((n_stocks, 1))), r], axis=1), axis=1)
    return np.exp(log_prices), sectors


def detrended_log_returns(prices: np.ndarray) -> np.ndarray:
    """Musmeci et al. preprocessing: log-returns minus the daily market
    mean (removes the common market mode before correlation)."""
    r = np.diff(np.log(prices), axis=1)
    return r - r.mean(axis=0, keepdims=True)
