"""Autocorrelation diagnostics of Markov-chain output, numpy only.

``x`` is always a (T, C) array: T successive samples of C chains.
"""

from __future__ import annotations

import numpy as np

SOKAL_C = 5.0


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation rho(t), t = 0..T-1, averaged over chains.

    Each chain is centred on its own mean; the autocovariances are averaged
    over chains before normalizing, which is the multi-chain estimator.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    T = x.shape[0]
    centred = x - x.mean(axis=0)
    size = 1 << (2 * T - 1).bit_length()
    f = np.fft.rfft(centred, n=size, axis=0)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=0)[:T].mean(axis=1) / T
    if acov[0] <= 0:
        raise ValueError("series has zero variance")
    return acov / acov[0]


def tau_int(x: np.ndarray, c: float = SOKAL_C) -> float:
    """Integrated autocorrelation time with Sokal's automatic window.

    tau(M) = 1 + 2 sum_{t=1..M} rho(t); the window is the smallest M with
    M >= c tau(M).  tau = 1 for independent samples.
    """
    rho = autocorrelation(x)
    taus = 1.0 + 2.0 * np.cumsum(rho[1:])
    window = np.arange(1, rho.size)
    ok = window >= c * taus
    m = int(np.argmax(ok)) if ok.any() else taus.size - 1
    return float(max(taus[m], 1e-12))


def ess(x: np.ndarray, c: float = SOKAL_C) -> float:
    """Effective sample size of all chains together: T C / tau_int."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return x.size / tau_int(x, c)


def split_rhat(x: np.ndarray) -> float:
    """Split potential scale reduction (Gelman et al.): halves of every chain."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    half = x.shape[0] // 2
    if half < 2:
        raise ValueError("need at least 4 samples per chain")
    chains = np.concatenate([x[:half], x[x.shape[0] - half:]], axis=1)
    n = chains.shape[0]
    w = chains.var(axis=0, ddof=1).mean()
    b = n * chains.mean(axis=0).var(ddof=1)
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))
