"""Finite-N Metropolis sampler of the full convergent ensembles.

The chain walks pairs of N x N Hermitian matrices distributed as
exp(-t2 tr D^2 - t4 tr D^4) with the Dirac operator of the requested
signature; all sign-carrying trace terms of the full action are kept, so
the three signatures really are sampled as different finite-N measures.
Letters represented through commutators do not feel their trace part (the
identity commutes with everything), so those matrices are sampled on the
traceless slice; anticommutator letters carry full Hermitian matrices.

Chains are vectorized: every chain keeps its own seeded generator, the
matrix algebra runs batched over chains.  Estimates come with batch-mean
standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CouplingPoint
from .closedform import Signature
from .words import Word

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SamplerConfig:
    n: int
    point: CouplingPoint
    signature: Signature = Signature.S20
    steps: int = 200_000
    burn_in: int = 20_000
    thinning: int = 50
    step_scale: float | None = None   # None: start from a size-aware guess
    seed: int = 2024
    chains: int = 8
    update_targets: str = "AB"   # which matrices the walk updates ("AB" or "A")

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")
        if not (self.steps > self.burn_in >= 0):
            raise ValueError("need steps > burn_in >= 0")
        if self.thinning < 1 or self.chains < 1:
            raise ValueError("thinning and chains must be >= 1")
        if self.step_scale is None:
            guess = 0.7 / math.sqrt(8.0 * float(self.point.t2) * self.n * max(1, self.n))
            object.__setattr__(self, "step_scale", guess)
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")
        if self.update_targets not in ("AB", "A"):
            raise ValueError("update_targets must be 'AB' or 'A'")
        if self.point.t2 <= 0 or self.point.t4 <= 0:
            raise ValueError("sampler needs t2 > 0 and t4 > 0")

    @property
    def proposals(self) -> int:
        return self.steps * self.chains


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    std_error: float
    n_eff: float

    def agrees_with(self, value: float, nsigma: float = 3.0) -> bool:
        return abs(self.mean - value) <= nsigma * self.std_error

    def as_json(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "n_eff": self.n_eff}


def _check_hermitian(M: np.ndarray, name: str) -> None:
    dev = np.max(np.abs(M - M.conj().swapaxes(-1, -2)))
    scale = max(1.0, float(np.max(np.abs(M))))
    if dev > HERMITICITY_TOL * scale:
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")


def _batched_action(A, B, sig: Signature, t2: float, t4: float, n: int):
    """Action of each chain's (A, B); shapes (C, N, N) -> (C,)."""
    e1, e2 = sig.eps1, sig.eps2
    tr = lambda M: np.einsum("...ii->...", M).real
    pair = lambda X, Y: np.einsum("...ij,...ji->...", X, Y).real
    A2 = A @ A
    B2 = B @ B
    trA = tr(A)
    trB = tr(B)
    trA2 = pair(A, A)
    trB2 = pair(B, B)
    trA4 = pair(A2, A2)
    trB4 = pair(B2, B2)
    trA2B2 = pair(A2, B2)
    AB = A @ B
    trABAB = pair(AB, AB)
    trA3A = pair(A2, A) * trA
    trB3B = pair(B2, B) * trB
    trAB2 = pair(A, B2)
    trBA2 = pair(B, A2)
    trAB = pair(A, B)
    trD2 = 4.0 * (n * (trA2 + trB2) + e1 * trA**2 + e2 * trB**2)
    trD4 = (
        4.0 * n * (trA4 + trB4 + 4.0 * trA2B2 - 2.0 * trABAB)
        + 4.0 * (4.0 * e1 * trA3A + 4.0 * e2 * trB3B + 3.0 * trA2**2 + 3.0 * trB2**2)
        + 16.0 * (e1 * trAB2 * trA + e2 * trBA2 * trB)
        + 8.0 * (trA2 * trB2 + 2.0 * e1 * e2 * trAB**2)
    )
    return t2 * trD2 + t4 * trD4


def action_eval(A: np.ndarray, B: np.ndarray, sig: Signature, point: CouplingPoint) -> float:
    """Full action S(D) = t2 tr D^2 + t4 tr D^4 of one Hermitian pair."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be square matrices of equal size")
    _check_hermitian(A, "A")
    _check_hermitian(B, "B")
    n = A.shape[0]
    return float(
        _batched_action(A[None], B[None], sig, float(point.t2), float(point.t4), n)[0]
    )


def dirac_operator(A: np.ndarray, B: np.ndarray, sig: Signature) -> np.ndarray:
    """Dense Dirac operator: sigma3 x Phi_A + sigma1 x Phi_B, size 2 N^2.

    Each letter acts by anticommutator when its sign is +1 and commutator
    when it is -1.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    n = A.shape[0]
    eye = np.eye(n)

    def rep(M, eps):
        left = np.kron(M, eye)
        right = np.kron(eye, M.T)
        return left + right if eps == 1 else left - right

    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.kron(sigma3, rep(A, sig.eps1)) + np.kron(sigma1, rep(B, sig.eps2))


@dataclass
class ChainResult:
    """Thinned post-burn-in states of all chains, plus diagnostics."""

    config: SamplerConfig
    samples_a: np.ndarray      # (T, C, N, N)
    samples_b: np.ndarray
    acceptance: np.ndarray     # (C,) post-burn-in acceptance rate
    step_scales: np.ndarray    # (C,) tuned proposal scales
    healthy: bool = field(init=False)

    def __post_init__(self):
        self.healthy = bool(np.all((self.acceptance > 0.2) & (self.acceptance < 0.7)))

    @property
    def n_samples(self) -> int:
        return self.samples_a.shape[0] * self.samples_a.shape[1]


def _hermitian_step(gen: np.random.Generator, n: int, traceless: bool) -> np.ndarray:
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    if traceless and n > 1:
        h -= np.trace(h).real / n * np.eye(n)
    return h


def run_chain(cfg: SamplerConfig) -> ChainResult:
    """Metropolis random walk; deterministic given the seed.

    One proposal per step per chain: a Gaussian Hermitian step on one
    matrix, accepted with probability min(1, exp(-dS)).  The proposal scale
    is adapted toward 40% acceptance during burn-in only, then frozen.
    """
    n, C = cfg.n, cfg.chains
    t2, t4 = float(cfg.point.t2), float(cfg.point.t4)
    sig = cfg.signature
    master = np.random.SeedSequence(cfg.seed)
    scan_gen = np.random.Generator(np.random.PCG64(master.spawn(1)[0]))
    gens = [np.random.Generator(np.random.PCG64(s)) for s in master.spawn(C + 1)[1:]]

    traceless = {"A": sig.eps1 == -1, "B": sig.eps2 == -1}
    A = np.zeros((C, n, n), dtype=complex)
    B = np.zeros((C, n, n), dtype=complex)
    S = _batched_action(A, B, sig, t2, t4, n)
    scales = np.full(C, cfg.step_scale)

    kept_a, kept_b = [], []
    accept_count = np.zeros(C)
    tune_accept = np.zeros(C)
    tune_window = 100
    post_steps = 0

    for step in range(cfg.steps):
        target = cfg.update_targets if cfg.update_targets != "AB" else ("A" if scan_gen.random() < 0.5 else "B")
        steps_h = np.stack([_hermitian_step(g, n, traceless[target]) for g in gens])
        if target == "A":
            prop_A = A + scales[:, None, None] * steps_h
            S_new = _batched_action(prop_A, B, sig, t2, t4, n)
        else:
            prop_B = B + scales[:, None, None] * steps_h
            S_new = _batched_action(A, prop_B, sig, t2, t4, n)
        log_u = np.log(np.stack([g.random() for g in gens]))
        accept = log_u < (S - S_new)
        if target == "A":
            A[accept] = prop_A[accept]
        else:
            B[accept] = prop_B[accept]
        S[accept] = S_new[accept]

        in_burn = step < cfg.burn_in
        if in_burn:
            tune_accept += accept
            if (step + 1) % tune_window == 0:
                rate = tune_accept / tune_window
                scales *= np.exp(1.2 * (rate - 0.4))
                np.clip(scales, 1e-5, 1e3, out=scales)
                tune_accept[:] = 0.0
        else:
            post_steps += 1
            accept_count += accept
            if post_steps % cfg.thinning == 0:
                kept_a.append(A.copy())
                kept_b.append(B.copy())

    if not kept_a:
        raise ValueError("no samples kept; increase steps or reduce thinning")
    return ChainResult(
        config=cfg,
        samples_a=np.array(kept_a),
        samples_b=np.array(kept_b),
        acceptance=accept_count / max(post_steps, 1),
        step_scales=scales,
    )


def _batch_mean_error(values: np.ndarray, min_batches: int = 16) -> EstimateWithError:
    """Batch-mean standard error of a (T, C) series of observables."""
    T, C = values.shape
    per_chain = max(min_batches // C + (min_batches % C > 0), 2)
    per_chain = min(per_chain, T)
    batch_len = T // per_chain
    usable = batch_len * per_chain
    batches = values[:usable].reshape(per_chain, batch_len, C).mean(axis=1)  # (B, C)
    flat = batches.reshape(-1)
    mean = float(values.mean())
    if flat.size < 2:
        return EstimateWithError(mean, float("nan"), float(values.size))
    se = float(flat.std(ddof=1) / math.sqrt(flat.size))
    var = float(values.var(ddof=1))
    n_eff = var / se**2 if se > 0 else float(values.size)
    return EstimateWithError(mean, se, n_eff)


def word_trace_series(result: ChainResult, w: Word | str) -> np.ndarray:
    """(T, C) series of (1/N) Re tr of the word evaluated on each sample."""
    w = Word(w)
    Aset, Bset = result.samples_a, result.samples_b
    T, C, n, _ = Aset.shape
    if w.degree == 0:
        return np.ones((T, C))
    flatA = Aset.reshape(T * C, n, n)
    flatB = Bset.reshape(T * C, n, n)
    prod = None
    for letter in w.letters:
        m = flatA if letter == "A" else flatB
        prod = m.copy() if prod is None else prod @ m
    tr = np.einsum("sii->s", prod).real / n
    return tr.reshape(T, C)


def estimate_moment(result: ChainResult, w: Word | str) -> EstimateWithError:
    """Finite-N estimate of the normalized word moment with batch-mean error."""
    return _batch_mean_error(word_trace_series(result, w))


def dirac_trace_series(result: ChainResult, ell: int, max_samples: int = 2000) -> np.ndarray:
    """(T', C) series of (1/N^2) tr D^ell on an evenly spaced sample subset."""
    ell = int(ell)
    if ell % 2 != 0 or ell < 2 or ell > 6:
        raise ValueError("ell must be one of 2, 4, 6")
    Aset, Bset = result.samples_a, result.samples_b
    T, C, n, _ = Aset.shape
    per_chain_target = max(1, max_samples // C)
    keep_t = list(range(0, T, max(1, T // per_chain_target)))
    sig = result.config.signature
    out = np.empty((len(keep_t), C))
    for i, t in enumerate(keep_t):
        for c in range(C):
            D = dirac_operator(Aset[t, c], Bset[t, c], sig)
            D2 = D @ D
            if ell == 2:
                val = np.trace(D2).real
            elif ell == 4:
                val = np.einsum("ij,ji->", D2, D2).real
            else:
                D4 = D2 @ D2
                val = np.einsum("ij,ji->", D4, D2).real
            out[i, c] = val / n**2
    return out


def estimate_dirac(result: ChainResult, ell: int, max_samples: int = 2000) -> EstimateWithError:
    """Finite-N estimate of (1/N^2) tr D^ell with batch-mean error."""
    return _batch_mean_error(dirac_trace_series(result, ell, max_samples))


def trace_rows(result: ChainResult):
    """CSV-ready diagnostic rows: one per kept sample of chain 0."""
    yield ("sample", "tr_A2", "tr_D2", "tr_D4", "acceptance")
    sig = result.config.signature
    n = result.config.n
    acc = float(result.acceptance.mean())
    for t in range(result.samples_a.shape[0]):
        Amat, Bmat = result.samples_a[t, 0], result.samples_b[t, 0]
        D = dirac_operator(Amat, Bmat, sig)
        D2 = D @ D
        yield (
            t,
            float(np.trace(Amat @ Amat).real),
            float(np.trace(D2).real),
            float(np.einsum("ij,ji->", D2, D2).real),
            acc,
        )


# -- detailed-balance check against quadrature ---------------------------------


def n1_marginal_ks(point: CouplingPoint, samples: int = 100_000, seed: int = 7) -> tuple[float, int]:
    """Kolmogorov-Smirnov distance of the sampled N=1 marginal vs quadrature.

    Runs the walk on a single 1x1 matrix (the partner matrix frozen at
    zero), whose stationary density is exp(-8 t2 x^2 - 32 t4 x^4); the
    target CDF is computed by numerical quadrature.
    """
    from scipy.integrate import quad

    t2, t4 = float(point.t2), float(point.t4)
    thinning = 4
    cfg = SamplerConfig(
        n=1,
        point=point,
        signature=Signature.S20,
        steps=samples * thinning // 8 + 6000,
        burn_in=5000,
        thinning=thinning,
        seed=seed,
        chains=8,
        update_targets="A",
    )
    result = run_chain(cfg)
    xs = np.sort(result.samples_a[:, :, 0, 0].real.reshape(-1))
    density = lambda x: math.exp(-8 * t2 * x * x - 32 * t4 * x**4)
    norm = quad(density, -np.inf, np.inf)[0]
    grid = np.linspace(xs[0] - 1e-9, xs[-1] + 1e-9, 2001)
    cdf_vals = np.empty_like(grid)
    acc = 0.0
    prev = -np.inf
    for i, g in enumerate(grid):
        acc += quad(density, prev, g)[0]
        cdf_vals[i] = acc
        prev = g
    cdf_vals /= norm
    target = np.interp(xs, grid, cdf_vals)
    k = xs.size
    emp_hi = np.arange(1, k + 1) / k
    emp_lo = np.arange(0, k) / k
    distance = float(np.max(np.maximum(np.abs(emp_hi - target), np.abs(target - emp_lo))))
    return distance, k


def signature_scan(
    point: CouplingPoint,
    n: int = 10,
    steps: int = 250_000,
    seed: int = 11,
    chains: int = 8,
) -> dict:
    """m_2 and alternating-moment estimates for all three signatures."""
    out = {}
    for sig in Signature:
        cfg = SamplerConfig(
            n=n,
            point=point,
            signature=sig,
            steps=steps,
            burn_in=min(30_000, steps // 5),
            thinning=50,
            seed=seed,
            chains=chains,
        )
        result = run_chain(cfg)
        out[sig] = {
            "m2": estimate_moment(result, "AA"),
            "abab": estimate_moment(result, "ABAB"),
            "acceptance": float(result.acceptance.mean()),
            "proposals": cfg.proposals,
        }
    return out
