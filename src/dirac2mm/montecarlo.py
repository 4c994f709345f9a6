"""Finite-N Metropolis sampler of the full convergent ensembles.

The chain walks pairs of N x N Hermitian matrices distributed as
exp(-t2 tr D^2 - t4 tr D^4) with the Dirac operator of the requested
signature; all sign-carrying trace terms of the full action are kept, so
the three signatures really are sampled as different finite-N measures.
Letters represented through commutators do not feel their trace part (the
identity commutes with everything), so those matrices are sampled on the
traceless slice; anticommutator letters carry full Hermitian matrices.

Chains are vectorized: one generator seeded from the config draws the
proposals of all chains a block of steps at a time, and the matrix algebra
runs batched over chains.  Estimates come with batch-mean standard errors.

Every tr D^ell, in the action and in the Dirac estimators, is the trace
polynomial of ``closedform.dirac_trace_polynomial``.  A proposal moves one
letter X with the other, Y, fixed; each letter has a preallocated buffer of
seven slots per chain, I, X', Y, X'^2, YX', Y^2 and X'Y.  A proposal fills X'
with one addition, X'^2 and YX' with one stacked product [X'; Y] X', and X'Y
with the conjugate transpose of YX', and reads the action, a quadratic form
in tr of words of length <= 4, off one real Gram product of the buffer.  An
accepted X' and its square are copied into the other letter's Y and Y^2
slots, so the fixed letter is never rebuilt.  The estimators read Re tr of
each word as one einsum of its two halves over a chain's samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import CouplingPoint, exact_int, float_range
from .closedform import Signature, _check_ell, dirac_trace_polynomial
from .words import _cycle_necklace, word_letters

BLOCK = 100   # steps drawn at once by run_chain; also the burn-in tuning window


@dataclass(frozen=True)
class SamplerConfig:
    n: int
    point: CouplingPoint
    signature: Signature = Signature.S20
    steps: int = 200_000
    burn_in: int = 20_000
    thinning: int = 50
    seed: int = 2024
    chains: int = 8
    update_targets: str = "AB"   # which matrices the walk updates ("AB" or "A")

    def __post_init__(self):
        for name, low in (("n", 1), ("steps", None), ("burn_in", None), ("thinning", 1), ("chains", 1), ("seed", 0)):
            object.__setattr__(self, name, exact_int(getattr(self, name), name, low))
        if not (self.steps > self.burn_in >= 0):
            raise ValueError(f"need steps > burn_in >= 0, got steps={self.steps}, burn_in={self.burn_in}")
        if (self.steps - self.burn_in) // self.thinning == 0:
            raise ValueError("no samples kept; increase steps or reduce thinning")
        if self.update_targets not in ("AB", "A"):
            raise ValueError("update_targets must be 'AB' or 'A'")
        if not isinstance(self.signature, Signature):
            raise ValueError(f"signature must be Signature.S20, S11 or S02, got {self.signature!r}; "
                             "Signature.parse reads '2,0', '1,1' or '0,2'")
        self.point.require_physical()
        float_range("sampler", both=[("t2", self.point.t2), ("t4", self.point.t4)])
        # at n = 1, X (x) 1 - 1 (x) X^T = 0: a moving commutator letter drops out of D
        flat = [x for x, eps in zip(self.update_targets, (self.signature.eps1, self.signature.eps2)) if eps == -1]
        if self.n == 1 and flat:
            raise ValueError(f"n = 1 drops the commutator letter {flat[0]} out of D, "
                             "so its weight is flat and its walk unbounded; use n >= 2")

    @property
    def proposals(self) -> int:
        return self.steps * self.chains


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    std_error: float
    n_eff: float

    def agrees_with(self, value: float) -> bool:
        """True iff ``value`` lies within three standard errors of the mean."""
        return abs(self.mean - value) <= 3 * self.std_error

    def as_json(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "n_eff": self.n_eff}


@lru_cache(maxsize=256)
def _plan(words: tuple) -> tuple:
    """Products to build (shortest first), and each word's (left, right) halves."""
    halves = tuple((w[: len(w) // 2], w[len(w) // 2 :]) for w in words)
    products = sorted({h[:k] for pair in halves for h in pair for k in range(2, len(h) + 1)}, key=len)
    return products, halves


def _word_traces(A, B, plan) -> np.ndarray:
    """Re tr of each planned word, (..., N, N) -> (..., words), as sum_ij X_u[i, j] X_v[j, i] of its halves.

    Each word is one einsum over the batch: no Gram product per sample and no
    copy of a half.  The empty half is the identity.
    """
    products, halves = plan
    P = {"": np.broadcast_to(np.eye(A.shape[-1]), A.shape), "A": A, "B": B}
    for h in products:
        P[h] = P[h[:-1]] @ P[h[-1]]
    return np.stack([np.einsum("...ij,...ji->...", P[u], P[v]).real for u, v in halves], axis=-1)


def _trace_pairs(ells: tuple, sig: Signature) -> tuple:
    """The trace pairs of the tr D^ell, sorted, and their coefficients (len(ells), pairs)."""
    polys = [dict(dirac_trace_polynomial(ell, sig)) for ell in ells]
    pairs = sorted(set().union(*polys))
    return pairs, np.array([[poly.get(p, 0) for p in pairs] for poly in polys], dtype=float)


@lru_cache(maxsize=None)
def _trace_plan(ells: tuple, sig: Signature) -> tuple:
    """Word plan, pair columns and coefficients of each tr D^ell."""
    pairs, coef = _trace_pairs(ells, sig)
    words = sorted({w for pair in pairs for w in pair} | {""})
    col = {w: i for i, w in enumerate(words)}
    cols = np.array([[col[u] for u, _v in pairs], [col[v] for _u, v in pairs]])
    return _plan(tuple(words)), cols, coef


def _dirac_traces(A, B, sig: Signature, ells: tuple) -> np.ndarray:
    """tr D^ell of each pair in a batch: (..., N, N) -> (..., len(ells))."""
    plan, (iu, iv), coef = _trace_plan(ells, sig)
    traces = _word_traces(A, B, plan)
    return (traces[..., iu] * traces[..., iv]) @ coef.T


# slots of a letter's buffer for the moving letter X and the fixed one Y; the
# last is (YX)^H = XY, so one Gram product of the buffer with itself reads
# every word of length <= 4 off gram[u, v] = Re tr(slot_u slot_v^H).  X, Y and
# XX, YX are neighbours, so one product [X; Y] X fills both.  The columns stop
# before the last slot, which every word also reads as a row: numpy sends a
# square product of a buffer with its own transpose to BLAS syrk, three times
# slower than gemm at this size.
SLOTS = ("", "X", "Y", "XX", "YX", "YY", "XY")
COLS = len(SLOTS) - 1


def _necklace(w: str) -> str:
    """Least rotation of w or of its reverse: Re tr of Hermitian letters is constant on it."""
    return min(_cycle_necklace(w), _cycle_necklace(w[::-1]))


@lru_cache(maxsize=None)
def _action_plan(sig: Signature, letter: str) -> tuple:
    """Flat Gram entries of each trace pair of tr D^2 and tr D^4, and their coefficients (2, pairs).

    Slot pair (u, v) holds Re tr of slot u followed by slot v reversed; each
    word of the trace polynomial reads the most balanced pair of its class.
    """
    other = "B" if letter == "A" else "A"
    words = [s.replace("X", letter).replace("Y", other) for s in SLOTS]
    entry = {}
    for u, v in sorted(itertools.product(range(len(SLOTS)), range(COLS)),
                       key=lambda p: (abs(len(SLOTS[p[0]]) - len(SLOTS[p[1]])), p)):
        entry.setdefault(_necklace(words[u] + words[v][::-1]), u * COLS + v)
    pairs, coef = _trace_pairs((2, 4), sig)
    iu = np.array([entry[_necklace(u)] for u, _v in pairs])
    iv = np.array([entry[_necklace(v)] for _u, v in pairs])
    return iu, iv, coef


class _LetterBuffer:
    """The slots I, X, Y, X^2, YX, Y^2, XY of each chain for one moving letter X.

    The buffer is slot-major, (slots, C, N, N): the operands and outputs of the
    product [X; Y] X and of the conjugate transpose lie in disjoint address
    ranges, so numpy rules out overlap from the ranges alone and copies no
    operand, as it would for the interleaved views of a chain-major buffer.
    ``moved`` (X, X^2) and ``held`` (Y, Y^2) are the slot pairs an accepted
    move copies from one letter's buffer to the other's.
    """

    def __init__(self, X, Y, sig: Signature, letter: str, t2: float, t4: float):
        self.buf = np.zeros((len(SLOTS), *X.shape), dtype=complex)
        self.buf[0] = np.eye(X.shape[-1])
        self.X, self.Y, self.YX, self.XY = self.buf[1], self.buf[2], self.buf[4], self.buf[6]
        self.pair, self.products = self.buf[1:3], self.buf[3:5]
        self.moved, self.held = self.buf[1:4:2], self.buf[2:6:3]
        self.X[...] = X
        self.Y[...] = Y
        np.matmul(self.Y, self.Y, out=self.buf[5])
        self.rows = self.buf.reshape(len(SLOTS), len(X), -1).view(float).swapaxes(0, 1)
        self.cols = self.rows[:, :COLS].swapaxes(-1, -2)
        self.gram = np.empty((len(X), len(SLOTS), COLS))
        self.entries = self.gram.reshape(len(X), -1)
        self.iu, self.iv, coef = _action_plan(sig, letter)
        self.weights = np.array([t2, t4]) @ coef

    def action(self) -> np.ndarray:
        """Action of each chain, (C,), after X^2, YX and XY are rebuilt from the X and Y slots."""
        np.matmul(self.pair, self.X, out=self.products)
        np.conjugate(self.YX.swapaxes(-1, -2), out=self.XY)
        np.matmul(self.rows, self.cols, out=self.gram)
        return (self.entries.take(self.iu, axis=1) * self.entries.take(self.iv, axis=1)) @ self.weights


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


def _draw_block(gen: np.random.Generator, cfg: SamplerConfig, scales: np.ndarray,
                z: np.ndarray, steps: np.ndarray) -> tuple:
    """Proposals of ``len(z)`` steps of all chains, drawn at once into the caller's buffers.

    ``z`` (real) and ``steps`` (complex) are (size, C, N, N).  Returns the
    letter each step moves (0: A, 1: B), ``steps`` filled with the Hermitian
    steps at each chain's scale, traceless on commutator letters, and the
    log-uniforms (size, C) of the acceptance tests.
    """
    size, C, n, _ = z.shape
    sig = cfg.signature
    if cfg.update_targets == "AB":
        targets = (gen.random(size) >= 0.5).astype(np.intp)
    else:
        targets = np.zeros(size, dtype=np.intp)
    # z + z^T and z - z^T of one real Gaussian matrix z are independent; halved,
    # they are the real and imaginary parts of a Hermitian step with variance 1/2
    # off the diagonal and 1 on it, from N^2 draws per matrix.  z is scaled
    # first, on its N^2 real entries rather than the step's 2 N^2.
    gen.standard_normal(out=z)
    z *= (scales / 2.0)[:, None, None]
    np.add(z, z.swapaxes(-1, -2), out=steps.real)
    np.subtract(z, z.swapaxes(-1, -2), out=steps.imag)
    traceless = np.array([sig.eps1 == -1, sig.eps2 == -1])
    if traceless.any():
        diag = steps.reshape(size, C, n * n)[..., :: n + 1].real   # a view; the imaginary diagonal is 0
        diag -= traceless[targets, None, None] * diag.mean(axis=-1, keepdims=True)
    return targets, steps, np.log(gen.random((size, C)))


def run_chain(cfg: SamplerConfig) -> ChainResult:
    """Metropolis random walk; deterministic given the seed.

    One proposal per step per chain: a Gaussian Hermitian step on one
    matrix, accepted with probability min(1, exp(-dS)).  Every chain's
    proposal scale starts at 0.7 / sqrt(8 t2 N^2), is adapted toward 40%
    acceptance during burn-in only, then frozen.
    Proposals are drawn a block of ``BLOCK`` steps at a time from one
    generator; each block is one tuning window.
    """
    n, C = cfg.n, cfg.chains
    t2, t4 = float(cfg.point.t2), float(cfg.point.t4)
    sig = cfg.signature
    gen = np.random.default_rng(cfg.seed)

    # bufs[0] moves A with B held, bufs[1] moves B; each holds the other's
    # current letter and its square, so A is bufs[1].Y and B is bufs[0].Y
    zeros = np.zeros((C, n, n), dtype=complex)
    bufs = [_LetterBuffer(zeros, zeros, sig, letter, t2, t4) for letter in "AB"]
    A, B = bufs[1].Y, bufs[0].Y
    S = bufs[0].action()
    scales = np.full(C, 0.7 / math.sqrt(8.0 * t2 * n * n))
    kept = (cfg.steps - cfg.burn_in) // cfg.thinning
    samples_a = np.empty((kept, C, n, n), dtype=complex)
    samples_b = np.empty((kept, C, n, n), dtype=complex)
    accept_count = np.zeros(C)
    accepted = np.empty((BLOCK, C), dtype=bool)
    masks = accepted[:, :, None, None]    # each step's acceptance, broadcast over a slot pair
    dS = np.empty(C)
    # one block's normals and steps, allocated once: freed and reallocated every
    # block, they kept the heap from shrinking and raised the peak RSS
    z = np.empty((BLOCK, C, n, n))
    step_buf = np.empty((BLOCK, C, n, n), dtype=complex)

    for start in range(0, cfg.steps, BLOCK):
        size = min(BLOCK, cfg.steps - start)
        targets, steps, log_u = _draw_block(gen, cfg, scales, z[:size], step_buf[:size])
        for j, target in enumerate(targets.tolist()):
            buf, other = bufs[target], bufs[1 - target]
            np.add(other.Y, steps[j], out=buf.X)
            S_new = buf.action()
            accept = np.less(log_u[j], np.subtract(S, S_new, out=dS), out=accepted[j])
            np.copyto(other.held, buf.moved, where=masks[j])
            np.copyto(S, S_new, where=accept)
            post = start + j + 1 - cfg.burn_in
            if post > 0 and post % cfg.thinning == 0:
                samples_a[post // cfg.thinning - 1] = A
                samples_b[post // cfg.thinning - 1] = B

        burn = min(max(cfg.burn_in - start, 0), size)
        accept_count += accepted[burn:size].sum(axis=0)
        if burn == BLOCK:
            scales *= np.exp(1.2 * (accepted.mean(axis=0) - 0.4))
            np.clip(scales, 1e-5, 1e3, out=scales)

    return ChainResult(
        config=cfg,
        samples_a=samples_a,
        samples_b=samples_b,
        acceptance=accept_count / (cfg.steps - cfg.burn_in),
        step_scales=scales,
    )


def _batch_mean_error(values: np.ndarray) -> EstimateWithError:
    """Batch-mean standard error of a (T, C) series of observables, from at least 16 batches."""
    T, C = values.shape
    per_chain = min(max(-(-16 // C), 2), T)
    batch_len = T // per_chain
    batches = values[: batch_len * per_chain].reshape(per_chain, batch_len, C).mean(axis=1)  # (B, C)
    flat = batches.reshape(-1)
    mean = float(values.mean())
    if flat.size < 2:
        return EstimateWithError(mean, float("nan"), float(values.size))
    se = float(flat.std(ddof=1) / math.sqrt(flat.size))
    var = float(values.var(ddof=1))
    n_eff = var / se**2 if se > 0 else float(values.size)
    return EstimateWithError(mean, se, n_eff)


def word_trace_series(result: ChainResult, w: str) -> np.ndarray:
    """(T, C) series of (1/N) Re tr of the word evaluated on each sample."""
    plan = _plan((word_letters(w),))
    # chain by chain, so the stacked halves stay a 1/C slice of the samples
    A, B = result.samples_a, result.samples_b
    series = [_word_traces(A[:, c], B[:, c], plan)[:, 0] for c in range(A.shape[1])]
    return np.stack(series, axis=1) / result.config.n


def estimate_moment(result: ChainResult, w: str) -> EstimateWithError:
    """Finite-N estimate of the normalized word moment with batch-mean error."""
    return _batch_mean_error(word_trace_series(result, w))


def dirac_trace_series(result: ChainResult, ell: int, max_samples: int = 2000) -> np.ndarray:
    """(T', C) series of (1/N^2) tr D^ell on at most ``max_samples`` evenly spaced samples."""
    T, C, n, _ = result.samples_a.shape
    max_samples = exact_int(max_samples, "max_samples", C)     # at least one sample per chain
    stride = -(-T // (max_samples // C))     # ceiling: at most max_samples // C rows
    A, B = result.samples_a[::stride], result.samples_b[::stride]
    return _dirac_traces(A, B, result.config.signature, (_check_ell(ell),))[..., 0] / n**2


def estimate_dirac(result: ChainResult, ell: int, max_samples: int = 2000) -> EstimateWithError:
    """Finite-N estimate of (1/N^2) tr D^ell with batch-mean error."""
    return _batch_mean_error(dirac_trace_series(result, ell, max_samples))


def trace_rows(result: ChainResult):
    """CSV-ready diagnostic rows: one per kept sample of chain 0."""
    yield ("sample", "tr_A2", "tr_D2", "tr_D4", "acceptance")
    A0, B0 = result.samples_a[:, 0], result.samples_b[:, 0]
    tr_a2 = _word_traces(A0, B0, _plan(("AA",)))[:, 0]
    tr_d2, tr_d4 = _dirac_traces(A0, B0, result.config.signature, (2, 4)).T
    acc = float(result.acceptance.mean())
    for t, row in enumerate(zip(tr_a2, tr_d2, tr_d4)):
        yield (t, *map(float, row), acc)


# -- detailed-balance check against the exact N = 1 density -------------------


def _n1_cdf(t2: float, t4: float, xs: np.ndarray) -> np.ndarray:
    """CDF of the density exp(-8 t2 x^2 - 32 t4 x^4) at xs, by the trapezoid rule.

    The 20,001-point grid ends where one term of the exponent reaches 50,
    so the density beyond it is below e^-50.
    """
    edge = min(math.sqrt(50 / (8 * t2)), (50 / (32 * t4)) ** 0.25)
    grid = np.linspace(-edge, edge, 20_001)
    density = np.exp(-8 * t2 * grid**2 - 32 * t4 * grid**4)
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    return np.interp(xs, grid, cdf / cdf[-1])


def n1_marginal_ks(point: CouplingPoint, samples: int = 100_000, seed: int = 7) -> tuple[float, int]:
    """Kolmogorov-Smirnov distance of the sampled N=1 marginal vs the exact density.

    Runs the walk on a single 1x1 matrix (the partner matrix frozen at
    zero), whose stationary density is exp(-8 t2 x^2 - 32 t4 x^4); the
    target CDF is its trapezoid integral on a fixed grid (``_n1_cdf``).
    """
    samples = exact_int(samples, "samples", 1)
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
    target = _n1_cdf(float(point.t2), float(point.t4), xs)
    k = xs.size
    emp = np.arange(k + 1) / k
    distance = float(np.max(np.maximum(np.abs(emp[1:] - target), np.abs(target - emp[:-1]))))
    return distance, k


def signature_scan(point: CouplingPoint) -> dict:
    """m_2 and alternating-moment estimates for all three signatures at N = 10."""
    out = {}
    for sig in Signature:
        cfg = SamplerConfig(
            n=10,
            point=point,
            signature=sig,
            steps=250_000,
            burn_in=30_000,
            thinning=50,
            seed=11,
            chains=8,
        )
        result = run_chain(cfg)
        out[sig] = {
            "m2": estimate_moment(result, "AA"),
            "abab": estimate_moment(result, "ABAB"),
            "acceptance": float(result.acceptance.mean()),
            "proposals": cfg.proposals,
        }
    return out
