import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from dirac2mm.algebra import CouplingPoint
from dirac2mm.closedform import Signature
from dirac2mm import montecarlo as mc
from reference import dirac_operator

P11 = CouplingPoint(1, 1)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def action(A, B, sig, t2=1.0, t4=1.0):
    """S(D) = t2 tr D^2 + t4 tr D^4 of one pair, read off the sampler's letter kernel."""
    return mc._LetterBuffer(A[None], B[None], sig, "A", t2, t4).action()[0]


class TestAction:
    def test_zero_matrices(self):
        z = np.zeros((4, 4))
        for sig in Signature:
            assert action(z, z, sig) == 0.0

    def test_scalar_case(self):
        # N=1, B=0: the quartic trace collapses to 8 t2 x^2 + 32 t4 x^4
        for x in (0.3, -1.1):
            got = action(np.array([[x]]), np.array([[0.0]]), Signature.S20)
            assert got == pytest.approx(8 * x**2 + 32 * x**4, rel=1e-13)

    def test_matches_dense_dirac_traces(self):
        rng = np.random.default_rng(0)
        t2, t4 = 1.5, 2 / 3
        for sig in Signature:
            for n in (2, 3, 5):
                A, B = random_hermitian(rng, n), random_hermitian(rng, n)
                D = dirac_operator(A, B, sig)
                direct = t2 * np.trace(D @ D).real + t4 * np.trace(np.linalg.matrix_power(D, 4)).real
                assert action(A, B, sig, t2, t4) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("sig", list(Signature))
    @pytest.mark.parametrize("letter", ["A", "B"])
    def test_letter_kernel_matches_dense_operator(self, sig, letter):
        # a batch of 3 random pairs, traceless on commutator letters as the sampler keeps them
        rng = np.random.default_rng(4)
        t2, t4 = 1.5, 2 / 3
        for n in (1, 2, 3, 5):
            pairs = []
            for _ in range(3):
                A, B = random_hermitian(rng, n), random_hermitian(rng, n)
                for M, eps in ((A, sig.eps1), (B, sig.eps2)):
                    if eps == -1:
                        M -= np.trace(M) / n * np.eye(n)
                pairs.append((A, B))
            X, Y = (np.array(m) for m in zip(*pairs))
            if letter == "B":
                X, Y = Y, X
            got = mc._LetterBuffer(X, Y, sig, letter, t2, t4).action()
            for (A, B), s in zip(pairs, got):
                D = dirac_operator(A, B, sig)
                D2 = D @ D
                direct = t2 * np.trace(D2).real + t4 * np.einsum("ij,ji->", D2, D2).real
                assert s == pytest.approx(direct, rel=1e-12), (n, s, direct)

    def test_swap_symmetry_for_symmetric_signatures(self):
        rng = np.random.default_rng(1)
        A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
        for sig in (Signature.S20, Signature.S02):
            assert action(A, B, sig) == pytest.approx(action(B, A, sig), rel=1e-12)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc.SamplerConfig(n=0, point=P11)
        with pytest.raises(ValueError):
            mc.SamplerConfig(n=4, point=P11, steps=10, burn_in=20)
        with pytest.raises(ValueError):
            mc.SamplerConfig(n=4, point=CouplingPoint(1, F(-1, 2)))
        with pytest.raises(ValueError, match="update_targets"):
            mc.SamplerConfig(n=4, point=P11, update_targets="B")
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mc.SamplerConfig(n=4, point=P11, seed=-1)

    @pytest.mark.parametrize("sig, targets, letter", [
        (Signature.S11, "AB", "B"), (Signature.S02, "AB", "A"), (Signature.S02, "A", "A"),
    ])
    def test_refuses_a_commutator_letter_at_n_1(self, sig, targets, letter):
        # at N = 1, X (x) 1 - 1 (x) X^T = 0: the letter leaves D and its walk is unbounded
        message = f"n = 1 drops the commutator letter {letter} out of D"
        with pytest.raises(ValueError, match=f"^{message}, so its weight is flat and its walk unbounded; use n >= 2$"):
            mc.SamplerConfig(n=1, point=P11, signature=sig, update_targets=targets)

    @pytest.mark.parametrize("sig, targets, n", [
        (Signature.S20, "AB", 1), (Signature.S20, "A", 1), (Signature.S11, "A", 1),
        (Signature.S11, "AB", 2), (Signature.S02, "AB", 2),
    ])
    def test_accepts_n_1_without_a_moving_commutator_letter(self, sig, targets, n):
        assert mc.SamplerConfig(n=n, point=P11, signature=sig, update_targets=targets).n == n

    @pytest.mark.parametrize("bad", ["0,2", (0, 2), None])
    def test_refuses_a_signature_that_is_not_a_signature(self, bad):
        # a plain string or tuple used to reach run_chain and die on .eps1
        with pytest.raises(ValueError, match=r"^signature must be Signature\.S20, S11 or S02, got "):
            mc.SamplerConfig(n=2, point=P11, signature=bad)

    def test_refuses_runs_that_keep_no_sample(self):
        # 9 post-burn-in steps at thinning 10 keep nothing: refused before any step runs
        with pytest.raises(ValueError, match="no samples kept; increase steps or reduce thinning"):
            mc.SamplerConfig(n=10, point=P11, steps=3009, burn_in=3000, thinning=10)
        assert mc.SamplerConfig(n=10, point=P11, steps=3010, burn_in=3000, thinning=10)

    @pytest.mark.parametrize("t2, t4", [("1e-400", 1), ("1e400", 1), (1, "1e-400"), (1, "1e400")])
    def test_refuses_couplings_outside_the_float_range(self, t2, t4):
        # 1e-400 is 0.0 as a float and 1e400 overflows one: refused before any conversion
        message = "sampler needs 1e-300 <= t2 <= 1e300 and 1e-300 <= t4 <= 1e300 to evaluate in floats"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc.SamplerConfig(n=2, point=CouplingPoint(F(t2), F(t4)))

    @pytest.mark.parametrize("field", ["n", "steps", "burn_in", "thinning", "chains", "seed"])
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_integer_fields_refuse_non_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            mc.SamplerConfig(**{"n": 4, "point": P11, "steps": 1000, "burn_in": 1, field: bad})

    def test_numpy_integers_are_accepted(self):
        cfg = mc.SamplerConfig(n=np.int64(4), point=P11, steps=np.int32(1000), burn_in=100)
        assert type(cfg.n) is int and type(cfg.steps) is int

    def test_default_scale_depends_on_size(self):
        # without burn-in the scales are never tuned, so every chain keeps its starting scale
        for n in (2, 12):
            cfg = mc.SamplerConfig(n=n, point=P11, steps=2, burn_in=0, thinning=1, chains=3)
            assert np.array_equal(mc.run_chain(cfg).step_scales, np.full(3, 0.7 / math.sqrt(8 * n**2)))

    def test_proposal_count(self):
        cfg = mc.SamplerConfig(n=4, point=P11, steps=1000, burn_in=100, chains=8)
        assert cfg.proposals == 8000


@pytest.fixture(scope="module")
def short_chain():
    cfg = mc.SamplerConfig(
        n=6, point=P11, steps=6000, burn_in=2000, thinning=20, seed=5, chains=4
    )
    return mc.run_chain(cfg)


class TestProposal:
    """The law of one block of batched proposals, drawn at unit scale."""

    @pytest.fixture(scope="class")
    def block(self):
        cfg = mc.SamplerConfig(n=6, point=P11, signature=Signature.S11, seed=1, chains=8)
        gen = np.random.default_rng(cfg.seed)
        shape = (mc.BLOCK, cfg.chains, cfg.n, cfg.n)
        return mc._draw_block(gen, cfg, np.ones(cfg.chains), np.empty(shape), np.empty(shape, dtype=complex))

    def test_shapes(self, block):
        targets, steps, log_u = block
        assert targets.shape == (mc.BLOCK,) and set(targets) == {0, 1}
        assert steps.shape == (mc.BLOCK, 8, 6, 6) and log_u.shape == (mc.BLOCK, 8)
        assert np.all(log_u < 0)

    def test_steps_are_exactly_hermitian(self, block):
        _targets, steps, _log_u = block
        assert np.array_equal(steps, steps.conj().swapaxes(-1, -2))

    def test_commutator_letter_steps_are_traceless(self, block):
        # S11: A acts by anticommutator (full Hermitian), B by commutator (traceless)
        targets, steps, _log_u = block
        traces = np.abs(np.einsum("scii->sc", steps))
        assert np.max(traces[targets == 1]) <= 1e-12
        assert np.min(np.max(traces[targets == 0], axis=-1)) > 1e-6

    def test_entry_variances(self, block):
        targets, steps, _log_u = block
        full = steps[targets == 0]
        upper = np.triu_indices(6, 1)
        for values, var in (
            (np.einsum("scii->sci", full).real, 1.0),
            (full[..., upper[0], upper[1]].real, 0.5),
            (full[..., upper[0], upper[1]].imag, 0.5),
        ):
            m = values.size
            assert abs(values.var() - var) < 5 * var * math.sqrt(2 / (m - 1)), (var, values.var(), m)

    def test_real_and_imaginary_parts_uncorrelated(self, block):
        targets, steps, _log_u = block
        upper = np.triu_indices(6, 1)
        entries = steps[targets == 0][..., upper[0], upper[1]]
        # independent N(0, 1/2) parts: their product has mean 0 and standard deviation 1/2
        assert abs(np.mean(entries.real * entries.imag)) < 5 * 0.5 / math.sqrt(entries.size)


class TestChain:
    def test_kept_sample_count(self, short_chain):
        cfg = short_chain.config
        assert short_chain.samples_a.shape == ((cfg.steps - cfg.burn_in) // cfg.thinning, cfg.chains, cfg.n, cfg.n)
        assert short_chain.samples_b.shape == short_chain.samples_a.shape

    def test_deterministic_given_seed(self, short_chain):
        again = mc.run_chain(short_chain.config)
        assert np.array_equal(short_chain.samples_a, again.samples_a)
        assert np.array_equal(short_chain.samples_b, again.samples_b)

    def test_samples_stay_hermitian_exactly(self, short_chain):
        for arr in (short_chain.samples_a, short_chain.samples_b):
            assert np.array_equal(arr, arr.conj().swapaxes(-1, -2))

    def test_acceptance_tuned(self, short_chain):
        assert short_chain.healthy
        assert 0.25 < short_chain.acceptance.mean() < 0.55

    def test_moment_estimate_tracks_large_n_value(self, short_chain):
        est = mc.estimate_moment(short_chain, "AA")
        assert est.std_error > 0
        assert abs(est.mean - 1 / 16) < 0.15 * (1 / 16)

    def test_empty_word_series_is_exactly_one(self, short_chain):
        # Re tr(I I) = N, divided by N
        series = mc.word_trace_series(short_chain, "")
        assert series.shape == short_chain.samples_a.shape[:2]
        assert np.all(series == 1.0)

    def test_parity_observable_is_noise(self, short_chain):
        est = mc.estimate_moment(short_chain, "AB")
        assert est.agrees_with(0.0)

    def test_dirac_estimate(self, short_chain):
        est = mc.estimate_dirac(short_chain, 2, max_samples=300)
        assert abs(est.mean - 0.5) < 0.1

    @pytest.mark.parametrize("max_samples", [0, -5, 3])
    def test_dirac_series_refuses_empty_subset(self, short_chain, max_samples):
        with pytest.raises(ValueError, match=f"max_samples must be >= chains = 4, got {max_samples}"):
            mc.dirac_trace_series(short_chain, 2, max_samples=max_samples)

    def test_dirac_series_keeps_at_most_max_samples(self):
        # 900 kept states of 8 chains: a rounded-down stride would keep 2400
        cfg = mc.SamplerConfig(n=2, point=P11, chains=8)
        zeros = np.zeros((900, 8, 2, 2), dtype=complex)
        r = mc.ChainResult(cfg, zeros, zeros, np.full(8, 0.5), np.ones(8))
        for max_samples in (2000, 96, 8):
            assert mc.dirac_trace_series(r, 2, max_samples=max_samples).size <= max_samples
        assert mc.dirac_trace_series(r, 2, max_samples=96).shape == (12, 8)

    @pytest.mark.parametrize("ell", [2.5, True, 3, 8])
    def test_dirac_estimators_refuse_bad_index(self, short_chain, ell):
        with pytest.raises(ValueError, match="ell"):
            mc.estimate_dirac(short_chain, ell)
        with pytest.raises(ValueError, match="ell"):
            mc.dirac_trace_series(short_chain, ell)

    def test_trace_rows(self, short_chain):
        rows = list(mc.trace_rows(short_chain))
        assert rows[0] == ("sample", "tr_A2", "tr_D2", "tr_D4", "acceptance")
        assert len(rows) == short_chain.samples_a.shape[0] + 1


@pytest.fixture(scope="module")
def signature_chains():
    return {
        sig: mc.run_chain(mc.SamplerConfig(
            n=4, point=P11, signature=sig, steps=1500, burn_in=500,
            thinning=10, seed=3, chains=2,
        ))
        for sig in Signature
    }


# acceptance and real sums of the A and B samples of each signature chain,
# frozen from the sampler that draws each block of steps from one generator
CHAIN_PINS = {
    Signature.S20: ([0.299, 0.406], -9.604966861787261, 6.920268551379057),
    Signature.S11: ([0.321, 0.443], -28.82926842608993, 8.384820478505905),
    Signature.S02: ([0.328, 0.382], -14.609589398708046, 20.231254275755454),
}


def assert_pinned(r, acceptance, sum_a, sum_b):
    assert r.acceptance.tolist() == acceptance
    assert r.samples_a.real.sum() == pytest.approx(sum_a, rel=1e-10)
    assert r.samples_b.real.sum() == pytest.approx(sum_b, rel=1e-10)


def test_chains_are_pinned(signature_chains):
    for sig, pin in CHAIN_PINS.items():
        assert_pinned(signature_chains[sig], *pin)


# the same pins at the benchmark's shape (N = 10, 8 chains), frozen from the
# sampler that rebuilt every word trace of the pair on each proposal
BENCH_SHAPE_PINS = {
    Signature.S20: ([0.378, 0.384, 0.378, 0.368, 0.353, 0.362, 0.399, 0.407],
                    -179.139516393897, 157.929780620127),
    Signature.S11: ([0.378, 0.405, 0.363, 0.435, 0.322, 0.381, 0.409, 0.429],
                    -86.29800363635097, 57.96288492350332),
    Signature.S02: ([0.343, 0.378, 0.385, 0.386, 0.321, 0.369, 0.343, 0.422],
                    -153.29277758660365, 92.58956945381017),
}


@pytest.mark.parametrize("sig", list(Signature))
def test_benchmark_shape_chains_are_pinned(sig):
    cfg = mc.SamplerConfig(n=10, point=P11, signature=sig, steps=1500, burn_in=500,
                           thinning=10, seed=3, chains=8)
    assert_pinned(mc.run_chain(cfg), *BENCH_SHAPE_PINS[sig])


def test_single_letter_chain_is_pinned():
    cfg = mc.SamplerConfig(n=1, point=P11, steps=1500, burn_in=500, thinning=10,
                           seed=3, chains=8, update_targets="A")
    assert_pinned(mc.run_chain(cfg), [0.427, 0.411, 0.438, 0.458, 0.463, 0.402, 0.42, 0.464],
                  7.409287869296349, 0.0)


def dense_traces(result, samples):
    """{ell: tr D^ell} of the dense operator for each (t, c) sample index."""
    sig = result.config.signature
    out = {2: [], 4: [], 6: []}
    for t, c in samples:
        D = dirac_operator(result.samples_a[t, c], result.samples_b[t, c], sig)
        D2 = D @ D
        D4 = D2 @ D2
        for ell, (X, Y) in {2: (D, D), 4: (D2, D2), 6: (D4, D2)}.items():
            out[ell].append(np.einsum("ij,ji->", X, Y).real)
    return {ell: np.array(v) for ell, v in out.items()}


def test_dirac_traces_match_dense_operator(short_chain, signature_chains):
    for r in (short_chain, *signature_chains.values()):
        T, C, n, _ = r.samples_a.shape
        keep = range(0, T, -(-T // 16))   # ceiling stride: at most 16 rows
        want = dense_traces(r, [(t, c) for t in keep for c in range(C)])
        for ell in (2, 4, 6):
            series = mc.dirac_trace_series(r, ell, max_samples=16 * C)
            assert series.shape == (len(keep), C)
            np.testing.assert_allclose(series.reshape(-1), want[ell] / n**2, rtol=1e-12)
        rows = list(mc.trace_rows(r))[1:]
        want = dense_traces(r, [(t, 0) for t in range(T)])
        for column, ell in ((2, 2), (3, 4)):
            np.testing.assert_allclose([row[column] for row in rows], want[ell], rtol=1e-12)
        tr_a2 = np.einsum("tij,tji->t", r.samples_a[:, 0], r.samples_a[:, 0]).real
        np.testing.assert_allclose([row[1] for row in rows], tr_a2, rtol=1e-12)


@pytest.mark.parametrize("sig", list(Signature))
def test_virial_identity_at_finite_n(sig):
    # S = t2 tr D^2 + t4 tr D^4 is homogeneous of degrees 2 and 4 in the d real
    # coordinates sampled, so under exp(-S), E[x . grad S] = E[2 t2 tr D^2 + 4 t4 tr D^4]
    # = d exactly at every N: 2 N^2, less one per commutator letter, whose trace is not
    # sampled.  At this length a kernel with t4 off by 10 % reads z < -7 on every signature.
    n, t2, t4 = 4, 1, 1
    cfg = mc.SamplerConfig(n=n, point=CouplingPoint(t2, t4), signature=sig, steps=36_000,
                           burn_in=2000, thinning=10, seed=11, chains=8)
    r = mc.run_chain(cfg)
    kept = r.samples_a.shape[0] * cfg.chains
    d2, d4 = (mc.dirac_trace_series(r, ell, max_samples=kept) * n**2 for ell in (2, 4))
    est = mc._batch_mean_error(2 * t2 * d2 + 4 * t4 * d4)
    dof = 2 * n**2 - (sig.eps1 == -1) - (sig.eps2 == -1)
    assert abs(est.mean - dof) < 4 * est.std_error, (est.mean, est.std_error, dof)


class TestCommutatorSignatures:
    def test_commutator_letters_stay_traceless(self, signature_chains):
        r = signature_chains[Signature.S02]
        for arr in (r.samples_a, r.samples_b):
            traces = np.einsum("tcii->tc", arr)
            assert np.max(np.abs(traces)) < 1e-10

    def test_anticommutator_letter_keeps_trace(self, signature_chains):
        r = signature_chains[Signature.S11]
        assert np.max(np.abs(np.einsum("tcii->tc", r.samples_a))) > 1e-6
        assert np.max(np.abs(np.einsum("tcii->tc", r.samples_b))) < 1e-10


class TestConcentration:
    def test_second_moment_decreases_in_quadratic_coupling(self):
        means = []
        for t2 in (F(1, 2), 2, 8):
            cfg = mc.SamplerConfig(
                n=4, point=CouplingPoint(t2, 4), steps=4000, burn_in=1500,
                thinning=10, seed=9, chains=4,
            )
            means.append(mc.estimate_moment(mc.run_chain(cfg), "AA").mean)
        assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("t2, t4", [
    (1, 1), (1, 1e-6), (1e-6, 1), (1e4, 1), (1, 1e4), (3, 0.1), (1e-3, 1e-3),
])
def test_n1_cdf_matches_quadrature(t2, t4):
    from scipy.integrate import quad

    density = lambda x: math.exp(-8 * t2 * x * x - 32 * t4 * x**4)
    edge = min(math.sqrt(50 / (8 * t2)), (50 / (32 * t4)) ** 0.25)
    xs = np.linspace(-1.2 * edge, 1.2 * edge, 61)
    # integrated piece by piece from -inf: one quad from -inf to x misses a narrow peak
    parts = [quad(density, a, b, epsrel=1e-13)[0] for a, b in zip([-np.inf, *xs], [*xs, np.inf])]
    want = np.cumsum(parts)[:-1] / sum(parts)
    np.testing.assert_allclose(mc._n1_cdf(t2, t4, xs), want, rtol=0, atol=1e-7)


def test_ks_check_fast():
    dist, n = mc.n1_marginal_ks(P11, samples=20_000, seed=7)
    assert n >= 20_000
    assert dist < 0.02


def test_dirac_operator_shape_and_hermiticity():
    rng = np.random.default_rng(2)
    A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
    for sig in Signature:
        D = dirac_operator(A, B, sig)
        assert D.shape == (18, 18)
        assert np.allclose(D, D.conj().T, atol=1e-13)
