import numpy as np
import pytest

from perfbench import mcstats


def ar1(rho: float, steps: int, chains: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((steps, chains))
    x = np.empty_like(noise)
    x[0] = noise[0] / np.sqrt(1 - rho**2)
    for t in range(1, steps):
        x[t] = rho * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_tau_int_of_ar1_is_one_plus_rho_over_one_minus_rho(rho):
    x = ar1(rho, 50_000, 8, seed=3)
    want = (1 + rho) / (1 - rho)
    assert mcstats.tau_int(x) == pytest.approx(want, rel=0.08)
    assert mcstats.ess(x) == pytest.approx(x.size / want, rel=0.08)


def test_split_rhat_is_one_for_mixed_chains_and_large_for_stuck_ones():
    x = ar1(0.5, 4000, 8, seed=5)
    assert mcstats.split_rhat(x) == pytest.approx(1.0, abs=0.01)
    stuck = x + np.arange(8)[None, :]
    assert mcstats.split_rhat(stuck) > 1.5
    drifting = x + np.linspace(0, 3, x.shape[0])[:, None]
    assert mcstats.split_rhat(drifting) > 1.1


def test_constant_series_is_rejected():
    with pytest.raises(ValueError):
        mcstats.tau_int(np.ones((100, 2)))
