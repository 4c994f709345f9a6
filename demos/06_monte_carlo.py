"""Sampling the convergent ensembles at finite matrix size.

A short Metropolis run per signature: the second moment lands on the
large-size value 1/16 for all three sign choices, the Dirac moment tr(D^2)
estimate lands on 1/2, and the alternating-word average exposes the
finite-size structure: it is the positive planar coefficient that the exact
oracles of this package produce plus a signature-dependent 1/N^2 correction,
of the size of the GUE value 1/(64 N^2).

Runtime is about 30 s on one core of a 2-CPU VM; increase `steps` for tighter errors.
"""

from dirac2mm import CouplingPoint, SamplerConfig, Signature, estimate_dirac, estimate_moment, run_chain

point = CouplingPoint(1, 1)
steps = 60_000

for sig in Signature:
    cfg = SamplerConfig(
        n=10, point=point, signature=sig, steps=steps, burn_in=10_000,
        thinning=50, seed=5, chains=8,
    )
    result = run_chain(cfg)
    m2 = estimate_moment(result, "AA")
    abab = estimate_moment(result, "ABAB")
    d2 = estimate_dirac(result, 2, max_samples=800)
    print(f"signature {sig} ({cfg.proposals} proposals, acceptance {result.acceptance.mean():.2f}):")
    print(f"  (1/N) tr A^2    = {m2.mean:.5f} +/- {m2.std_error:.5f}   [closed form 1/16 = 0.0625]")
    print(f"  (1/N^2) tr D^2  = {d2.mean:.4f} +/- {d2.std_error:.4f}    [closed form 1/2]")
    print(f"  (1/N) tr ABAB   = {abab.mean:.2e} +/- {abab.std_error:.2e} [GUE value 1/(64 N^2) = {1/6400:.2e}]")
