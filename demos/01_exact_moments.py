"""Closed-form moments of the quartic 2-matrix ensembles.

Every moment of degree up to eight has an exact value in the quadratic
field Q(s), s = sqrt(t2^2 + 8 t4).  This script prints the full table at a
couple of coupling points and demonstrates the small consistency identities
the table satisfies (the fourth-moment doubling, the Dirac moments and
their word-moment expansions, and the rescaling identity in the quartic
coupling).
"""

from fractions import Fraction as F

from dirac2mm import (
    CouplingPoint,
    dirac_from_words,
    dirac_moment,
    moment,
    rescale_dirac,
)
from dirac2mm.closedform import moment_table_rows

for t2, t4 in ((1, 1), (2, F(1, 2))):
    p = CouplingPoint(t2, t4)
    print(f"\n=== moment table at t2 = {t2}, t4 = {t4} (s^2 = {p.ssq}) ===")
    for row in moment_table_rows(p):
        print("  ".join(f"{x!s:>14}" for x in row))

p = CouplingPoint(1, 1)
print("\nfourth-moment doubling: m_4 = 2 m_{2,2}:",
      moment("AAAA", p), "=", 2 * F(1, 256))

print("\nDirac moments and their word-moment expansions at (1,1):")
for ell in (2, 4, 6):
    print(f"  d_{ell}: closed form {dirac_moment(ell, p)!r}, "
          f"from words {dirac_from_words(ell, p)!r}")

print("\nrescaling in the quartic coupling, d_ell(t2, t4) = t4^(-ell/4) d_ell(t2/sqrt(t4), 1):")
for ell in (2, 4, 6):
    q = CouplingPoint(2, 16)
    print(f"  ell={ell}: direct {dirac_moment(ell, q)!r}, rescaled {rescale_dirac(ell, q)!r}")
