"""End-to-end verification suite.

Each check returns a :class:`CheckResult`.  ``passed`` states whether the
artifact behaves as documented; ``discrepancy`` flags checks whose
*published* expectation provably cannot hold (the closed-form branch and
the Gaussian-based perturbative expansion are different solutions of the
loop equations; see README).  By default documented discrepancies do not
fail the run; ``strict`` counts them as failures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import CouplingPoint, SurdScalar
from .words import CanonicalMoment, iter_canonical_moments, parse_moment_label
from .sde import CoefTag, SdeEquation, generate_system, residual
from . import closedform, mapenum, solver


@dataclass
class CheckResult:
    name: str
    passed: bool
    discrepancy: bool = False
    detail: str = ""
    lines: list = field(default_factory=list)


# -- reference loop-equation system ---------------------------------------
# The known tabulated system: 29 printed equations for words of odd degree
# <= 7 (single A-block words), transcribed term by term.  Quartic entries
# keep their printed order and multiplicity; signs are +16/-16.

REFERENCE_SYSTEM = [
    # word, lhs products, 8t2-moment, quartic terms, bitrace moment
    ("A", ["1"], "2", [("4", 1), ("1,1,1,1", -1), ("2,2", 1), ("2,2", 1)], "2"),
    ("AAA", ["2", "2"], "4", [("6", 1), ("3,1,1,1", -1), ("4,2", 1), ("4,2", 1)], "4"),
    ("ABB", ["2"], "2,2", [("4,2", 1), ("3,1,1,1", -1), ("2,1,2,1", 1), ("4,2", 1)], "2,2"),
    ("BAB", ["0"], "1,1,1,1", [("3,1,1,1", 1), ("2,1,2,1", -1), ("3,1,1,1", 1), ("3,1,1,1", 1)], "1,1,1,1"),
    ("BBA", ["2"], "2,2", [("4,2", 1), ("3,1,1,1", -1), ("4,2", 1), ("2,1,2,1", 1)], "2,2"),
    ("AAAAA", ["2*2", "4", "4"], "6", [("8", 1), ("5,1,1,1", -1), ("6,2", 1), ("6,2", 1)], "6"),
    ("AAABB", ["2,2", "2*2"], "4,2", [("6,2", 1), ("3,3,1,1", -1), ("3,2,1,2", 1), ("4,4", 1)], "4,2"),
    ("ABBBB", ["4"], "4,2", [("4,4", 1), ("5,1,1,1", -1), ("4,1,2,1", 1), ("6,2", 1)], "4,2"),
    ("BAAAB", ["0"], "3,1,1,1", [("3,1,3,1", 1), ("3,2,1,2", -1), ("3,3,1,1", 1), ("3,3,1,1", 1)], "3,1,1,1"),
    ("BABBB", ["0"], "3,1,1,1", [("3,3,1,1", 1), ("4,1,2,1", -1), ("3,1,3,1", 1), ("5,1,1,1", 1)], "3,1,1,1"),
    ("BBABB", ["2*2"], "2,1,2,1", [("3,2,1,2", 1), ("3,1,3,1", -1), ("4,1,2,1", 1), ("4,1,2,1", 1)], "2,1,2,1"),
    ("BBBAB", ["0"], "3,1,1,1", [("3,1,1,3", 1), ("4,1,2,1", -1), ("5,1,1,1", 1), ("3,1,3,1", 1)], "3,1,1,1"),
    ("BBBBA", ["4"], "4,2", [("4,4", 1), ("5,1,1,1", -1), ("6,2", 1), ("4,1,2,1", 1)], "4,2"),
    ("AAAAAAA", ["2*4", "2*4", "6", "6"], "8", [("10", 1), ("7,1,1,1", -1), ("8,2", 1), ("8,2", 1)], "8"),
    ("AAAAABB", ["4,2", "4*2", "2*2,2"], "6,2", [("8,2", 1), ("5,3,1,1", -1), ("5,2,1,2", 1), ("6,4", 1)], "6,2"),
    ("AAABBBB", ["2*4", "4,2"], "4,4", [("6,4", 1), ("5,1,1,3", -1), ("4,1,2,3", 1), ("6,4", 1)], "4,4"),
    ("ABBBBBB", ["6"], "6,2", [("6,4", 1), ("7,1,1,1", -1), ("6,1,2,1", 1), ("8,2", 1)], "6,2"),
    ("BAAAAAB", ["0"], "5,1,1,1", [("5,1,3,1", 1), ("5,2,1,2", -1), ("5,1,1,3", 1), ("5,3,1,1", 1)], "5,1,1,1"),
    ("BAAABBB", ["0"], "3,3,1,1", [("3,3,3,1", 1), ("4,1,2,3", -1), ("3,3,3,1", 1), ("5,1,1,3", 1)], "3,3,1,1"),
    ("BABBBBB", ["0"], "5,1,1,1", [("5,3,1,1", 1), ("6,1,2,1", -1), ("5,1,3,1", 1), ("7,1,1,1", 1)], "5,1,1,1"),
    ("BBAAAAA", ["2,2*2", "4,2", "2*4"], "6,2", [("8,2", 1), ("5,1,1,3", -1), ("6,4", 1), ("5,2,1,2", 1)], "6,2"),
    ("BBAAABB", ["2*2,2", "2*2,2"], "3,2,1,2", [("3,2,3,2", 1), ("3,3,3,1", -1), ("4,3,2,1", 1), ("4,1,2,3", 1)], "3,2,1,2"),
    ("BBABBBB", ["2*4"], "4,1,2,1", [("4,3,2,1", 1), ("5,1,3,1", -1), ("4,1,4,1", 1), ("6,1,2,1", 1)], "4,1,2,1"),
    ("BBBAAAB", ["0"], "3,3,1,1", [("3,3,1,3", 1), ("4,3,2,1", -1), ("5,3,1,1", 1), ("3,3,3,1", 1)], "3,3,1,1"),
    ("BBBABBB", ["0"], "3,1,3,1", [("3,1,3,3", 1), ("4,1,4,1", -1), ("5,1,3,1", 1), ("5,1,3,1", 1)], "3,1,3,1"),
    ("BBBBAAA", ["4,2", "4*2"], "4,4", [("6,4", 1), ("5,3,1,1", -1), ("6,4", 1), ("4,3,2,1", 1)], "4,4"),
    ("BBBBABB", ["4*2"], "4,1,2,1", [("4,1,2,3", 1), ("5,1,3,1", -1), ("6,1,2,1", 1), ("4,1,4,1", 1)], "4,1,2,1"),
    ("BBBBBAB", ["0"], "5,1,1,1", [("5,1,1,3", 1), ("6,1,2,1", -1), ("7,1,1,1", 1), ("5,1,3,1", 1)], "5,1,1,1"),
    ("BBBBBBA", ["6"], "6,2", [("6,4", 1), ("7,1,1,1", -1), ("8,2", 1), ("6,1,2,1", 1)], "6,2"),
]


def _reference_equation(entry) -> SdeEquation:
    word, lhs_raw, c2, quartic, bt = entry
    empty = CanonicalMoment(())
    lhs = []
    for product in lhs_raw:
        if product == "0":
            continue
        if product == "1":
            lhs.append((empty, empty))
            continue
        factors = product.split("*")
        if len(factors) == 1:
            lhs.append((empty, parse_moment_label(factors[0])))
        else:
            lhs.append(tuple(parse_moment_label(f) for f in factors))
    rhs = [(parse_moment_label(c2), CoefTag.C2)]
    for label, sign in quartic:
        rhs.append((parse_moment_label(label), CoefTag.Q if sign > 0 else CoefTag.QNEG))
    rhs.append((parse_moment_label(bt), CoefTag.BT))
    return SdeEquation(lhs=lhs, rhs=rhs, source_word=word, rhs_display=tuple(rhs))


def reference_equations() -> list[SdeEquation]:
    return [_reference_equation(e) for e in REFERENCE_SYSTEM]


# -- the checks -----------------------------------------------------------


def check_exact_moments() -> CheckResult:
    p = CouplingPoint(1, 1)
    expected = {
        "m_{2}": Fraction(1, 16),
        "m_{4}": Fraction(1, 128),
        "m_{2,2}": Fraction(1, 256),
        "m_{1,1,1,1}": Fraction(0),
    }
    lines = []
    ok = True
    for label, want in expected.items():
        got = closedform.moment(parse_moment_label(label), p)
        good = got == SurdScalar.rational(want, p.ssq)
        ok &= good
        lines.append(f"{label}({1},{1}) = {got.reduced()!r} (expect {want}): {'ok' if good else 'FAIL'}")
    for ell, want in ((2, Fraction(1, 2)), (4, Fraction(1, 4)), (6, Fraction(19, 128))):
        got = closedform.dirac_moment(ell, p)
        good = got == SurdScalar.rational(want, p.ssq)
        ok &= good
        lines.append(f"d_{ell}(1,1) = {got.reduced()!r} (expect {want}): {'ok' if good else 'FAIL'}")
    return CheckResult("1 exact moment values at (1,1)", ok, lines=lines)


def check_system_structure() -> CheckResult:
    generated = generate_system(7)
    gen_keys = {eq.normalized_key(): eq for eq in generated}
    ref = reference_equations()
    ref_keys = {eq.normalized_key(): eq for eq in ref}
    same_sets = set(gen_keys) == set(ref_keys)
    gen_text = sorted(eq.render_text(normalized=True) for eq in gen_keys.values())
    ref_text = sorted(eq.render_text(normalized=True) for eq in ref_keys.values())
    byte_equal = gen_text == ref_text
    detail = (
        f"{len(ref)} transcribed equations merge to {len(ref_keys)} distinct; "
        f"generator yields {len(gen_keys)}; sets equal: {same_sets}; "
        f"normalized renderings byte-equal: {byte_equal}"
    )
    return CheckResult("2 loop-equation system matches the tabulated 29", same_sets and byte_equal, detail=detail)


def check_exact_residuals() -> CheckResult:
    lines = []
    ok = True
    equations = generate_system(7)
    rng, points = random.Random(20240817), []
    while len(points) < 10:     # seeded rational points in (0, 5]^2
        t2 = Fraction(rng.randint(1, 25), rng.randint(1, 5))
        t4 = Fraction(rng.randint(1, 25), rng.randint(1, 5))
        if t2 <= 5 and t4 <= 5:
            points.append(CouplingPoint(t2, t4))
    for p in points:
        vals = closedform.branch_assignment(p)
        bad = [eq.source_word for eq in equations if not residual(eq, vals, p).is_zero()]
        if bad:
            ok = False
            lines.append(f"nonzero residuals at {p}: {bad}")
    detail = "all 20 equations, 10 random rational points in (0,5]^2: residuals exactly zero" if ok else ""
    return CheckResult("3 closed-form branch solves every equation exactly", ok, detail=detail, lines=lines)


# Perturbative series of the alternating moment, frozen from the exact
# agreement of the loop-equation recursion and the gluing enumeration.
ALTERNATING_SERIES_T21 = (Fraction(0), Fraction(1, 256), Fraction(-9, 256), Fraction(141, 512))


def check_oracle_triangle() -> CheckResult:
    table = solver.solve_series(D=8, K=3, t2=1)
    records = closedform.verify_closed_forms(table)
    lines = []
    matches = [r for r in records if r.ok]
    for r in records:
        if r.ok:
            continue
        if r.closed_coeffs is None:
            lines.append(f"{r.moment.label()}: closed form is not a power series ({r.detail})")
        else:
            lines.append(f"{r.moment.label()}: {r.detail}")
    spec_claim = not lines

    # The divergence structure is itself exact and reproducible: the branch
    # departs from the recursion at order 2 for m_2, order 1 for degree 4,
    # order 0 for degree 6, and has a t4-pole for every degree-8 entry.
    expected_first_mismatch = {2: 2, 4: 1, 6: 0}
    pattern_ok = True
    for r in records:
        deg = r.moment.degree
        if deg <= 6:
            want = 1 if r.moment.runs == (1, 1, 1, 1) else expected_first_mismatch[deg]
            pattern_ok &= (r.first_mismatch == want) and r.closed_coeffs is not None
        else:
            pattern_ok &= r.closed_coeffs is None  # pole flagged
    lines.append(f"divergence pattern (orders 2/1/0 by degree, poles at degree 8): {pattern_ok}")

    m1111 = table.series(CanonicalMoment((1, 1, 1, 1)))
    regen_zero = m1111.is_zero()
    documented = tuple(m1111.coeffs) == ALTERNATING_SERIES_T21
    lines.append(
        f"m_{{1,1,1,1}} series (t2=1): {[str(c) for c in m1111.coeffs]} "
        f"(zero claim: {'holds' if regen_zero else 'fails'}; matches frozen oracle value: {documented})"
    )

    deg6 = [parse_moment_label(x) for x in ("m_{6}", "m_{4,2}", "m_{2,1,2,1}", "m_{3,1,1,1}")]
    dens_ok = all(closedform._form(c)[:2] == (3, 32768) for c in deg6)
    lines.append(f"degree-6 closed-form denominators are 32768 t4^3: {dens_ok}")

    passed = documented and dens_ok and pattern_ok
    discrepancy = not (spec_claim and regen_zero)
    detail = (
        f"{len(matches)}/{len(records)} moments match through order 3; the rest diverge "
        "because the closed-form branch enforces a vanishing alternating moment, which the "
        "Gaussian-based recursion (confirmed independently by map enumeration) does not satisfy"
    )
    return CheckResult("4 oracle triangle: solver vs closed forms", passed, discrepancy=discrepancy, detail=detail, lines=lines)


def check_map_agreement() -> CheckResult:
    max_degree, max_order = 6, 2
    table = solver.solve_series(D=max_degree, K=max_order, t2=1)
    lines = []
    agree = True
    for d in range(2, max_degree + 1, 2):
        for c in iter_canonical_moments(d):
            w = c.rep_word()
            for k in range(max_order + 1):
                maps_val = mapenum.moment_coefficient(w, k, 1)
                solver_val = table.series(c).coefficient(k)
                if maps_val != solver_val:
                    agree = False
                    lines.append(f"{c.label()} k={k}: maps {maps_val} != solver {solver_val}")
    reports = [mapenum.cancellation_report(k) for k in range(max_order + 1)]
    distinguished = all(r.all_have_distinguished_cell for r in reports)
    cancels = all(r.paired for r in reports)
    for r in reports:
        lines.append(
            f"alternating word, k={r.k}: planar maps +{r.positive_weight_count}/-{r.negative_weight_count}, "
            f"signed cell-weight sum {r.signed_sum}"
        )
    passed = agree and distinguished
    detail = (
        "enumeration equals recursion exactly on every moment (degree <= "
        f"{max_degree}, order <= {max_order}); every planar alternating-word gluing contains a "
        "chequered quadrangle or opposite cylinder; the signed weights do NOT cancel "
        "(the positive chequered gluings glued entirely to the root polygon have no planar partner)"
        if passed and not cancels
        else ""
    )
    return CheckResult("5 map enumeration agreement + cancellation census", passed, discrepancy=not cancels, detail=detail, lines=lines)


def check_free_energy() -> CheckResult:
    p = CouplingPoint(1, 1)
    lines = []
    pinned = -0.25 + math.log(math.pi**2 / 16)
    v = closedform.free_energy(p)
    a_ok = abs(v - pinned) < 1e-10
    lines.append(f"printed formula at (1,1): {v:.12f} vs pinned {pinned:.12f}: {'ok' if a_ok else 'FAIL'}")
    small = CouplingPoint(1, Fraction(1, 10**8))
    gauss = closedform.gaussian_free_energy(1)
    b1 = abs(closedform.free_energy(small) - gauss) < 1e-6
    b2 = abs(closedform.free_energy_consistent(small) - gauss) < 1e-6
    lines.append(f"t4->0 limit matches the gaussian value: printed {b1}, consistent {b2}")
    h = Fraction(1, 10**6)
    dh = float(2 * h)
    d_printed = (closedform.free_energy(CouplingPoint(1, 1 + h)) - closedform.free_energy(CouplingPoint(1, 1 - h))) / dh
    d_cons = (
        closedform.free_energy_consistent(CouplingPoint(1, 1 + h))
        - closedform.free_energy_consistent(CouplingPoint(1, 1 - h))
    ) / dh
    c_claim = abs(d_printed + 0.25) < 1e-8
    c_cons = abs(d_cons + 0.25) < 1e-8
    lines.append(
        f"dF/dt4 at (1,1): printed formula {d_printed:+.9f}, consistent evaluator {d_cons:+.9f} (target -0.25)"
    )
    passed = a_ok and b1 and b2 and c_cons and abs(d_printed - 0.25) < 1e-8
    return CheckResult(
        "6 free energy: value pins and derivative identity",
        passed,
        discrepancy=not c_claim,
        detail="the printed formula reproduces its pinned values but its t4-derivative is +d4; "
        "the integrated evaluator satisfies dF/dt4 = -d4 and the general-t2 gaussian limit",
        lines=lines,
    )


def check_criticality() -> CheckResult:
    exp = closedform.susceptibility_expansion(1, 4)
    lines = []
    c0 = exp.coefficient(0)
    c12 = exp.coefficient(Fraction(1, 2))
    c1 = exp.coefficient(1)
    c32 = exp.coefficient(Fraction(3, 2))
    ok = (
        c0 == SurdScalar.rational(1, 2)
        and c12 == SurdScalar(0, -4, 2)
        and c1 == SurdScalar.rational(24, 2)
        and c32 == SurdScalar(0, -64, 2)
        and exp.gamma == Fraction(1, 2)
        and abs(c12.to_float() + 4 * math.sqrt(2)) < 1e-10 * 4 * math.sqrt(2)
    )
    lines.append(f"terms: 1, -4*sqrt2, 24, -64*sqrt2 -> got {[repr(c) for _, c in exp.terms]}")
    lines.append(f"gamma = {exp.gamma}; 3/2-term magnitude 64*sqrt2 with derived (negative) sign")
    return CheckResult("7 criticality: susceptibility expansion", ok, lines=lines)


def check_rescaling() -> CheckResult:
    grid = [
        CouplingPoint(2, 16),
        CouplingPoint(1, 16),
        CouplingPoint(Fraction(1, 2), 81),
        CouplingPoint(3, Fraction(1, 16)),
        CouplingPoint(1, 5),
    ]
    worst = 0.0
    for p in grid:
        for ell in (2, 4, 6):
            lhs = closedform.dirac_moment(ell, p)
            rhs = closedform.rescale_dirac(ell, p)
            rhs_f = rhs if isinstance(rhs, float) else rhs.to_float()
            rel = abs(lhs.to_float() - rhs_f) / abs(lhs.to_float())
            worst = max(worst, rel)
    ok = worst < 1e-12
    return CheckResult(
        "8 quartic-coupling rescaling identity",
        ok,
        detail=f"worst relative deviation {worst:.2e} over 5-point grid, ell in (2,4,6)",
    )


def check_monte_carlo() -> CheckResult:
    from . import montecarlo

    p = CouplingPoint(1, 1)
    scan = montecarlo.signature_scan(p)
    lines = []
    ok = True
    target = 1 / 16
    ests = {sig: data["m2"] for sig, data in scan.items()}
    for sig, data in scan.items():
        m2 = data["m2"]
        rel = abs(m2.mean - target) / target
        good = rel < 0.05
        ok &= good
        lines.append(
            f"{sig}: m2 = {m2.mean:.5f} +/- {m2.std_error:.5f} "
            f"({data['proposals']} proposals, acc {data['acceptance']:.2f}, rel dev {rel:.2%}): {'ok' if good else 'FAIL'}"
        )
    sigs = list(ests)
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            a, b = ests[sigs[i]], ests[sigs[j]]
            gap = abs(a.mean - b.mean)
            bound = 3 * math.hypot(a.std_error, b.std_error)
            good = gap <= bound
            ok &= good
            lines.append(f"{sigs[i]} vs {sigs[j]}: |diff| {gap:.2e} <= 3se {bound:.2e}: {'ok' if good else 'FAIL'}")
    abab_zero = True
    for sig, data in scan.items():
        est = data["abab"]
        zero_ok = est.agrees_with(0.0)
        abab_zero &= zero_ok
        lines.append(
            f"{sig}: (1/N) tr(ABAB) = {est.mean:.2e} +/- {est.std_error:.2e} "
            f"(consistent with 0 at 3 sigma: {zero_ok})"
        )
    dist, nks = montecarlo.n1_marginal_ks(p, samples=100_000, seed=11)
    ks_ok = dist < 0.02
    ok &= ks_ok
    lines.append(f"N=1 marginal KS distance {dist:.4f} on {nks} samples (< 0.02): {'ok' if ks_ok else 'FAIL'}")
    detail = (
        "" if abab_zero else
        "the alternating-word average sits significantly above zero: the exact finite-size "
        "genus-one contribution ~ 1/(64 N^2) plus the positive leading-order coefficient found "
        "by both exact oracles"
    )
    return CheckResult(
        "9 Monte Carlo: statistical checks at N=10",
        ok,
        discrepancy=not abab_zero,
        detail=detail,
        lines=lines,
    )


def run_all(include_monte_carlo: bool = False) -> list[CheckResult]:
    checks = [
        check_exact_moments(),
        check_system_structure(),
        check_exact_residuals(),
        check_oracle_triangle(),
        check_map_agreement(),
        check_free_energy(),
        check_criticality(),
        check_rescaling(),
    ]
    if include_monte_carlo:
        checks.append(check_monte_carlo())
    return checks


def report_passed(report, strict: bool = False) -> bool:
    if strict:
        return all(r.passed and not r.discrepancy for r in report)
    return all(r.passed for r in report)


def format_report(report) -> str:
    out = []
    for r in report:
        if r.passed and not r.discrepancy:
            status = "PASS"
        elif r.passed:
            status = "PASS*"
        else:
            status = "FAIL"
        out.append(f"[{status}] {r.name}")
        if r.detail:
            out.append(f"        {r.detail}")
        for line in r.lines:
            out.append(f"        - {line}")
    if any(r.discrepancy for r in report):
        out.append("")
        out.append("PASS* = behaves as documented, but a published expectation does not hold;")
        out.append("        see README 'Two solutions, one system' and the notes therein.")
    return "\n".join(out)
