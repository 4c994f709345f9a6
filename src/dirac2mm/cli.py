"""Command-line front end.

Verbs map one-to-one onto module operations; exact values are always
printed next to their decimal rendering, and JSON/CSV are the interchange
formats for anything plot-shaped.  Exit codes: 0 success, 1 argument or
domain error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from .algebra import CouplingPoint, SurdScalar, exact_int, rat
from .words import canonicalize, parse_moment_label, word_letters
from . import closedform, mapenum, montecarlo, solver, verification
from .sde import generate_equation, generate_system


def _point(args) -> CouplingPoint:
    return CouplingPoint(rat(args.t2), rat(args.t4))


def _print_surd(label, value):
    print(f"{label} = {value!r} = {value.to_float():.12g}")


def cmd_moments(args) -> int:
    point = _point(args)
    if args.all:
        # every row is built before any is written, so a decimal outside the
        # float range leaves stdout empty
        csv.writer(sys.stdout).writerows(list(closedform.moment_table_rows(point)))
        return 0
    c = parse_moment_label(args.index)
    _print_surd(c.label(), closedform.moment(c, point))
    return 0


def cmd_dirac(args) -> int:
    point = _point(args)
    _print_surd(f"d_{args.ell}", closedform.dirac_moment(args.ell, point))
    _print_surd(f"d_{args.ell} (from word moments)", closedform.dirac_from_words(args.ell, point))
    return 0


def cmd_free_energy(args) -> int:
    point = _point(args)
    print(f"as-printed formula: {closedform.free_energy(point):.12f}")
    print(f"consistent (dF/dt4 = -d4): {closedform.free_energy_consistent(point):.12f}")
    print(f"gaussian baseline at t2: {closedform.gaussian_free_energy(rat(args.t2)):.12f}")
    return 0


def cmd_sde(args) -> int:
    if args.word is not None:
        eqs = [generate_equation(args.word)]
    else:
        eqs = generate_system(args.max_degree)
    if args.format == "json":
        print(json.dumps([eq.as_json() for eq in eqs], indent=2))
    else:
        for eq in eqs:
            line = eq.render_latex() if args.format == "latex" else eq.render_text()
            prefix = f"{eq.source_word}: " if args.word is None else ""
            print(prefix + line)
    return 0


def cmd_series(args) -> int:
    table = solver.solve_series(args.degree, args.order, rat(args.t2))
    if args.format == "json":
        print(json.dumps(table.as_json(), indent=2))
    else:
        writer = csv.writer(sys.stdout)
        for row in table.csv_rows():
            writer.writerow(row)
    return 0


def cmd_enumerate(args) -> int:
    w = word_letters(args.word)
    if args.all_maps and not args.dump:
        raise ValueError("--all-maps only applies to --dump")
    if args.report_cancellation:
        if args.t2 is not None:
            raise ValueError("--t2 does not apply to --report-cancellation: the census sums cell weights with no propagator")
        exact_int(args.order, "order k", 0)   # a bad order is named before a bad word
        if canonicalize(w) != canonicalize("ABAB"):
            raise ValueError(f"--report-cancellation counts the gluings of ABAB only, got {args.word!r}")
        rep = mapenum.cancellation_report(args.order)
        print(json.dumps({
            "k": rep.k,
            "positive_weight_count": rep.positive_weight_count,
            "negative_weight_count": rep.negative_weight_count,
            "signed_cell_weight_sum": str(rep.signed_sum),
            "every_planar_map_has_distinguished_cell": rep.all_have_distinguished_cell,
            "signed_sum_cancels": rep.paired,
        }, indent=2))
        return 0
    coeff = mapenum.moment_coefficient(w, args.order, rat(1 if args.t2 is None else args.t2))
    print(f"[t4^{args.order}] {canonicalize(w).label()} = {coeff} = {float(coeff):.12g}")
    if args.dump:
        print(mapenum.dump_maps_json(mapenum._gluings(w, args.order, planar=not args.all_maps)))
    return 0


def cmd_mc(args) -> int:
    point = _point(args)
    cfg = montecarlo.SamplerConfig(
        n=args.n,
        point=point,
        signature=closedform.Signature.parse(args.signature),
        steps=args.steps,
        burn_in=args.burn_in,
        thinning=args.thinning,
        seed=args.seed,
        chains=args.chains,
    )
    # open the trace before the chain runs, so a bad path fails at once
    trace = open(args.trace, "w", newline="") if args.trace else contextlib.nullcontext()
    with trace as fh:
        result = montecarlo.run_chain(cfg)
        if fh:
            csv.writer(fh).writerows(montecarlo.trace_rows(result))
    summary = {
        "config": {
            "n": cfg.n, "signature": str(cfg.signature), "steps": cfg.steps,
            "chains": cfg.chains, "proposals": cfg.proposals, "seed": cfg.seed,
            "t2": str(point.t2), "t4": str(point.t4),
        },
        "acceptance": float(result.acceptance.mean()),
        "healthy": result.healthy,
        "estimates": {
            "m2": montecarlo.estimate_moment(result, "AA").as_json(),
            "m4": montecarlo.estimate_moment(result, "AAAA").as_json(),
            "m22": montecarlo.estimate_moment(result, "AABB").as_json(),
            "abab": montecarlo.estimate_moment(result, "ABAB").as_json(),
            "d2": montecarlo.estimate_dirac(result, 2).as_json(),
        },
    }
    print(json.dumps(summary, indent=2))
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def cmd_critical(args) -> int:
    # every line is built before any is printed, so a decimal outside the
    # float range leaves stdout empty
    t2 = rat(args.t2)
    tc = closedform.critical_point(t2)
    exp = closedform.susceptibility_expansion(t2, args.terms)
    lines = [
        f"critical quartic coupling: {tc} = {SurdScalar.rational(tc, 0).to_float():.10g}",
        f"string susceptibility exponent gamma = {exp.gamma}",
    ]
    lines += [f"  (t4 - tc)^{str(e):>4}: {c!r} = {c.to_float():+.10g}" for e, c in exp.terms]
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    report = verification.run_all(include_monte_carlo=args.with_monte_carlo)
    print(verification.format_report(report))
    return 0 if verification.report_passed(report, strict=args.strict) else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirac2mm",
        description="Quartic bi-tracial 2-matrix ensembles: exact moments, loop "
        "equations, map enumeration, criticality, Monte Carlo.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("moments", help="closed-form moment values")
    p.add_argument("--t2", required=True)
    p.add_argument("--t4", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--index", help="moment index, e.g. 2 or 3,1,1,1 or m_{2,2} or a word AABB")
    g.add_argument("--all", action="store_true", help="CSV table of all tabulated moments")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("dirac", help="closed-form Dirac moments d_ell")
    p.add_argument("--ell", type=int, required=True, choices=closedform.DIRAC_INDICES)
    p.add_argument("--t2", required=True)
    p.add_argument("--t4", required=True)
    p.set_defaults(func=cmd_dirac)

    p = sub.add_parser("free-energy", help="planar free energy evaluators")
    p.add_argument("--t2", required=True)
    p.add_argument("--t4", required=True, help="quartic coupling; a negative one needs --t4=-1/16")
    p.set_defaults(func=cmd_free_energy)

    p = sub.add_parser("sde", help="loop equations")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word", help="one equation, from this word")
    g.add_argument("--max-degree", type=int, dest="max_degree", help="deduplicated system")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(func=cmd_sde)

    p = sub.add_parser("series", help="perturbative moment series")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t2", default="1")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("enumerate", help="map-gluing enumeration")
    p.add_argument("--word", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t2", help="quadratic coupling of the coefficient (default 1)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--report-cancellation", action="store_true", dest="report_cancellation",
                   help="signed census of the planar gluings of ABAB")
    g.add_argument("--dump", action="store_true", help="JSON dump of the planar gluings")
    p.add_argument("--all-maps", action="store_true", dest="all_maps",
                   help="with --dump, dump non-planar gluings too")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mc", help="Metropolis sampler")
    p.add_argument("--t2", default="1")
    p.add_argument("--t4", default="1")
    p.add_argument("--signature", default="2,0")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=20_000, dest="burn_in")
    p.add_argument("--thinning", type=int, default=50)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--chains", type=int, default=8)
    p.add_argument("--trace", help="write a CSV trace of chain 0 to this path")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("critical", help="critical coupling and susceptibility expansion")
    p.add_argument("--t2", default="1")
    p.add_argument("--terms", type=int, default=4)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("verify", help="run the exact verification suite")
    p.add_argument("--with-monte-carlo", action="store_true", dest="with_monte_carlo",
                   help="include the long statistical checks")
    p.add_argument("--strict", action="store_true",
                   help="count documented discrepancies as failures")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
