"""Command line driver: verification subcommands with JSON report emission.

Exit status: 0 when every verification flag in the report is true, 1 when any
is false, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from math import factorial

from . import __version__
from .charp import check_summand
from .elements import IntegralityError, is_prime, normal_form
from .exprs import ParseError, format_leftnormed, format_lie
from .maps import (check_exactness, derive, eta, lam, mu, nu, random_action,
                   random_homogeneous, random_metabelian, rho, theta,
                   metabelian_of_word, normal_words)
from .torsion import TorsionEngine
from .words import MAX_UNIT_RANK, unit_alphabet


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lietorsion",
        description="exact free-Lie-ring computations and torsion verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lyndon = sub.add_parser("lyndon", help="list Lyndon words over a unit-weight alphabet")
    p_lyndon.add_argument("--rank", type=int, default=2)
    p_lyndon.add_argument("--max-degree", type=int, default=5)
    p_lyndon.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run the map identity suite at one degree")
    p_verify.add_argument("--c", type=int, default=3)
    p_verify.add_argument("--rank", type=int, default=2)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out")

    p_torsion = sub.add_parser("torsion", help="torsion of the central quotient, degree by degree")
    p_torsion.add_argument("--prime", type=int, required=True)
    p_torsion.add_argument("--max-degree", type=int, required=True)
    p_torsion.add_argument("--out")

    p_theorem = sub.add_parser("theorem", help="construct one torsion basis element")
    p_theorem.add_argument("--prime", type=int, required=True)
    p_theorem.add_argument("--s", type=int, default=0)
    p_theorem.add_argument("--t", type=int, default=0)
    p_theorem.add_argument("--out")

    p_summand = sub.add_parser("summand", help="characteristic-p tensor power decomposition")
    p_summand.add_argument("--prime", type=int, required=True)
    p_summand.add_argument("--dim", type=int, default=2)
    p_summand.add_argument("--out")

    p_report = sub.add_parser("report", help="run the full desk-scale verification battery")
    p_report.add_argument("--trials", type=int, default=100)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--out")
    return parser


# command -> (flag, least value, greatest value or None) triples; below the
# least a command fails or checks nothing, and a unit alphabet has at most
# MAX_UNIT_RANK letter names
BOUNDS = {
    "lyndon": (("rank", 1, MAX_UNIT_RANK), ("max_degree", 1, None)),
    "torsion": (("prime", 2, None),),
    "theorem": (("s", 0, None), ("t", 0, None)),
    "verify": (("c", 2, None), ("rank", 2, MAX_UNIT_RANK), ("trials", 1, None)),
    "summand": (("dim", 1, MAX_UNIT_RANK),),
    "report": (("trials", 1, None),),
}


def check_args(parser, args) -> None:
    """Reject argument values that argparse's types alone cannot; exits 2."""
    for flag, least, most in BOUNDS.get(args.command, ()):
        value = getattr(args, flag)
        name = flag.replace("_", "-")
        if value < least:
            parser.error(f"--{name} must be at least {least}, got {value}")
        if most is not None and value > most:
            parser.error(f"--{name} must be at most {most}, got {value}")
    if args.command == "torsion" and args.max_degree < 2 * args.prime:
        parser.error(f"--max-degree must be at least 2*prime = {2 * args.prime}, "
                     f"got {args.max_degree}")


# -- identity suite -----------------------------------------------------------

def identity_suite(c, rank, trials, seed) -> list[dict]:
    alphabet = unit_alphabet(rank)
    rng = random.Random(seed)
    echo = {"c": c, "rank": rank, "trials": trials, "seed": seed}

    wever = all(
        rho(nu(e)) == c * e
        for e in (random_homogeneous(alphabet, c, rng) for _ in range(trials)))

    mu_lambda = all(
        lam(mu(m), c) == c * m
        for m in (random_metabelian(alphabet, c, rng) for _ in range(trials)))

    # the theta composite can only be evaluated where the 1/c division is
    # exact; a violation is reported, not raised, so the suite stays usable
    fact = factorial(c - 2)
    theta_eta = True
    theta_note = None
    try:
        for w in normal_words(alphabet, c):
            m = metabelian_of_word(alphabet, w)
            if eta(theta(m)) != fact * m:
                theta_eta = False
        for _ in range(trials):
            m = random_metabelian(alphabet, c, rng)
            if eta(theta(m), c) != fact * m:
                theta_eta = False
    except IntegralityError as exc:
        theta_eta = False
        theta_note = str(exc)

    exact = check_exactness(c, alphabet, degree_cut=c)

    spec = random_action(alphabet, ("x", "y"), rng)
    equiv = True
    for _ in range(max(1, trials // 10)):
        e = random_homogeneous(alphabet, c, rng)
        m = random_metabelian(alphabet, c, rng)
        for var in ("x", "y"):
            if derive(nu(e), var, spec) != nu(derive(e, var, spec)):
                equiv = False
            if derive(eta(e, c), var, spec) != eta(derive(e, var, spec), c):
                equiv = False
            try:
                if derive(theta(m), var, spec) != theta(derive(m, var, spec)):
                    equiv = False
            except IntegralityError:
                pass  # theta undefined on this input; covered by theta-eta

    rows = [
        dict(identity="wever", **echo, **{"pass": wever}),
        dict(identity="mu-lambda", **echo, **{"pass": mu_lambda}),
        dict(identity="theta-eta", **echo, **{"pass": theta_eta}),
        dict(identity="exactness", **echo, **{"pass": exact.passed}),
        dict(identity="equivariance", **echo, **{"pass": equiv}),
    ]
    if theta_note:
        rows[2]["note"] = theta_note
    return rows


# -- subcommand drivers --------------------------------------------------------

def run_lyndon(args):
    from .words import lyndon_words
    alphabet = unit_alphabet(args.rank)
    words = lyndon_words(alphabet, args.max_degree)
    results = {
        "rank": args.rank,
        "maxDegree": args.max_degree,
        "count": len(words),
        "words": [{"word": repr(w), "weight": w.weight} for w in words],
    }
    return results, True


def run_verify(args):
    results = identity_suite(args.c, args.rank, args.trials, args.seed)
    return results, all(r["pass"] for r in results)


def run_torsion(args):
    p = args.prime
    composite = not is_prime(p)
    if composite:
        print("composite modulus: no theorem asserted", file=sys.stderr)
    engine = TorsionEngine(p, args.max_degree)
    degrees = []
    ok = True
    for report in engine.torsion_report(args.max_degree):
        entry = {
            "degree": report.degree,
            "liePowerRank": report.lie_power_rank,
            "freeRank": report.cokernel.free_rank,
            "torsion": list(report.cokernel.torsion),
        }
        if report.theorem_checked:
            entry["theorem"] = {
                "count": report.theorem_count,
                "allOrderP": report.all_order_p,
                "independent": report.independent,
                "spanning": report.spanning,
            }
            ok = ok and report.passed
        else:
            entry["theorem"] = None
        degrees.append(entry)
    return {"prime": p, "degrees": degrees}, ok


def run_theorem(args):
    p = args.prime
    if not is_prime(p):
        raise SystemExit2(f"--prime must be prime, got {p}")
    s, t = args.s, args.t
    engine = TorsionEngine(p, p * (s + t + 2) + 2)
    element = engine.theorem_element(s, t)
    alphabet = engine.alphabet
    letters = engine.theorem_word(s, t)
    tree = alphabet.generators[letters[0]]
    for i in letters[1:]:
        tree = (tree, alphabet.generators[i])
    left_normed = normal_form(alphabet, tree) == element
    text = format_leftnormed(alphabet, letters) if left_normed else format_lie(element)
    results = {
        "prime": p, "s": s, "t": t,
        "degree": p * (s + t + 2) + 2,
        "leftNormed": left_normed,
        "element": text,
    }
    return results, True


def run_summand(args):
    if not is_prime(args.prime):
        raise SystemExit2(f"--prime must be prime, got {args.prime}")
    r = check_summand(args.prime, args.dim)
    results = {
        "prime": r.p, "dim": r.dim,
        "dimTensor": r.dim_tensor,
        "dimW": r.dim_w,
        "dimKerAlpha": r.dim_ker_alpha,
        "dimImBeta": r.dim_im_beta,
        "dimSecondDerived": r.dim_bp,
        "sigmaDims": list(r.sigma_dims),
        "kernelIsW": r.kernel_is_w,
        "splitsTensor": r.splits_tensor,
        "summandsIndependent": r.summands_independent,
        "betaAlphaIdentity": r.beta_alpha_identity,
        "pass": r.passed,
    }
    return results, r.passed


def run_report(args):
    results = {}
    ok = True

    identities = []
    for c in (2, 3, 4, 5):
        for rank in (2, 3):
            identities.extend(identity_suite(c, rank, args.trials, args.seed))
    results["identities"] = identities
    ok = ok and all(r["pass"] for r in identities)

    torsion_sections = []
    for p, top in ((2, 10), (3, 11), (5, 12)):
        section, section_ok = run_torsion(argparse.Namespace(prime=p, max_degree=top))
        torsion_sections.append(section)
        ok = ok and section_ok
    results["torsion"] = torsion_sections

    prop33 = []
    for p, d in ((2, 6), (2, 8), (3, 8)):
        r = TorsionEngine(p, d).metabelian_torsion_check(d)
        prop33.append({
            "prime": p, "degree": d,
            "lieTorsion": list(r.lie_torsion),
            "metabelianTorsion": list(r.metabelian_torsion),
            "ranksAgree": r.ranks_agree,
            "thetaMatches": r.theta_matches,
            "pass": r.passed,
        })
        ok = ok and r.passed
    results["metabelianComparison"] = prop33

    freeness = []
    for p, top in ((2, 8), (3, 9), (5, 14)):
        r = TorsionEngine(p, top).bp_freeness_check(top)
        freeness.append({
            "prime": p, "maxDegree": top,
            "dimensions": [list(x) for x in r.dimensions],
            "allTorsionFree": r.all_torsion_free,
            "vacuous": not r.nonvacuous,
            "pass": r.passed,
        })
        ok = ok and r.passed
    results["secondDerivedFreeness"] = freeness

    summand = []
    for p, dim in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        section, section_ok = run_summand(argparse.Namespace(prime=p, dim=dim))
        summand.append(section)
        ok = ok and section_ok
    results["summand"] = summand
    return results, ok


# -- emission -----------------------------------------------------------------

class SystemExit2(RuntimeError):
    """Usage-level failure mapped to exit code 2."""


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (str, float)):
        return x
    if isinstance(x, int):
        return str(x) if abs(x) > 2**53 else x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def emit_report(doc, out=None) -> None:
    text = json.dumps(_jsonable(doc), indent=2)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SystemExit2(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


RUNNERS = {
    "lyndon": run_lyndon,
    "verify": run_verify,
    "torsion": run_torsion,
    "theorem": run_theorem,
    "summand": run_summand,
    "report": run_report,
}


def utc_timestamp() -> str:
    """The current UTC time as ISO 8601 text, YYYY-MM-DDTHH:MM:SS.ffffff+00:00,
    from ``time``: ``datetime`` costs the start-up of every call."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}+00:00"


def run(args) -> int:
    results, ok = RUNNERS[args.command](args)
    doc = {
        "toolVersion": __version__,
        "command": args.command,
        "timestamp": utc_timestamp(),
        "results": results,
        "overallPass": bool(ok),
    }
    emit_report(doc, getattr(args, "out", None))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        check_args(parser, args)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return run(args)
    except (SystemExit2, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
