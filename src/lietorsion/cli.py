"""Command line driver: verification subcommands with JSON report emission.

``COMMANDS`` holds each command's help line and integer flags, with each
flag's default (``REQUIRED`` if it has none) and least and greatest value (None
for no bound; below the least a command fails or checks nothing). Parsing, the
range checks and the usage text all read it; every command also takes --out FILE.
Exit status: 0 when every verification flag in the report is true, 1 when any
is false, 2 on usage or I/O errors.
"""

from __future__ import annotations

import json
import sys
import time
from math import factorial
from types import SimpleNamespace

from . import __version__
from .charp import check_summand
from .elements import IntegralityError, is_prime, normal_form
from .exprs import format_leftnormed, format_lie
from .maps import (check_exactness, derive, eta, lam, mu, nu, random_action,
                   random_homogeneous, random_metabelian, rho, theta,
                   metabelian_of_word, normal_words)
from .torsion import TorsionEngine
from .words import MAX_UNIT_RANK, unit_alphabet


REQUIRED = None
COMMANDS = {
    "lyndon": ("list Lyndon words over a unit-weight alphabet",
               {"rank": (2, 1, MAX_UNIT_RANK), "max-degree": (5, 1, None)}),
    "verify": ("run the map identity suite at one degree",
               {"c": (3, 2, None), "rank": (2, 2, MAX_UNIT_RANK),
                "trials": (100, 1, None), "seed": (0, None, None)}),
    "torsion": ("torsion of the central quotient by degree, to --max-degree >= 2*prime",
                {"prime": (REQUIRED, 2, None), "max-degree": (REQUIRED, None, None)}),
    "theorem": ("construct one torsion basis element",
                {"prime": (REQUIRED, None, None), "s": (0, 0, None), "t": (0, 0, None)}),
    "summand": ("characteristic-p tensor power decomposition",
                {"prime": (REQUIRED, None, None), "dim": (2, 1, MAX_UNIT_RANK)}),
    "report": ("run the full desk-scale verification battery",
               {"trials": (100, 1, None), "seed": (0, None, None)}),
}


def usage(command=None) -> str:
    """The --help text: every command, or every flag of ``command``."""
    head = "usage: lietorsion %s [--FLAG VALUE ...] [--out FILE]"
    if command is None:
        return "\n".join([head % "COMMAND", "exact free-Lie-ring computations and torsion "
                          "verification; COMMAND --help lists its flags"]
                         + [f"  {name:<8} {text}" for name, (text, _) in COMMANDS.items()])
    lines = [head % command, COMMANDS[command][0]]
    for flag, (default, least, most) in COMMANDS[command][1].items():
        facts = ["required" if default is REQUIRED else f"default {default}"]
        facts += [f"{w} {b}" for w, b in (("at least", least), ("at most", most)) if b is not None]
        lines.append(f"  --{flag} N".ljust(20) + ", ".join(facts))
    return "\n".join(lines + ["  --out FILE".ljust(20) + "write the JSON report to FILE"])


def parse_args(argv):
    """The options ``argv`` gives its command (--flag value or --flag=value, by any
    unique prefix, the last one winning), or None once -h/--help printed usage."""
    command, *rest = argv or [None]
    if command in ("-h", "--help"):
        return print(usage())
    if command not in COMMANDS:
        raise SystemExit2(("missing command" if command is None else f"unknown command {command!r}")
                          + f"; choose one of {', '.join(COMMANDS)}")
    names = [f"--{flag}" for flag in (*COMMANDS[command][1], "out", "help")]
    values = {}
    tokens = iter(rest)
    for token in tokens:
        name, equals, value = ("--help" if token == "-h" else token).partition("=")
        matches = [n for n in names if n == name] or [n for n in names if n.startswith(name)]
        if not name.startswith("--") or len(matches) != 1:
            raise SystemExit2(f"unrecognized argument {token!r} for {command}")
        flag = matches[0][2:]
        if flag == "help":
            return print(usage(command))
        if not equals:
            value = next(tokens, "-")
            if value.startswith("-") and not value[1:].isdigit():
                raise SystemExit2(f"--{flag} expects a value")
        if flag != "out":
            try:
                value = int(value)
            except ValueError:
                raise SystemExit2(f"--{flag} takes an integer, got {value!r}") from None
        values[flag] = value
    return options(command, values)


def options(command, values):
    """``values``, a {flag: value} dict for ``command``, completed with the
    defaults in COMMANDS and range-checked; raises SystemExit2."""
    for flag, (default, least, most) in COMMANDS[command][1].items():
        value = values.setdefault(flag, default)
        if value is REQUIRED:
            raise SystemExit2(f"--{flag} is required")
        if least is not None and value < least:
            raise SystemExit2(f"--{flag} must be at least {least}, got {value}")
        if most is not None and value > most:
            raise SystemExit2(f"--{flag} must be at most {most}, got {value}")
    if command == "torsion" and values["max-degree"] < 2 * values["prime"]:
        raise SystemExit2(f"--max-degree must be at least 2*prime = {2 * values['prime']}, "
                          f"got {values['max-degree']}")
    values.setdefault("out", None)
    return SimpleNamespace(command=command, **{f.replace("-", "_"): v for f, v in values.items()})


# -- identity suite -----------------------------------------------------------

def _counted_all(checks) -> tuple[bool, int]:
    """all(checks), stopping at the first false one as all() does, and the
    number of checks it evaluated."""
    n = 0
    for ok in checks:
        n += 1
        if not ok:
            return False, n
    return True, n


def identity_suite(c, rank, trials, seed) -> list[dict]:
    """The identity rows at degree c over the rank-``rank`` unit alphabet.

    Each row's ``checked`` is the number of comparisons it made, and a row
    that made none does not pass.
    """
    import random   # only the identity rows draw samples; other commands skip the import
    alphabet = unit_alphabet(rank)
    rng = random.Random(seed)
    echo = {"c": c, "rank": rank, "trials": trials, "seed": seed}

    wever, wever_n = _counted_all(
        rho(nu(e)) == c * e
        for e in (random_homogeneous(alphabet, c, rng) for _ in range(trials)))

    mu_lambda, mu_lambda_n = _counted_all(
        lam(mu(m), c) == c * m
        for m in (random_metabelian(alphabet, c, rng) for _ in range(trials)))

    # the theta composite can only be evaluated where the 1/c division is
    # exact; a violation is reported, not raised, so the suite stays usable
    fact = factorial(c - 2)
    theta_eta = True
    theta_eta_n = 0
    theta_note = None
    try:
        for w in normal_words(alphabet, c):
            m = metabelian_of_word(alphabet, w)
            if eta(theta(m)) != fact * m:
                theta_eta = False
            theta_eta_n += 1
        for _ in range(trials):
            m = random_metabelian(alphabet, c, rng)
            if eta(theta(m), c) != fact * m:
                theta_eta = False
            theta_eta_n += 1
    except IntegralityError as exc:
        theta_eta = False
        theta_note = str(exc)

    exact = check_exactness(c, alphabet, degree_cut=c)
    exact_n = exact.rank_metabelian + exact.rank_mixed + exact.rank_sym

    spec = random_action(alphabet, ("x", "y"), rng)
    equiv = True
    equiv_n = 0
    for _ in range(max(1, trials // 10)):
        e = random_homogeneous(alphabet, c, rng)
        m = random_metabelian(alphabet, c, rng)
        for var in ("x", "y"):
            if derive(nu(e), var, spec) != nu(derive(e, var, spec)):
                equiv = False
            if derive(eta(e, c), var, spec) != eta(derive(e, var, spec), c):
                equiv = False
            equiv_n += 2
            try:
                if derive(theta(m), var, spec) != theta(derive(m, var, spec)):
                    equiv = False
            except IntegralityError:
                continue  # theta undefined on this input; covered by theta-eta
            equiv_n += 1

    rows = [dict(identity=name, **echo, checked=n, **{"pass": ok and n > 0})
            for name, ok, n in (("wever", wever, wever_n),
                                ("mu-lambda", mu_lambda, mu_lambda_n),
                                ("theta-eta", theta_eta, theta_eta_n),
                                ("exactness", exact.passed, exact_n),
                                ("equivariance", equiv, equiv_n))]
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
    if not is_prime(args.prime):
        print("composite modulus: no theorem asserted", file=sys.stderr)
    return _torsion_section(TorsionEngine(args.prime, args.max_degree), args.max_degree)


def _torsion_section(engine, top):
    """``run_torsion``'s results and pass flag for the engine's modulus from
    2p to degree ``top``."""
    degrees = []
    ok = True
    for report in engine.torsion_report(top):
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
    return {"prime": engine.p, "degrees": degrees}, ok


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
    """The identity suite, then the torsion, metabelian and freeness sections,
    one engine per prime at the top degree any of its sections reads: the
    letters u(s,t) are ordered by (degree, s), so a longer alphabet keeps
    every word's indices and each section's answer is that of its own
    engine.  The metabelian sections run before the torsion sweeps, so a
    sweep reads the Lie degrees they built instead of building them again
    after it has dropped them; the results keep the order above."""
    ok = True
    engines = {p: TorsionEngine(p, top) for p, top in ((2, 10), (3, 11), (5, 14))}

    identities = []
    for c in (2, 3, 4, 5):
        for rank in (2, 3):
            identities.extend(identity_suite(c, rank, args.trials, args.seed))
    ok = ok and all(r["pass"] for r in identities)

    prop33 = []
    for p, d in ((2, 6), (2, 8), (3, 8)):
        r = engines[p].metabelian_torsion_check(d)
        prop33.append({
            "prime": p, "degree": d,
            "lieTorsion": list(r.lie_torsion),
            "metabelianTorsion": list(r.metabelian_torsion),
            "ranksAgree": r.ranks_agree,
            "thetaMatches": r.theta_matches,
            "pass": r.passed,
        })
        ok = ok and r.passed

    torsion_sections = []
    for p, top in ((2, 10), (3, 11), (5, 12)):
        section, section_ok = _torsion_section(engines[p], top)
        torsion_sections.append(section)
        ok = ok and section_ok
    results = {"identities": identities, "torsion": torsion_sections,
               "metabelianComparison": prop33}

    freeness = []
    for p, top in ((2, 8), (3, 9), (5, 14)):
        r = engines[p].bp_freeness_check(top)
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
        section, section_ok = run_summand(options("summand", {"prime": p, "dim": dim}))
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
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    from fractions import Fraction
    if isinstance(x, Fraction):
        return str(x)
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
    emit_report(doc, args.out)
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return 0 if args is None else run(args)
    except SystemExit2 as exc:
        print(f"lietorsion: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
