"""Correctness checks on a round's answers, and a self-test of the checker.

Every torsion tuple is checked against the theorem's own prediction:
(Z/p)^(k+1) in degree d = p(k+2)+2 and nothing in other degrees.  The rank
of the degree-d Lie power of A for prime p is checked against Witt's count:
the words of p letters of total degree d number C(d-1, 2p-1), since A has
w-1 letters of degree w >= 2, and the Lyndon words are the non-constant ones
divided by p.  Free ranks, Lie-power ranks and the other dimensions are
checked against values recorded from the seed code in ``expected.json``.
Every pass flag must be true, except the one documented by-design failure of
``report``: the theta-eta row at c=4, rank 3, which makes it exit 1.
"""

from __future__ import annotations

import copy
import json
import os
from math import comb

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json"),
          encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

# the only false row of ``lietorsion report``; see the README's expected failures
REPORT_FALSE_ROWS = [("theta-eta", 4, 3)]


def predicted_torsion(p, d):
    """The theorem's torsion in degree d for prime p."""
    if d >= 2 * p + 2 and (d - 2) % p == 0:
        return [p] * ((d - 2) // p - 1)
    return []


def witt_rank(p, d):
    """Number of Lyndon words of prime length p and degree d over A."""
    constant = d // p - 1 if d % p == 0 else 0
    return (comb(d - 1, 2 * p - 1) - constant) // p


class Checker:
    """Counts checks and keeps a message for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def equal(self, got, want, where):
        self.expect(got == want, f"{where}: got {got!r}, expected {want!r}")

    def recorded(self, table, key, got, where):
        self.equal(got, EXPECTED[table].get(key), f"{where} vs recorded {table}")

    # -- one section of output each ---------------------------------------------

    def torsion_entry(self, p, e, where):
        d = e["degree"]
        where = f"{where} p={p} d={d}"
        self.equal(e["torsion"], predicted_torsion(p, d), f"{where} torsion")
        self.equal(e["liePowerRank"], witt_rank(p, d), f"{where} liePowerRank vs Witt")
        self.recorded("liePowerRank", f"{p},{d}", e["liePowerRank"], where)
        self.recorded("freeRank", f"{p},{d}", e["freeRank"], where)
        thm = e["theorem"]
        self.expect(thm is not None, f"{where}: theorem not checked")
        if thm is None:
            return
        self.equal(thm["count"], len(predicted_torsion(p, d)), f"{where} theorem count")
        for flag, value in thm.items():
            if flag != "count":
                self.equal(value, True, f"{where} {flag}")

    def torsion_table(self, doc, p, top, where):
        degrees = doc["degrees"]
        self.equal(doc["prime"], p, f"{where} prime")
        self.equal([e["degree"] for e in degrees], list(range(2 * p, top + 1)),
                   f"{where} degrees")
        for e in degrees:
            self.torsion_entry(p, e, where)

    def metabelian(self, r, where):
        p, d = r["prime"], r["degree"]
        where = f"{where} p={p} d={d}"
        want = predicted_torsion(p, d)
        self.equal(r["lieTorsion"], want, f"{where} lieTorsion")
        self.equal(r["metabelianTorsion"], want, f"{where} metabelianTorsion")
        if "units" in r:
            self.expect(len(r["units"]) == len(want) and all(0 < u < p for u in r["units"]),
                        f"{where}: units {r['units']!r}")
        for flag in ("ranksAgree", "thetaMatches"):
            self.equal(r[flag], True, f"{where} {flag}")
        self.equal(r["passed" if "passed" in r else "pass"], True, f"{where} pass")

    def summand(self, r, where):
        where = f"{where} p={r['prime']} dim={r['dim']}"
        dims = {k: v for k, v in r.items() if k.startswith("dim") or k == "sigmaDims"}
        self.recorded("summand", f"{r['prime']},{r['dim']}", dims, where)
        for k, v in r.items():
            if isinstance(v, bool):
                self.equal(v, True, f"{where} {k}")

    def freeness(self, r, where):
        where = f"{where} p={r['prime']} top={r['maxDegree']}"
        self.recorded("freeness", f"{r['prime']},{r['maxDegree']}", r["dimensions"], where)
        self.equal(r["allTorsionFree"], True, f"{where} allTorsionFree")
        self.equal(r["vacuous"], not any(n for _, n in r["dimensions"]), f"{where} vacuous")
        self.equal(r["pass"], True, f"{where} pass")

    def identities(self, rows, where):
        keys = [(r["identity"], r["c"], r["rank"]) for r in rows]
        self.equal(len(keys), 40, f"{where} identity rows")
        for key, r in zip(keys, rows):
            self.equal(r["pass"], key not in REPORT_FALSE_ROWS, f"{where} {key}")

    # -- one answer per job --------------------------------------------------------

    def answer(self, a):
        if a["kind"] == "theorem":
            p = a["prime"]
            self.torsion_entry(p, a, "verify_theorem_degree")
            return
        if a["kind"] == "metabelian":
            self.metabelian(a, "metabelian_torsion_check")
            return
        argv, doc = a["argv"], a["doc"]
        where = " ".join(argv)
        self.expect(doc is not None, f"{where}: no JSON document")
        if doc is None:
            return
        results = doc["results"]
        if argv[0] == "report":
            self.equal(a["exit"], 1, f"{where} exit code")
            self.equal(doc["overallPass"], False, f"{where} overallPass")
            self.identities(results["identities"], where)
            self.equal(len(results["torsion"]), 3, f"{where} torsion tables")
            for section, (p, top) in zip(results["torsion"], ((2, 10), (3, 11), (5, 12))):
                self.torsion_table(section, p, top, where)
            self.equal(len(results["metabelianComparison"]), 3, f"{where} comparisons")
            for r in results["metabelianComparison"]:
                self.metabelian(r, where)
            self.equal(len(results["secondDerivedFreeness"]), 3, f"{where} freeness checks")
            for r in results["secondDerivedFreeness"]:
                self.freeness(r, where)
            self.equal(len(results["summand"]), 6, f"{where} summand checks")
            for r in results["summand"]:
                self.summand(r, where)
            return
        self.equal(a["exit"], 0, f"{where} exit code")
        self.equal(doc["overallPass"], True, f"{where} overallPass")
        if argv[0] == "torsion":
            self.torsion_table(results, int(argv[2]), int(argv[4]), where)
        elif argv[0] == "summand":
            self.summand(results, where)
        else:
            self.expect(False, f"{where}: no check for this command")


def check_answers(jobs, answers):
    """Check a round's answers against its job list; returns the Checker."""
    checker = Checker()
    checker.equal([{k: a.get(k) for k in job} for job, a in zip(jobs, answers)]
                  if len(answers) == len(jobs) else answers, jobs, "answered jobs")
    for a in answers:
        try:
            checker.answer(a)
        except (KeyError, TypeError, IndexError) as exc:
            checker.expect(False, f"{a.get('argv') or a['kind']}: malformed answer ({exc!r})")
    return checker


def plant_fault(answers, torsion=True, flag=True):
    """A copy of answers with one torsion tuple made wrong and/or one true flag flipped."""
    planted = copy.deepcopy(answers)
    todo = {"torsion": torsion, "flag": flag}

    def visit(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if todo["torsion"] and key in ("torsion", "lieTorsion") \
                        and isinstance(value, list) and "degree" in node:
                    node[key] = value + [7]
                    todo["torsion"] = False
                elif todo["flag"] and value is True:
                    node[key] = False
                    todo["flag"] = False
                else:
                    visit(value)
        elif isinstance(node, list):
            for item in node:
                visit(item)

    visit(planted)
    return planted


def self_test(jobs, answers):
    """The checker must pass these answers and catch each planted fault in them.

    Returns a list of problems; empty when the checker works.
    """
    clean = len(check_answers(jobs, answers).failures)
    problems = [f"clean answers fail {clean} checks"] if clean else []
    for torsion, flag, what in ((True, False, "a wrong torsion tuple"),
                                (False, True, "a flipped pass flag")):
        planted = check_answers(jobs, plant_fault(answers, torsion, flag))
        if len(planted.failures) <= clean:
            problems.append(f"the checker missed {what}")
    return problems
