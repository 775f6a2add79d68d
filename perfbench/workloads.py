"""The benchmark's workloads: what one round runs, and what its set-up builds.

A round is one fresh interpreter running every job of a workload.  Jobs go
through the same entry points a user calls: the ``lietorsion`` CLI (run in
process, its JSON captured) or the public Python functions.  Only ``report``
reads the workload seed; the other workloads are deterministic, so their
inputs are the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json


def _cli(argv):
    return {"kind": "cli", "argv": argv}


def _theorem(p, d):
    return {"kind": "theorem", "prime": p, "degree": d}


def _metabelian(p, d):
    return {"kind": "metabelian", "prime": p, "degree": d}


def jobs(workload, seed):
    """The job list of one round; every job's answer is checked."""
    if workload == "report":
        return [_cli(["report", "--seed", str(seed)])]
    if workload == "sweep":
        return [_cli(["torsion", "--prime", "3", "--max-degree", "15"]),
                _cli(["torsion", "--prime", "5", "--max-degree", "15"])]
    if workload == "theorem":
        return [_theorem(2, 18), _theorem(3, 14),
                _metabelian(3, 14), _metabelian(7, 16), _metabelian(2, 16)]
    if workload == "highp":
        return [_cli(["torsion", "--prime", "11", "--max-degree", "22"]),
                _cli(["summand", "--prime", "3", "--dim", "10"])]
    raise KeyError(workload)


WORKLOADS = ("report", "sweep", "theorem", "highp")


def setup_objects(workload, seed):
    """(kind, args) of the engines and PBW bases the workload's jobs build."""
    out = []
    for job in jobs(workload, seed):
        if job["kind"] in ("theorem", "metabelian"):
            out.append(("engine", (job["prime"], max(job["degree"], 2 * job["prime"]))))
        elif job["argv"][0] == "torsion":
            out.append(("engine", (int(job["argv"][2]), int(job["argv"][4]))))
        elif job["argv"][0] == "summand":
            out.append(("pbw", (int(job["argv"][2]), int(job["argv"][4]))))
    return out


def build(objects):
    """Construct the set-up objects; called to time set-up, results discarded."""
    import lietorsion
    for kind, args in objects:
        if kind == "engine":
            lietorsion.TorsionEngine(*args)
        else:
            lietorsion.PBWBasis(*args)


def run_job(job):
    """Run one job and return its raw result; conversion happens untimed."""
    import lietorsion
    from lietorsion import cli
    if job["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(job["argv"]))
        return code, out.getvalue()
    if job["kind"] == "theorem":
        return lietorsion.verify_theorem_degree(job["prime"], job["degree"])
    return lietorsion.metabelian_torsion_check(job["prime"], job["degree"])


def answer(job, raw):
    """The JSON form of a job's result, the checker's input."""
    if job["kind"] == "cli":
        code, text = raw
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        return dict(job, exit=code, doc=doc)
    r = raw
    if job["kind"] == "theorem":
        return dict(job, liePowerRank=r.lie_power_rank, freeRank=r.cokernel.free_rank,
                    torsion=list(r.cokernel.torsion),
                    theorem={"count": r.theorem_count, "allOrderP": r.all_order_p,
                             "independent": r.independent, "spanning": r.spanning,
                             "torsionAllP": r.torsion_all_p,
                             "integrality": r.integrality_passed,
                             "checked": r.theorem_checked, "passed": r.passed})
    return dict(job, lieTorsion=list(r.lie_torsion), metabelianTorsion=list(r.metabelian_torsion),
                ranksAgree=r.ranks_agree, thetaMatches=r.theta_matches, units=list(r.units),
                passed=r.passed)
