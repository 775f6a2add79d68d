"""Expression grammar round-trips, subcommand runs, JSON schema, exit codes."""

import json
import pathlib
import random
import re
from datetime import datetime, timedelta, timezone

import pytest

from lietorsion import cli
from lietorsion.cli import emit_report, main
from lietorsion.exprs import (ParseError, format_lie, parse_expression,
                              parse_lie)
from lietorsion.elements import normal_form
from lietorsion.maps import random_homogeneous
from lietorsion.torsion import TorsionEngine, a_alphabet
from lietorsion.words import unit_alphabet

AB2 = unit_alphabet(2)


def test_parse_left_normed():
    x, y = AB2.generators
    e = parse_lie("[y,x,x]", AB2)
    assert e == normal_form(AB2, ((y, x), x))


def test_parse_agenerator():
    ab = a_alphabet(4)
    node = parse_expression("u(1,0)", ab)
    assert node.name == "u(1,0)"
    e = parse_lie("u(1,0)", ab)
    assert e.terms == {(ab.index("u(1,0)"),): 1}


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("[y,x")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("u(1,)", a_alphabet(3))
    with pytest.raises(ParseError) as err2:
        parse_expression("[q,x]", AB2)
    assert err2.value.position == 1
    with pytest.raises(ParseError):
        parse_expression("[x,y]]", AB2)


def test_parse_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_expression("2/0*x")
    assert err.value.position == 2
    assert parse_expression("2/1*x").scalar == 2


@pytest.mark.parametrize("text, position", [("[x,y]+", 6), ("2*", 2), ("[x,", 3),
                                            ("2/", 2), ("u(1,", 4)])
def test_parse_error_at_end_says_end_of_input(text, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.position == position
    assert "end of input" in str(err.value) and "None" not in str(err.value)


def test_parse_scalars_and_sums():
    x, y = AB2.generators
    e = parse_lie("2*[x,y] - [y,x]", AB2)
    assert e == 3 * normal_form(AB2, (x, y))
    half = parse_lie("1/2*[x,y] + 1/2*[x,y]", AB2, domain=__import__("lietorsion").QQ)
    assert half == normal_form(AB2, (x, y), domain=__import__("lietorsion").QQ)


def test_roundtrip_random_elements():
    rng = random.Random(51)
    for rank in (2, 3):
        ab = unit_alphabet(rank)
        for _ in range(30):
            e = random_homogeneous(ab, rng.randint(1, 5), rng)
            assert parse_lie(format_lie(e), ab) == e
    assert format_lie(normal_form(AB2, (AB2.generators[0], AB2.generators[0]))) == "0"


def test_roundtrip_on_derived_alphabet():
    ab = a_alphabet(6)
    rng = random.Random(52)
    for _ in range(20):
        e = random_homogeneous(ab, 2, rng, max_weight=8)
        assert parse_lie(format_lie(e), ab) == e


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_torsion_cli_schema(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "torsion", "--prime", "2", "--max-degree", "10",
                         "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["overallPass"] is True
    degrees = {e["degree"]: e for e in doc["results"]["degrees"]}
    assert degrees[6]["liePowerRank"] == 4
    assert degrees[6]["freeRank"] == 0
    assert degrees[6]["torsion"] == [2]
    assert degrees[6]["theorem"] == {"count": 1, "allOrderP": True,
                                     "independent": True, "spanning": True}
    assert degrees[8]["torsion"] == [2, 2]
    assert degrees[10]["torsion"] == [2, 2, 2]
    assert degrees[7]["torsion"] == []


def test_torsion_cli_at_a_large_prime(capsys):
    # the single degree 2p has the one-letter word u(0,0)^p, which is not
    # Lyndon; the word walk goes p letters deep without recursing
    code, out, _ = run_cli(capsys, "torsion", "--prime", "997", "--max-degree", "1994")
    assert code == 0
    doc = json.loads(out)
    assert doc["overallPass"] is True
    [entry] = doc["results"]["degrees"]
    assert (entry["degree"], entry["liePowerRank"], entry["torsion"]) == (1994, 0, [])


def test_theorem_cli_prints_left_normed(capsys):
    code, out, _ = run_cli(capsys, "theorem", "--prime", "3", "--s", "0", "--t", "0")
    assert code == 0
    assert "[u(0,1),u(1,0),u(0,0)]" in out
    doc = json.loads(out)
    assert doc["results"]["leftNormed"] is True
    assert doc["results"]["degree"] == 8


def test_theorem_cli_p5_falls_back_to_basis_form(capsys):
    code, out, _ = run_cli(capsys, "theorem", "--prime", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["leftNormed"] is False
    ab = a_alphabet(4)
    from lietorsion.torsion import theorem_element
    assert parse_lie(doc["results"]["element"], ab) == theorem_element(5, 0, 0)


def test_composite_modulus_banner(capsys):
    code, out, err = run_cli(capsys, "torsion", "--prime", "4", "--max-degree", "8")
    assert code == 0
    assert "composite modulus: no theorem asserted" in err
    doc = json.loads(out)
    assert all(e["theorem"] is None for e in doc["results"]["degrees"])


def test_usage_errors_exit_2(capsys):
    assert main(["torsion"]) == 2                       # missing required flags
    assert main(["nonsense"]) == 2
    code, _, err = run_cli(capsys, "theorem", "--prime", "6")
    assert code == 2 and "prime" in err


COMMAND_FLAGS = {
    "lyndon": ("--rank", "--max-degree", "--out"),
    "verify": ("--c", "--rank", "--trials", "--seed", "--out"),
    "torsion": ("--prime", "--max-degree", "--out"),
    "theorem": ("--prime", "--s", "--t", "--out"),
    "summand": ("--prime", "--dim", "--out"),
    "report": ("--trials", "--seed", "--out"),
}


@pytest.mark.parametrize("form", [["--max-degree=5"], ["--max", "5"], ["--max=5"]],
                         ids=["equals", "prefix", "prefix-equals"])
def test_flag_forms(capsys, form):
    code, out, _ = run_cli(capsys, "lyndon", "--rank", "2", *form)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["maxDegree"] == 5 and doc["results"]["count"] == 14


@pytest.mark.parametrize("argv, named", [
    ([], "command"),
    (["lyndon", "--bogus", "3"], "--bogus"),
    (["lyndon", "--rank", "two"], "--rank"),
    (["torsion", "--prime", "3", "--max-degree", "1.5"], "--max-degree"),
    (["lyndon", "--rank"], "--rank"),
    (["lyndon", "stray"], "stray"),
    (["lyndon", "--out", "--rank", "3"], "--out"),
    (["nonsense"], "nonsense"),
], ids=["no-command", "unknown-flag", "non-integer", "non-integer-degree",
        "missing-value", "stray-argument", "flag-as-value", "unknown-command"])
def test_malformed_arguments_exit_2(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "error:" in err and named in err and "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("lietorsion: error: ")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help(capsys, flag):
    code, out, err = run_cli(capsys, flag)
    assert code == 0 and err == ""
    assert all(command in out for command in COMMAND_FLAGS)


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_command_help(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag)
    assert code == 0 and err == ""
    assert all(name in out for name in COMMAND_FLAGS[command])


def test_command_table_matches_runners_and_help():
    assert set(cli.COMMANDS) == set(cli.RUNNERS)
    for command, (_, flags) in cli.COMMANDS.items():
        assert set(COMMAND_FLAGS[command]) == {f"--{flag}" for flag in flags} | {"--out"}


# a valid value for each flag a command requires
REQUIRED_VALUES = {"prime": "3", "max-degree": "6"}


def table_bound_cases():
    for command, (_, flags) in cli.COMMANDS.items():
        for flag, (_, least, most) in flags.items():
            given = {f: REQUIRED_VALUES[f] for f, spec in flags.items()
                     if spec[0] is cli.REQUIRED and f != flag}
            for value, words in ((least, "at least"), (most, "at most")):
                if value is None:
                    continue
                bad = value - 1 if words == "at least" else value + 1
                argv = [command, f"--{flag}", str(bad)]
                for f, v in given.items():
                    argv += [f"--{f}", v]
                yield pytest.param(argv, f"--{flag} must be {words} {value}, got {bad}",
                                   id=f"{command}-{flag}-{bad}")


@pytest.mark.parametrize("argv, message", list(table_bound_cases()))
def test_every_table_bound_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"lietorsion: error: {message}\n"


def test_repeated_flag_last_wins(capsys):
    code, out, _ = run_cli(capsys, "verify", "--c", "2", "--trials", "5",
                           "--seed", "1", "--seed", "9")
    assert code == 0
    assert {r["seed"] for r in json.loads(out)["results"]} == {9}


def test_negative_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--c", "2", "--trials", "5", "--seed", "-3")
    assert code == 0
    assert {r["seed"] for r in json.loads(out)["results"]} == {-3}


@pytest.mark.parametrize("argv", [
    ["--prime", "1", "--max-degree", "5"],
    ["--prime", "0", "--max-degree", "5"],
    ["--prime", "3", "--max-degree", "-5"],
], ids=["prime-1", "prime-0", "negative-degree"])
def test_torsion_out_of_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "torsion", *argv)
    assert code == 2 and out == ""
    assert "must be at least" in err


@pytest.mark.parametrize("argv", [
    ["theorem", "--prime", "3", "--s", "-1"],
    ["theorem", "--prime", "3", "--t", "-2"],
    ["verify", "--c", "1"],
    ["verify", "--rank", "1"],
    ["verify", "--rank", "0"],
    ["verify", "--trials", "0"],
    ["summand", "--prime", "3", "--dim", "0"],
    ["report", "--trials", "0"],
    ["lyndon", "--rank", "-1"],
    ["lyndon", "--rank", "0"],
    ["lyndon", "--max-degree", "0"],
], ids=["theorem-s", "theorem-t", "verify-c", "verify-rank-1", "verify-rank-0",
        "verify-trials", "summand-dim", "report-trials", "lyndon-rank-negative",
        "lyndon-rank-0", "lyndon-degree-0"])
def test_out_of_range_exit_2(capsys, argv):
    # each of these failed with a traceback or passed after checking nothing
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be at least" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["lyndon", "--rank", "27"],
    ["verify", "--rank", "27"],
    ["summand", "--prime", "2", "--dim", "27"],
], ids=["lyndon-rank-27", "verify-rank-27", "summand-dim-27"])
def test_above_range_exit_2(capsys, argv):
    # a unit alphabet has 26 letter names: lyndon listed 26 words with exit 0,
    # summand ended in a KeyError traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be at most 26" in err and "Traceback" not in err


def test_lyndon_cli_rank_26(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "--rank", "26", "--max-degree", "1")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 26


def test_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--c", "3", "--rank", "2",
                           "--trials", "25", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    names = [r["identity"] for r in doc["results"]]
    assert names == ["wever", "mu-lambda", "theta-eta", "exactness", "equivariance"]
    assert all(r["pass"] for r in doc["results"])
    assert doc["results"][0]["seed"] == 9 and doc["results"][0]["trials"] == 25


def test_verify_cli_reports_integrality_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--c", "4", "--rank", "3",
                           "--trials", "10", "--seed", "1")
    assert code == 1
    doc = json.loads(out)
    rows = {r["identity"]: r for r in doc["results"]}
    assert rows["wever"]["pass"] and rows["mu-lambda"]["pass"]
    assert rows["theta-eta"]["pass"] is False
    assert "integrality" in rows["theta-eta"]["note"]
    assert doc["overallPass"] is False


def test_verify_rows_report_what_they_checked(capsys):
    code, out, _ = run_cli(capsys, "verify", "--c", "4", "--rank", "3")
    assert code == 1
    rows = {r["identity"]: r for r in json.loads(out)["results"]}
    assert rows["wever"]["checked"] == rows["mu-lambda"]["checked"] == 100
    # at c = 4 over three letters: 15 normal words, 3 x 10 mixed keys and
    # 15 multisets
    assert rows["exactness"]["checked"] == 60
    # theta-eta stops at the first division by 4 that is not exact (seed 0)
    assert rows["theta-eta"]["checked"] == 2 and rows["theta-eta"]["pass"] is False
    # two comparisons per sample and variable, plus each theta pair that is
    # defined: 10 samples x 2 variables x 2, and 5 theta pairs (seed 0)
    assert rows["equivariance"]["checked"] == 45 and rows["equivariance"]["pass"]


def test_a_row_that_checked_nothing_does_not_pass():
    rows = {r["identity"]: r for r in cli.identity_suite(3, 2, 0, 0)}
    for name in ("wever", "mu-lambda"):
        assert rows[name]["checked"] == 0 and rows[name]["pass"] is False
    assert rows["exactness"]["checked"] > 0 and rows["exactness"]["pass"]


def test_determinism_minus_timestamp(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--c", "2", "--rank", "2",
                               "--trials", "10", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=False))
    assert docs[0] == docs[1]


def test_timestamp_is_iso_utc_with_microseconds(capsys, monkeypatch):
    before = datetime.now(timezone.utc)
    stamp = cli.utc_timestamp()
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", stamp), stamp
    assert before - timedelta(seconds=1) <= datetime.fromisoformat(stamp) <= after
    # a whole second still carries its six zero digits
    monkeypatch.setattr(cli.time, "time_ns", lambda: 86_400 * 10**9)
    assert cli.utc_timestamp() == "1970-01-02T00:00:00.000000+00:00"
    code, out, _ = run_cli(capsys, "lyndon", "--rank", "2", "--max-degree", "2")
    assert code == 0 and json.loads(out)["timestamp"] == "1970-01-02T00:00:00.000000+00:00"


def test_lyndon_cli(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "--rank", "2", "--max-degree", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 14
    assert {"word": "xy", "weight": 2} in doc["results"]["words"]


def test_summand_cli(capsys):
    code, out, _ = run_cli(capsys, "summand", "--prime", "5", "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    r = doc["results"]
    assert r["dimW"] == 22 and r["dimSecondDerived"] == 2 and r["pass"]


def test_emit_report_stringifies_large_integers(tmp_path):
    doc = {"big": 2 ** 70, "small": 7, "nested": [{"v": -(2 ** 60)}], "flag": True}
    out = tmp_path / "big.json"
    emit_report(doc, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["big"] == str(2 ** 70)
    assert loaded["small"] == 7
    assert loaded["nested"][0]["v"] == str(-(2 ** 60))
    assert loaded["flag"] is True


def test_emit_report_io_error_exit_2(capsys):
    code = main(["lyndon", "--rank", "2", "--max-degree", "3",
                 "--out", "/nonexistent-dir/x.json"])
    assert code == 2


def test_report_battery(tmp_path, capsys):
    out = tmp_path / "battery.json"
    code, _, _ = run_cli(capsys, "report", "--trials", "20", "--seed", "0",
                         "--out", str(out))
    doc = json.loads(out.read_text())
    assert set(doc["results"]) == {"identities", "torsion", "metabelianComparison",
                                   "secondDerivedFreeness", "summand"}
    failing = [(r["identity"], r["c"], r["rank"])
               for r in doc["results"]["identities"] if not r["pass"]]
    # the only false flag is the composite-degree integrality case
    assert failing == [("theta-eta", 4, 3)]
    assert code == 1 and doc["overallPass"] is False
    assert all(s["pass"] for s in doc["results"]["summand"])
    assert all(s["pass"] for s in doc["results"]["secondDerivedFreeness"])


# -- golden reports: the JSON, minus its timestamp, is pinned byte for byte

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv, code", [
    ("report-trials20-seed0", ["report", "--trials", "20", "--seed", "0"], 1),
    ("report-trials20-seed3", ["report", "--trials", "20", "--seed", "3"], 1),
    ("verify-c4-rank3-seed0", ["verify", "--c", "4", "--rank", "3", "--seed", "0"], 1),
    ("verify-c4-rank3-seed1", ["verify", "--c", "4", "--rank", "3", "--seed", "1"], 1),
    ("verify-c5-rank3-seed1", ["verify", "--c", "5", "--rank", "3", "--seed", "1"], 0),
    ("torsion-p3-d14", ["torsion", "--prime", "3", "--max-degree", "14"], 0),
    ("torsion-p4-d12", ["torsion", "--prime", "4", "--max-degree", "12"], 0),
    ("theorem-p5-s1-t0", ["theorem", "--prime", "5", "--s", "1", "--t", "0"], 0),
    ("summand-p3-dim3", ["summand", "--prime", "3", "--dim", "3"], 0),
    ("lyndon-rank3-d5", ["lyndon", "--rank", "3", "--max-degree", "5"], 0),
])
def test_golden_reports(capsys, name, argv, code):
    got, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    doc.pop("timestamp")
    assert got == code
    assert json.dumps(doc, indent=2) + "\n" == (GOLDEN / f"{name}.json").read_text()


def test_report_sections_match_a_fresh_engine_each():
    results, _ = cli.run_report(cli.options("report", {"trials": 1, "seed": 0}))
    torsion = [cli.run_torsion(cli.options("torsion", {"prime": p, "max-degree": top}))[0]
               for p, top in ((2, 10), (3, 11), (5, 12))]
    metabelian = []
    for p, d in ((2, 6), (2, 8), (3, 8)):
        r = TorsionEngine(p, d).metabelian_torsion_check(d)
        metabelian.append({"prime": p, "degree": d, "lieTorsion": list(r.lie_torsion),
                           "metabelianTorsion": list(r.metabelian_torsion),
                           "ranksAgree": r.ranks_agree, "thetaMatches": r.theta_matches,
                           "pass": r.passed})
    freeness = []
    for p, top in ((2, 8), (3, 9), (5, 14)):
        r = TorsionEngine(p, top).bp_freeness_check(top)
        freeness.append({"prime": p, "maxDegree": top,
                         "dimensions": [list(x) for x in r.dimensions],
                         "allTorsionFree": r.all_torsion_free,
                         "vacuous": not r.nonvacuous, "pass": r.passed})
    assert results["torsion"] == torsion
    assert results["metabelianComparison"] == metabelian
    assert results["secondDerivedFreeness"] == freeness
