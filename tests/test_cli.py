"""Expression grammar round-trips, subcommand runs, JSON schema, exit codes."""

import json
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
from lietorsion.torsion import a_alphabet
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
