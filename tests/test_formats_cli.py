"""File formats, report determinism and the command surface."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from lierad.cli import main
from lierad.corpus import UnknownCorpusName, corpus, corpus_expr
from lierad.formats import (
    AlgebraFileError,
    AlgebraValidationError,
    algebra_from_dict,
    algebra_to_dict,
    family_from_dict,
    load_algebra,
    save_algebra,
    str_to_rational,
)
from lierad.liealg import MAX_DIM, abelian, validate
from lierad.reports import analyze, report_to_json

HEIS3_FILE = {
    "name": "heis3",
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": [{"i": 0, "j": 1, "c": ["0", "0", "1"]}],
}


def test_load_heis3_from_dict():
    algebra = algebra_from_dict(HEIS3_FILE)
    assert algebra.dim == 3
    assert validate(algebra).ok
    assert algebra.c == corpus("heis3").c


def test_round_trip_through_files(tmp_path):
    path = tmp_path / "heis3.json"
    save_algebra(corpus("heis3"), str(path), name="heis3")
    reloaded = load_algebra(str(path))
    assert reloaded.c == corpus("heis3").c
    # canonical form: a second save is byte-identical
    path2 = tmp_path / "again.json"
    save_algebra(reloaded, str(path2), name="heis3")
    assert path.read_text() == path2.read_text()


def test_empty_bracket_table_is_abelian():
    algebra = algebra_from_dict({"dim": 4, "basis": list("abcd"),
                                 "brackets": []})
    assert algebra == abelian(4)


def test_out_of_range_index_names_the_entry():
    bad = {"dim": 2, "basis": ["a", "b"],
           "brackets": [{"i": 0, "j": 5, "c": ["0", "0"]}]}
    with pytest.raises(AlgebraFileError, match="entry #0"):
        algebra_from_dict(bad)


def test_lower_triangle_storage_is_rejected():
    bad = {"dim": 2, "basis": ["a", "b"],
           "brackets": [{"i": 1, "j": 0, "c": ["0", "1"]}]}
    with pytest.raises(AlgebraFileError, match="i < j"):
        algebra_from_dict(bad)


def test_bad_rational_literal_is_rejected():
    bad = {"dim": 2, "basis": ["a", "b"],
           "brackets": [{"i": 0, "j": 1, "c": ["0", "one half"]}]}
    with pytest.raises(AlgebraFileError, match="rational"):
        algebra_from_dict(bad)


def test_jacobi_violations_are_reported():
    bad = {
        "dim": 3, "basis": ["a", "b", "c"],
        "brackets": [
            {"i": 0, "j": 1, "c": ["0", "1", "0"]},
            {"i": 0, "j": 2, "c": ["0", "0", "1"]},
            {"i": 1, "j": 2, "c": ["1", "0", "0"]},
        ],
    }
    with pytest.raises(AlgebraValidationError) as err:
        algebra_from_dict(bad)
    assert (0, 1, 2) in err.value.report.jacobi_violations


def test_family_file_parsing():
    fam = family_from_dict({
        "ambient_dim": 3,
        "members": [[["1", "0", "0"]], [["0", "1", "0"], ["0", "0", "1"]]],
    })
    assert len(fam) == 2
    assert fam.ambient_dim == 3
    with pytest.raises(AlgebraFileError):
        family_from_dict({"members": []})


def test_report_is_deterministic():
    first = report_to_json(analyze(corpus("heis3"), name="heis3"))
    second = report_to_json(analyze(corpus("heis3"), name="heis3"))
    assert first == second
    parsed = json.loads(first)
    assert parsed["schema"] == 1
    assert parsed["frattini_ideal"]["kind"] == "Exact"
    assert parsed["index_class"]["class"] == "C2"
    assert parsed["subdirect"] is None  # heis3 is not Frattini-free


def test_report_on_frattini_free_algebra_has_subdirect_summary():
    report = analyze(corpus("d1_v2"), name="d1_v2")
    assert report["frattini_free"]["free"] is True
    assert report["subdirect"]["verified"] is True
    assert [c["class"] for c in report["subdirect"]["components"]] == \
        ["ClassII", "ClassII"]
    audit = report["characteristic_audit"]
    assert audit["rad"] is True and audit["jacobson"] is True


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(HEIS3_FILE))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 3, "basis": ["a", "b", "c"],
        "brackets": [
            {"i": 0, "j": 1, "c": ["0", "1", "0"]},
            {"i": 0, "j": 2, "c": ["0", "0", "1"]},
            {"i": 1, "j": 2, "c": ["1", "0", "0"]},
        ]}))
    assert main(["validate", str(bad)]) == 1
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert main(["validate", str(malformed)]) == 2
    capsys.readouterr()


def test_cli_analyze_corpus_target(capsys):
    assert main(["analyze", "corpus:heis3"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["dim"] == 3
    assert parsed["jacobson_index"] == 2
    assert main(["analyze", "corpus:heis3", "--text"]) == 0
    text = capsys.readouterr().out
    assert "frattini_ideal: Exact" in text


def test_cli_analyze_has_no_json_flag(capsys):
    # JSON is the default output; the flag that said so did nothing
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "corpus:heis3", "--json"])
    assert exit_info.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_cli_analyze_rejects_unknown_corpus(capsys):
    assert main(["analyze", "corpus:not_an_algebra"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_cli_radical_and_closure(capsys):
    assert main(["radical", "rad", "corpus:ut:3"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["dim"] == 6
    assert main(["radical", "derived", "corpus:ut:3", "--closure"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["superposition"]["index"] == 3
    assert main(["radical", "bogus", "corpus:sl2"]) == 2
    capsys.readouterr()


def test_cli_frattini_interval_report(capsys):
    assert main(["frattini", "corpus:ut:4"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["frattini_index"]["kind"] == "Interval"
    assert parsed["frattini_index"]["low"] == 2
    assert parsed["frattini_index"]["high"] == 3
    assert parsed["jacobson_index"] == 3


def test_cli_classify(capsys):
    assert main(["classify", "corpus:aff1"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["tag"] == "ClassII"


def test_cli_chains_commands(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({
        "ambient_dim": 3,
        "members": [
            [["1", "0", "0"], ["0", "1", "0"]],
            [["0", "1", "0"], ["0", "0", "1"]],
        ],
    }))
    assert main(["chains", str(fam_path), "meet"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["meet"] == [["0", "1", "0"]]
    assert main(["chains", str(fam_path), "p-complete"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed["members"]) == 4
    assert main(["chains", str(fam_path), "lower-finite-gap"]) == 0
    capsys.readouterr()


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["analyze"])  # missing target
    assert err.value.code == 2


HUGE = 10 ** 9


@pytest.mark.parametrize("target", ["corpus:ut(%d)" % HUGE, "corpus:sut:%d" % HUGE,
                                    "corpus:abelian(%d)" % HUGE,
                                    "corpus:direct(heis3,abelian(%d))" % HUGE,
                                    "corpus:direct(ut(10),ut(4))"])
def test_cli_refuses_corpus_algebras_above_the_dimension_bound(target, capsys):
    assert main(["analyze", target]) == 2
    assert "MAX_DIM = %d" % MAX_DIM in capsys.readouterr().err


@pytest.mark.parametrize("data", [{"dim": HUGE}, {"ambient_dim": HUGE},
                                  {"ambient_dim": -1}])
def test_cli_refuses_file_dimensions_out_of_range(data, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = ["analyze", str(path)] if "dim" in data else ["chains", str(path), "meet"]
    assert main(argv) == 2
    assert "MAX_DIM = %d" % MAX_DIM in capsys.readouterr().err


def test_the_dimension_bound_admits_the_largest_corpus_algebras():
    assert corpus_expr("ut(10)").dim == 55
    assert corpus_expr("direct(ut(10),abelian(9))").dim == MAX_DIM
    assert family_from_dict({"ambient_dim": MAX_DIM}).ambient_dim == MAX_DIM
    with pytest.raises(AlgebraFileError, match="MAX_DIM"):
        algebra_from_dict({"dim": MAX_DIM + 1})
    with pytest.raises(UnknownCorpusName, match="MAX_DIM"):
        corpus_expr("ut(11)")


# int() refuses decimal strings past 4,300 digits
LONG_NUMBER = "1" * 5000


@pytest.mark.parametrize("target", ["corpus:ut(%s)" % LONG_NUMBER,
                                    "corpus:ut:%s" % LONG_NUMBER],
                         ids=["ut(N)", "ut:N"])
def test_cli_refuses_corpus_numbers_int_rejects(target, capsys):
    assert main(["analyze", target]) == 2
    assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("basis", [5, "xyz", {"a": 1, "b": 2, "c": 3}],
                         ids=["int", "string", "object"])
def test_cli_refuses_a_basis_that_is_not_a_list_of_strings(basis, tmp_path, capsys):
    data = dict(HEIS3_FILE, basis=basis)
    with pytest.raises(AlgebraFileError, match="list of label strings"):
        algebra_from_dict(data)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    assert "list of label strings" in capsys.readouterr().err


def one_line_input_error(argv, capsys) -> str:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("data, argv, message", [
    ({"dim": 2, "brackets": 5}, ["analyze"], "'brackets' must be a list"),
    ({"ambient_dim": 2, "members": 5}, ["chains", "meet"], "'members' must be a list"),
], ids=["brackets", "members"])
def test_cli_refuses_entry_lists_that_are_not_lists(data, argv, message, tmp_path,
                                                    capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = argv[:1] + [str(path)] + argv[1:]
    assert message in one_line_input_error(argv, capsys)


@pytest.mark.parametrize("data, argv, message", [
    ({"dim": 2.7, "basis": ["x", "y"]}, ["analyze"], "non-integer 'dim'"),
    ({"dim": True}, ["analyze"], "non-integer 'dim'"),
    ({"dim": "2"}, ["analyze"], "non-integer 'dim'"),
    ({"ambient_dim": True}, ["chains", "meet"], "non-integer 'ambient_dim'"),
    ({"ambient_dim": 1.0}, ["chains", "meet"], "non-integer 'ambient_dim'"),
    ({"dim": 2, "brackets": [{"i": 0.0, "j": 1, "c": ["0", "0"]}]}, ["analyze"],
     "lacks integer fields"),
    ({"dim": 2, "brackets": [{"i": 0, "j": True, "c": ["0", "0"]}]}, ["analyze"],
     "lacks integer fields"),
    ({"dim": 2, "brackets": [{"i": "0", "j": 1, "c": ["0", "0"]}]}, ["analyze"],
     "lacks integer fields"),
], ids=["float-dim", "bool-dim", "string-dim", "bool-ambient-dim",
        "float-ambient-dim", "float-i", "bool-j", "string-i"])
def test_only_json_integers_are_dimensions_and_indices(data, argv, message, tmp_path,
                                                       capsys):
    load = family_from_dict if "ambient_dim" in data else algebra_from_dict
    with pytest.raises(AlgebraFileError, match=message):
        load(data)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = argv[:1] + [str(path)] + argv[1:]
    assert message in one_line_input_error(argv, capsys)


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "No such file"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b'{"dim": 1, "basis": ["\xff"]}'), "utf-8"),
    (lambda path: path.write_bytes(b'{"dim": ' + b"1" * 5000 + b"}"), "4300 digits"),
], ids=["missing", "directory", "non-utf8", "long-integer"])
@pytest.mark.parametrize("command", [["analyze"], ["chains", "meet"]],
                         ids=["algebra", "family"])
def test_cli_refuses_unreadable_files(make, message, command, tmp_path, capsys):
    path = tmp_path / "input.json"
    make(path)
    argv = command[:1] + [str(path)] + command[1:]
    assert message in one_line_input_error(argv, capsys)


@pytest.mark.parametrize("literal", ["1e4301", "1E-4301", "-2.5e+99999999",
                                     "1e999999999", "1e0000000000009999",
                                     "1e\u0669\u0669\u0669\u0669\u0669"])
def test_exponents_past_the_digit_limit_are_refused(literal, tmp_path, capsys):
    data = {"dim": 2, "brackets": [{"i": 0, "j": 1, "c": [literal, "0"]}]}
    with pytest.raises(AlgebraFileError, match="exponent"):
        algebra_from_dict(data)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert "exponent" in one_line_input_error(["analyze", str(path)], capsys)


@pytest.mark.parametrize("literal, value", [
    ("3", 3), ("-3/4", Fraction(-3, 4)), ("0.5", Fraction(1, 2)),
    ("1e3", 1000), ("25E-2", Fraction(1, 4)), ("1e0004300", 10 ** 4300), (7, 7)],
    ids=["p", "p/q", "decimal", "exponent", "negative-exponent", "largest-exponent",
         "json-int"])
def test_rational_literals_within_the_bound_are_read(literal, value):
    assert str_to_rational(literal) == value


def test_cli_refuses_direct_nested_past_the_dimension_bound(capsys):
    deep = "direct(" * 3000 + "sl2" + ",sl2)" * 3000
    err = one_line_input_error(["analyze", "corpus:" + deep], capsys)
    assert "nested deeper than MAX_DIM = %d" % MAX_DIM in err
    shallow = "direct(" * MAX_DIM + "abelian(0)" + ",abelian(0))" * MAX_DIM
    assert corpus_expr(shallow).dim == 0
    with pytest.raises(UnknownCorpusName, match="nested deeper"):
        corpus_expr("direct(" + shallow + ",abelian(0))")
