import json
import pathlib
import re
import shlex

import pytest
from jsonschema import validate

from apolar.cli import SCHEMA_VERSION, _build_parser, main

#: Envelope every JSON report must satisfy.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "tool", "version", "command", "config", "result", "wall_time_ms"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "tool": {"const": "apolar"},
        "version": {"type": "string"},
        "command": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["field"],
            "properties": {"field": {"type": "string"}},
        },
        "result": {"type": "object"},
        "wall_time_ms": {"type": "number"},
    },
    "additionalProperties": False,
}

PERAZZO3 = "X1*X4^2 + X2*X4*X5 + X3*X5^2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    validate(report, REPORT_SCHEMA)
    return report


GOLDEN_COMMANDS = [
    ("hf", "X1^2*X2"),
    ("ann", "X1^2*X2", "2"),
    ("wlp", PERAZZO3, "--seed", "42"),
    ("slp", PERAZZO3, "--seed", "42"),
    ("bounds", "macaulay", "13", "2"),
    ("bounds", "osequence", "1,13,12,13,1"),
    ("classify", "x1*x3, x1*x4, x2*x3, x2*x4", "--seed", "3"),
    ("catalog", "IX"),
    ("family", "VII", "5", "--seed", "11"),
    ("gin2", "x1^2, x1*x2, x2^2, x1*x3", "--seed", "5"),
    ("perazzo", "4", "--seed", "1"),
    ("snake", PERAZZO3, "--seed", "13"),
]


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=lambda a: a[0])
def test_every_command_emits_schema_valid_json(capsys, argv):
    run_json(capsys, *argv, "--json")


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=lambda a: a[0])
def test_json_byte_identical_excluding_wall_time(capsys, argv):
    def stripped():
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0, err
        return "\n".join(l for l in out.splitlines() if "wall_time_ms" not in l)

    assert stripped() == stripped()


GOLDEN_SNAPSHOTS = {
    "hf.json": ("hf", "X1^2*X2"),
    "bounds_macaulay.json": ("bounds", "macaulay", "13", "2"),
    "wlp_sharpness.json": ("wlp", PERAZZO3, "--seed", "42"),
    "ann.json": ("ann", "X1^2*X2", "2"),
    "family.json": ("family", "VII", "5", "--seed", "11"),
    "snake.json": ("snake", PERAZZO3, "--seed", "13"),
    "classify.json": ("classify", "x1*x3, x1*x4, x2*x3, x2*x4", "--seed", "3"),
    "slp.json": ("slp", "X1*X5^3 + X2*X5^2*X6 + X3*X5*X6^2 + X4*X6^3", "--seed", "4"),
    "slp_holds.json": ("slp", "X1^5 + X2^5 + X3^5 + X1*X2*X3^3", "--seed", "7"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SNAPSHOTS))
def test_golden_snapshots(capsys, name):
    argv = GOLDEN_SNAPSHOTS[name]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    stripped = "\n".join(l for l in out.splitlines() if "wall_time_ms" not in l)
    golden = (pathlib.Path(__file__).parent / "golden" / name).read_text().rstrip("\n")
    assert stripped == golden


def readme_blocks(lang):
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


README_COMMANDS = [shlex.split(line, comments=True)[1:]
                   for block in readme_blocks("sh") for line in block.splitlines()
                   if line.startswith("apolar ")]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda a: a[0])
def test_readme_commands_run(capsys, argv):
    run_json(capsys, *argv, "--json")


def test_readme_library_sketch_prints_its_comments(capsys):
    (code,) = readme_blocks("python")
    exec(code, {})
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 3
    assert capsys.readouterr().out.splitlines() == expected


def test_hf_text_output(capsys):
    code, out, _ = run(capsys, "hf", "X1^2*X2")
    assert code == 0
    assert "h-vector: (1, 2, 2, 1)" in out
    assert "sperner number: 2" in out


def test_hf_golden_payload(capsys):
    report = run_json(capsys, "hf", "X1^5", "--n", "1", "--json")
    assert report["result"] == {
        "form": "X1^5",
        "h": [1, 1, 1, 1, 1, 1],
        "n": 1,
        "socle_degree": 5,
        "sperner": 1,
        "symmetric": True,
    }


def test_perazzo_hf_via_cli(capsys):
    report = run_json(capsys, "perazzo", "3", "--json")
    assert report["result"]["h"] == [1, 5, 5, 1]
    assert report["result"]["sperner"] == 5


def test_wlp_failure_display_includes_dual_degree(capsys):
    code, out, _ = run(capsys, "wlp", PERAZZO3, "--seed", "42")
    assert code == 0
    assert "FailsAtDegrees([1, 2])" in out


def test_bounds_values(capsys):
    assert run_json(capsys, "bounds", "macaulay", "13", "2", "--json")["result"]["value"] == 26
    assert run_json(capsys, "bounds", "green", "6", "3", "--json")["result"]["value"] == 1
    report = run_json(capsys, "bounds", "osequence", "1,13,12,13,1", "--json")
    assert report["result"]["valid"] is True


def test_classify_reports_label(capsys):
    report = run_json(capsys, "classify", "x1*x3, x1*x4, x2*x3, x2*x4",
                      "--seed", "3", "--json")
    assert report["result"]["label"] == "I"


def test_family_output(capsys):
    report = run_json(capsys, "family", "VII", "7", "--seed", "11", "--json")
    assert report["result"]["h"] == [1, 4, 6, 8, 8, 6, 4, 1]
    assert report["result"]["wlp"]["verdict"] == "holds"


def test_gin2_special_set(capsys):
    report = run_json(capsys, "gin2", "x1^2, x1*x2, x2^2, x1*x4 - x2*x3",
                      "--seed", "5", "--json")
    assert report["result"]["set"] == "special"
    assert report["result"]["pivots"] == ["x1^2", "x1*x2", "x1*x3", "x2^2"]


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("X1^2*X2\n")
    code, out, _ = run(capsys, "hf", "--input", str(path))
    assert code == 0 and "(1, 2, 2, 1)" in out


def test_threads_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hf", "X1^2*X2", "--json", "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_parser_is_built_once_and_left_unchanged_by_use(capsys):
    # main reuses one parser; a failed and a successful call leave its help
    # and its next parse as a fresh parser gives them
    with pytest.raises(SystemExit):
        main(["wlp", "X1^2", "--bogus"])
    assert run(capsys, "hf", "X1^2*X2", "--field", "q")[0] == 0
    assert _build_parser() is _build_parser()
    fresh = _build_parser.__wrapped__()
    for argv in ([], ["hf"], ["snake"]):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(argv + ["--help"])
        used = capsys.readouterr().out
        with pytest.raises(SystemExit):
            fresh.parse_args(argv + ["--help"])
        assert capsys.readouterr().out == used
    assert _build_parser().parse_args(["hf", "X1"]) == fresh.parse_args(["hf", "X1"])


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "hf", "X5", "--n", "4")
        assert code == 2 and "out of range" in err

    def test_inhomogeneous_is_two(self, capsys):
        code, _, err = run(capsys, "hf", "X1^2 + X2")
        assert code == 2

    def test_missing_seed_is_two(self, capsys):
        code, _, err = run(capsys, "wlp", "X1^2")
        assert code == 2 and "--seed" in err

    def test_rational_mode_for_randomized_is_two(self, capsys):
        code, _, err = run(capsys, "wlp", "X1^2", "--field", "q", "--seed", "1")
        assert code == 2 and "fp" in err

    def test_bad_integer_is_two(self, capsys):
        code, _, err = run(capsys, "bounds", "macaulay", "13", "x")
        assert code == 2

    def test_dependent_quadrics_is_two(self, capsys):
        code, _, err = run(capsys, "classify", "x1^2, x2^2, x1^2 + x2^2, x3^2",
                           "--seed", "1")
        assert code == 2

    def test_hypothesis_violation_is_three(self, capsys):
        code, _, err = run(capsys, "classify", "x1*x2, x1*x3, x1*x4, x2^2 - x3*x4",
                           "--seed", "4")
        assert code == 3 and "hypothesis" in err

    @pytest.mark.parametrize("command", ["classify", "gin2"])
    def test_characteristic_two_web_is_three(self, capsys, command):
        code, _, err = run(capsys, command, "X1^2, X1*X2, X2^2+X3*X4, X3^2",
                           "--field", "fp:2", "--seed", "1")
        assert code == 3 and "characteristic != 2" in err

    def test_characteristic_at_most_degree_is_two(self, capsys):
        code, _, err = run(capsys, "hf", "X1^5 + X2^5", "--field", "fp:5")
        assert code == 2 and "characteristic p > deg F" in err
        assert "positive" not in err

    def test_uncertified_modulus_is_two(self, capsys):
        code, out, err = run(capsys, "hf", "X1^3+X2^3", "--field",
                             "fp:318665857834031151167461", "--json")
        assert code == 2 and "not prime" in err and not out

    def test_internal_inconsistency_is_four(self, capsys, monkeypatch):
        import apolar.cli as cli_module
        monkeypatch.setattr(cli_module, "quadric_ideal_hf",
                            lambda web, up_to: (1, 4, 5, 5, 5, 5))
        code, _, err = run(capsys, "catalog", "IX")
        assert code == 4 and "inconsistency" in err
