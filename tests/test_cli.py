import json
import pathlib
import re
import shlex

import pytest
from jsonschema import ValidationError, validate

from apolar.cli import SCHEMA_VERSION, _build_parser, main

#: The flags each command reads and echoes back in its report's `config`.
CONFIG_KEYS = {
    "hf": ["field", "n"],
    "ann": ["field", "n"],
    "wlp": ["field", "seed", "trials", "n"],
    "slp": ["field", "seed", "trials", "n"],
    "bounds": [],
    "classify": ["field"],
    "catalog": [],
    "family": ["field", "seed", "trials"],
    "gin2": ["field"],
    "perazzo": ["field", "seed", "trials"],
    "snake": ["field", "seed", "n"],
}
CONFIG_TYPES = {
    "field": {"type": "string"},
    "seed": {"type": ["integer", "null"]},
    "trials": {"type": "integer"},
    "n": {"type": ["integer", "null"]},
}

#: Envelope every JSON report must satisfy; `config` holds exactly the
#: command's own keys.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "tool", "version", "command", "config", "result", "wall_time_ms"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "tool": {"const": "apolar"},
        "version": {"type": "string"},
        "command": {"enum": sorted(CONFIG_KEYS)},
        "config": {"type": "object"},
        "result": {"type": "object"},
        "wall_time_ms": {"type": "number"},
    },
    "allOf": [
        {
            "if": {"properties": {"command": {"const": command}}},
            "then": {"properties": {"config": {
                "required": keys,
                "properties": {k: CONFIG_TYPES[k] for k in keys},
                "additionalProperties": False,
            }}},
        }
        for command, keys in CONFIG_KEYS.items()
    ],
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
    ("classify", "x1*x3, x1*x4, x2*x3, x2*x4"),
    ("catalog", "IX"),
    ("family", "VII", "5", "--seed", "11"),
    ("gin2", "x1^2, x1*x2, x2^2, x1*x3"),
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
    "family_ix9.json": ("family", "IX", "9", "--seed", "5"),
    "perazzo6.json": ("perazzo", "6", "--seed", "5"),
    "snake.json": ("snake", PERAZZO3, "--seed", "13"),
    "classify.json": ("classify", "x1*x3, x1*x4, x2*x3, x2*x4"),
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
    report = run_json(capsys, "classify", "x1*x3, x1*x4, x2*x3, x2*x4", "--json")
    assert report["result"]["label"] == "I"


def test_family_output(capsys):
    report = run_json(capsys, "family", "VII", "7", "--seed", "11", "--json")
    assert report["result"]["h"] == [1, 4, 6, 8, 8, 6, 4, 1]
    assert report["result"]["wlp"]["verdict"] == "holds"


def test_gin2_special_set(capsys):
    report = run_json(capsys, "gin2", "x1^2, x1*x2, x2^2, x1*x4 - x2*x3", "--json")
    assert report["result"] == {"pivots": ["x1^2", "x1*x2", "x1*x3", "x2^2"], "set": "special"}


def test_gin2_split_web_is_generic_over_a_small_field(capsys):
    report = run_json(capsys, "gin2", "x1^2, x2^2, x3^2, x4^2", "--field", "fp:5", "--json")
    assert report["result"] == {"pivots": ["x1^2", "x1*x2", "x1*x3", "x1*x4"], "set": "generic"}


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("X1^2*X2\n")
    code, out, _ = run(capsys, "hf", "--input", str(path))
    assert code == 0 and "(1, 2, 2, 1)" in out


def test_report_schema_pins_config_keys():
    report = {"schema_version": SCHEMA_VERSION, "tool": "apolar", "version": "0", "result": {},
              "wall_time_ms": 1.0}
    validate({**report, "command": "bounds", "config": {}}, REPORT_SCHEMA)
    validate({**report, "command": "hf", "config": {"field": "q", "n": None}}, REPORT_SCHEMA)
    for command, config in (("bounds", {"field": "fp"}),
                            ("hf", {"field": "q", "n": None, "trials": 5}),
                            ("classify", {"field": "fp", "seed": 3})):
        with pytest.raises(ValidationError):
            validate({**report, "command": command, "config": config}, REPORT_SCHEMA)


WEB = "x1*x3, x1*x4, x2*x3, x2*x4"

#: Per command, a valid call and the flags the command does not declare,
#: each with a value it would otherwise accept; `--threads` exists nowhere.
UNDECLARED_FLAGS = [
    (("hf", "X1^2*X2"), ["--threads", "--seed", "--trials"]),
    (("ann", "X1^2*X2", "2"), ["--seed", "--trials"]),
    (("bounds", "macaulay", "13", "2"), ["--field", "--seed", "--trials", "--n", "--input"]),
    (("catalog", "IX"), ["--field", "--seed", "--trials", "--n", "--input"]),
    (("classify", WEB), ["--trials", "--n", "--seed"]),
    (("gin2", WEB), ["--n", "--seed", "--trials"]),
    (("family", "VII", "5", "--seed", "11"), ["--n", "--input"]),
    (("perazzo", "4", "--seed", "1"), ["--n", "--input"]),
    (("snake", PERAZZO3, "--seed", "13"), ["--trials"]),
]
FLAG_VALUES = {"--threads": "4", "--field": "fp", "--seed": "1", "--trials": "3", "--n": "4",
               "--input": "form.txt"}


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=argv[0] + flag) for argv, flags in UNDECLARED_FLAGS for flag in flags
])
def test_undeclared_flag_is_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json", flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--trials", "40"], ["--field", "fp:10007"],
                                   ["--field", "q", "--trials", "2"]])
def test_perazzo_check_flags_need_seed(capsys, flags):
    # --field and --trials only reach the optional WLP check, which --seed turns on
    code, out, err = run(capsys, "perazzo", "3", *flags, "--json")
    assert code == 2 and not out
    assert "--seed" in err
    assert all(flag in err for flag in flags if flag.startswith("--"))


def test_every_declared_flag_is_read_back(tmp_path, capsys):
    form, web = tmp_path / "form.txt", tmp_path / "web.txt"
    form.write_text(PERAZZO3)
    web.write_text(WEB)
    prime = ["--field", "fp:10007"]
    calls = [
        (["hf", "--input", str(form), "--field", "q", "--n", "6"], {"field": "q", "n": 6}),
        (["ann", "2", "--input", str(form), "--n", "6"], {"field": "fp", "n": 6}),
        (["wlp", "--input", str(form), *prime, "--seed", "2", "--trials", "2", "--n", "6"],
         {"field": "fp:10007", "seed": 2, "trials": 2, "n": 6}),
        (["slp", "--input", str(form), *prime, "--seed", "2", "--trials", "2", "--n", "6"],
         {"field": "fp:10007", "seed": 2, "trials": 2, "n": 6}),
        (["bounds", "green", "6", "3"], {}),
        (["catalog"], {}),
        (["classify", "--input", str(web), *prime], {"field": "fp:10007"}),
        (["gin2", "--input", str(web), *prime], {"field": "fp:10007"}),
        (["family", "VII", "5", *prime, "--seed", "11", "--trials", "2"],
         {"field": "fp:10007", "seed": 11, "trials": 2}),
        (["perazzo", "3", *prime, "--seed", "1", "--trials", "2"],
         {"field": "fp:10007", "seed": 1, "trials": 2}),
        (["snake", "--input", str(form), *prime, "--seed", "13", "--n", "6", "--g", "X6"],
         {"field": "fp:10007", "seed": 13, "n": 6}),
    ]
    assert sorted(argv[0] for argv, _ in calls) == sorted(CONFIG_KEYS)
    for argv, config in calls:
        assert run_json(capsys, *argv, "--json")["config"] == config, argv


class TestInputFile:
    def test_missing_file_is_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        code, out, err = run(capsys, "hf", "--input", str(missing))
        assert code == 2 and not out
        assert str(missing) in err and "No such file" in err

    def test_directory_is_two(self, tmp_path, capsys):
        code, out, err = run(capsys, "hf", "--input", str(tmp_path))
        assert code == 2 and not out
        assert str(tmp_path) in err and "Is a directory" in err

    @pytest.mark.parametrize("argv, text", [
        pytest.param(("hf", "X1^5"), "X1^2*X2", id="hf"),
        pytest.param(("classify", WEB), "x1^2, x1*x2, x2^2, x1*x4 - x2*x3", id="classify"),
    ])
    def test_argument_and_input_together_is_two(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and not out
        assert "either as an argument or with --input, not both" in err


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

    def test_index_is_checked_against_the_largest_in_the_text(self, capsys):
        code, out, err = run(capsys, "hf", "X0 + X7")
        assert code == 2 and not out
        assert err.strip() == "error: variable index 0 out of range 1..7 (at position 1)"

    @pytest.mark.parametrize("form", ["X1^2", "3"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_variable_count_below_one_is_two(self, capsys, form, n):
        code, out, err = run(capsys, "hf", form, "--n", n)
        assert code == 2 and not out
        assert err.strip() == f"error: --n must be at least 1, got {n}"

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
        code, _, err = run(capsys, "classify", "x1^2, x2^2, x1^2 + x2^2, x3^2")
        assert code == 2

    def test_hypothesis_violation_is_three(self, capsys):
        code, _, err = run(capsys, "classify", "x1*x2, x1*x3, x1*x4, x2^2 - x3*x4")
        assert code == 3 and "hypothesis" in err

    @pytest.mark.parametrize("command", ["classify", "gin2"])
    def test_characteristic_two_web_is_three(self, capsys, command):
        code, _, err = run(capsys, command, "X1^2, X1*X2, X2^2+X3*X4, X3^2", "--field", "fp:2")
        assert code == 3 and "characteristic != 2" in err

    def test_characteristic_at_most_degree_is_two(self, capsys):
        code, _, err = run(capsys, "hf", "X1^5 + X2^5", "--field", "fp:5")
        assert code == 2 and "characteristic p > deg F" in err
        assert "positive" not in err

    def test_classify_characteristic_at_most_four_is_two(self, capsys):
        code, out, err = run(capsys, "classify", WEB, "--field", "fp:3", "--json")
        assert code == 2 and not out
        assert "characteristic p > 4" in err

    def test_uncertified_modulus_is_two(self, capsys):
        code, out, err = run(capsys, "hf", "X1^3+X2^3", "--field",
                             "fp:318665857834031151167461", "--json")
        assert code == 2 and "not prime" in err and not out

    def test_non_integer_prime_is_two(self, capsys):
        code, out, err = run(capsys, "hf", "X1^2*X2", "--field", "fp:abc")
        assert code == 2 and not out
        assert "'fp:abc'" in err and "fp:PRIME" in err and "invalid literal" not in err

    def test_internal_inconsistency_is_four(self, capsys, monkeypatch):
        import apolar.cli as cli_module
        monkeypatch.setattr(cli_module, "quadric_ideal_hf",
                            lambda web, up_to: (1, 4, 5, 5, 5, 5))
        code, _, err = run(capsys, "catalog", "IX")
        assert code == 4 and "inconsistency" in err
