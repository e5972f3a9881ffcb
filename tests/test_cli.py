import json
import os
import subprocess
import sys

import pytest

from qclifford.cli import main

from conftest import child_env, run_memory_limited

SPECS = os.path.join(os.path.dirname(__file__), os.pardir, "specs")


def spec(name):
    return os.path.join(SPECS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, data, name="algebra.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_mul_example(capsys):
    code, out, _ = run(capsys, "mul", spec("cl11_a1.json"), "e1", "e2")
    assert code == 0
    assert out.strip() == "1 + e1^e2"


def test_mul_json_deterministic(capsys):
    code, out1, _ = run(capsys, "mul", spec("cl11_a1.json"), "e1", "e2", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "mul", spec("cl11_a1.json"), "e1", "e2", "--json")
    assert out1 == out2
    assert json.loads(out1) == {"result": "1 + e1^e2"}


def test_grade_example(capsys):
    code, out, _ = run(capsys, "grade", spec("cl11_a1.json"), "e1^e2", "0")
    assert code == 0
    assert out.strip() == "-1/2"


def test_table(capsys):
    code, out, _ = run(capsys, "table", spec("cl11_a1.json"), "--json")
    assert code == 0
    table = json.loads(out)["table"]
    assert len(table) == 16
    lookup = {(row["left"], row["right"]): row["result"] for row in table}
    assert lookup[("e1", "e2")] == "1 + e1^e2"
    assert lookup[("e2", "e1")] == "-e1^e2"
    assert lookup[("Id", "Id")] == "1"


def test_periodicity_verdicts(capsys):
    code, out, _ = run(capsys, "periodicity", spec("cl22_block.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "decomposable"
    assert data["map_passed"] is True

    code, out, _ = run(capsys, "periodicity", spec("cl22_deformed.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "deformed"
    assert data["connecting"]
    assert data["witness_pairs"]


def test_witt(capsys):
    code, out, _ = run(capsys, "witt", spec("cl22_block.json"), "--json")
    assert code == 0
    assert json.loads(out) == {"n_indices": [1, 2], "m_indices": [3, 4]}


def test_wick_check(capsys):
    code, out, _ = run(capsys, "wick-check", spec("cl11_a1.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_zero"] is True
    assert data["identity_i_residual"] == "0"


def test_wick_check_degenerate_exit_code(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "dim": 2, "ring": "Q", "B": [["0", "1"], ["-1", "0"]],
    })
    code, _, err = run(capsys, "wick-check", path)
    assert code == 1
    assert "computational error" in err


def test_grading_diff(capsys):
    code, out, _ = run(capsys, "grading-diff", spec("cl11_a0.json"),
                       spec("cl11_a0.json"), "--json")
    assert code == 0
    assert json.loads(out) == {"equal": True}

    code, out, _ = run(capsys, "grading-diff", spec("cl11_a0.json"),
                       spec("cl11_a1.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is False
    assert data["witness"] == "e1^e2"
    assert data["projections"] == ["0", "-1/2"]


def test_grading_diff_incomparable(capsys):
    code, _, err = run(capsys, "grading-diff", spec("cl11_a0.json"),
                       spec("cl22_block.json"))
    assert code == 2


def test_ideal_corner_split(capsys):
    code, out, _ = run(capsys, "ideal", spec("cl11_a0.json"), "f", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 2

    code, out, _ = run(capsys, "corner", spec("cl11_a0.json"), "f_minus", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 1 and data["primitive"] is True

    code, out, _ = run(capsys, "split", spec("cl11_a0.json"), "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "split"
    assert sorted(data["parts"]) == ["1/2 + 1/2*e1", "1/2 - 1/2*e1"]


def test_ideal_rejects_non_idempotent(capsys):
    code, _, err = run(capsys, "ideal", spec("cl11_a0.json"), "e1")
    assert code == 2
    assert "idempotent" in err


def test_u2(capsys):
    code, out, _ = run(capsys, "u2", spec("car2.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "solved"
    assert data["N"] == "e1^e3 + e2^e4"
    assert len(data["S"]) == 3

    code, _, err = run(capsys, "u2", spec("cl11_a0.json"))
    assert code == 2


def test_car_spec_elements(capsys):
    code, out, _ = run(capsys, "ideal", spec("car2.json"), "fock", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 4


def test_sweep(capsys):
    code, out, _ = run(capsys, "sweep", spec("cl22_block.json"),
                       "--entry", "1,3", "--values", "0,1", "--run", "periodicity",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert [row["result"]["verdict"] for row in data["rows"]] == \
        ["decomposable", "deformed"]

    code, out, _ = run(capsys, "sweep", spec("cl11_a0.json"),
                       "--entry", "1,2", "--values", "0,1", "--run", "ideal",
                       "--element", "f_minus", "--json")
    assert code == 0
    data = json.loads(out)
    assert [row["result"]["dimension"] for row in data["rows"]] == [2, 2]


def test_sweep_leaves_its_arguments_unchanged():
    from qclifford.cli import build_parser, cmd_sweep, load_spec_file
    args = build_parser().parse_args([
        "sweep", spec("cl11_a0.json"), "--entry", "1,2", "--values", "0,1",
        "--run", "ideal", "--element", "f_minus"])
    before = vars(args).copy()
    loaded = load_spec_file(args.spec)
    first = cmd_sweep(loaded, args)
    assert vars(args) == before
    assert cmd_sweep(loaded, args) == first


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "mul", spec("cl11_a0.json"), "e1^", "e2")
    assert code == 2
    code, _, err = run(capsys, "mul", str(tmp_path / "missing.json"), "e1", "e2")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "mul", str(bad), "e1", "e2")
    assert code == 2
    over = write_spec(tmp_path, {
        "dim": 13, "ring": "Q",
        "B": [["0"] * 13 for _ in range(13)],
    })
    code, _, err = run(capsys, "mul", over, "e1", "e2")
    assert code == 2
    weird = write_spec(tmp_path, {"dim": 2, "B": [["1", "0"], ["0", "1"]],
                                  "extra": 1})
    code, _, err = run(capsys, "witt", weird)
    assert code == 2


LONG = "7" * 5000  # past the interpreter's 4300-digit int-to-str limit


@pytest.mark.parametrize("text", [f"{LONG}*e1", f"e{LONG}", f"1/{LONG}"],
                         ids=["coefficient", "blade-index", "denominator"])
def test_overlong_integer_literals_exit_2(capsys, text):
    code, _, err = run(capsys, "mul", spec("cl13.json"), text, "1")
    assert code == 2
    assert "input error: integer of 5000 digits is too long" in err


def test_overlong_integer_in_spec_json_exits_2(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"dim": 1, "B": [[%s]]}' % LONG)
    code, _, err = run(capsys, "mul", str(path), "e1", "e1")
    assert code == 2 and err.startswith("input error: invalid JSON")


def test_result_too_long_to_print_exits_1(capsys):
    power = "1" + "0" * 3000
    code, out, err = run(capsys, "mul", spec("cl13.json"), f"{power}*e1", f"{power}*e1")
    assert (code, out) == (1, "")
    assert err.startswith("computational error: coefficient too long to print")


def test_zero_idempotent_is_refused():
    # the corner of 0 is empty; the search used to loop over zero trial
    # elements forever, so each case runs in a child with a timeout
    script = ("from qclifford import InputError, split_form\n"
              "from qclifford.reps import primitive_decomposition\n"
              "try:\n"
              "    primitive_decomposition(split_form([[1, 0], [0, -1]]).zero())\n"
              "except InputError as exc:\n"
              "    print(exc)\n")
    cases = [["-m", "qclifford.cli", "split", spec("cl13.json"), "0"],
             ["-m", "qclifford.cli", "sweep", spec("cl11_a0.json"), "--entry", "1,2",
              "--values", "0", "--run", "split", "--element", "0"],
             ["-c", script]]
    for argv in cases:
        result = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                env=child_env(), timeout=5)
        assert "the zero idempotent has no split" in result.stdout + result.stderr
        assert result.returncode == (0 if argv[0] == "-c" else 2)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnицate"])
    assert exc.value.code == 2


def test_spec_round_trip_of_elements(capsys, tmp_path):
    # parse -> print -> parse is the identity on the shipped elements
    from qclifford.cli import load_spec_file
    from qclifford import format_multivector, parse_multivector
    loaded = load_spec_file(spec("cl11_a0.json"))
    for name, element in loaded.elements.items():
        text = format_multivector(element)
        assert parse_multivector(loaded.ctx, text) == element


def test_oversized_car_is_refused_before_allocating(tmp_path):
    # 2n = 2000000 generators: a 2n x 2n form would not fit in the child
    path = write_spec(tmp_path, {"car": {"n": 1000000}})
    result = run_memory_limited("-m", "qclifford.cli", "witt", path)
    assert result.returncode == 2, result.stderr
    assert "exceeds the limit" in result.stderr


@pytest.mark.parametrize("argv", [
    ["mul", "cl11_a1.json", "e1", "e2", "--seeds", "3"],
    ["split", "cl13.json", "1", "--tol", "0.5"],
    ["witt", "cl22_block.json", "--max-dim", "1"],
])
def test_removed_and_misplaced_options_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], spec(argv[1]), *argv[2:]])
    assert exc.value.code == 2


def test_split_search_options(capsys):
    code, out, _ = run(capsys, "split", spec("cl13.json"), "1",
                       "--seeds", "1", "--seed", "2", "--json")
    assert code == 0
    assert json.loads(out)["outcome"] == "split"


def test_spec_loader_rejects_booleans(capsys, tmp_path):
    # JSON true loads as bool, which passes isinstance(x, int)
    for data in ({"dim": True, "B": [["1"]]}, {"car": {"n": True}}):
        code, _, err = run(capsys, "witt", write_spec(tmp_path, data))
        assert code == 2
        assert "integer" in err


def test_closed_stdout_is_not_an_error():
    # the read end is closed before the child writes, so its output hits EPIPE
    child = subprocess.Popen(
        [sys.executable, "-m", "qclifford.cli", "table", spec("car2.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    child.stdout.close()
    code = child.wait(timeout=120)
    err = child.stderr.read()
    child.stderr.close()
    assert (code, err) == (0, b"")


def test_package_imports_without_numpy():
    code = ("import sys, qclifford, qclifford.cli, qclifford.reps, qclifford.decomp; "
            "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
