"""Golden CLI outputs: the exact ``--json`` stdout and the exit code of every
subcommand on the shipped specs, one file per subcommand in ``golden/``.

After an intended change of output, rewrite the files from the repository
root with ``PYTHONPATH=src python tests/test_cli_golden.py`` and review the
diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from qclifford.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _spec(name):
    return f"specs/{name}.json"


# argv without "--json"; spec paths are relative to the repository root
CASES = {
    "mul": [
        ["mul", _spec("cl11_a1"), "e1", "e2"],
        ["mul", _spec("cl11_a0"), "f", "f"],
        ["mul", _spec("cl22_deformed"), "1/2 + e1 - 3*e3", "e1^e3 + 2*e2^e4 - e4"],
        ["mul", _spec("cl13"), "omega", "omega"],
        ["mul", _spec("car2"), "(1+2i)*e1 + e4", "e2 - i*e3 + 1/3*e1^e4"],
        ["mul", _spec("cl11_a0"), "e1^", "e2"],
    ],
    "table": [
        ["table", _spec("cl11_a0")],
        ["table", _spec("cl11_a1")],
        ["table", _spec("cl22_deformed")],
        ["table", _spec("car2")],
    ],
    "grade": [
        ["grade", _spec("cl11_a1"), "e1^e2", "0"],
        ["grade", _spec("cl22_deformed"), "e1^e2^e3 + e1^e3 - e4", "1"],
        ["grade", _spec("cl22_deformed"), "e1^e2^e3^e4", "0"],
        ["grade", _spec("car2"), "i*e1^e3 + e2^e4", "0"],
        ["grade", _spec("cl11_a1"), "e1", "5"],
    ],
    "wick-check": [
        ["wick-check", _spec("cl11_a1")],
        ["wick-check", _spec("cl22_deformed")],
        ["wick-check", _spec("cl22_deformed"), "--x", "e1 - e3", "--u", "1 + e2^e3"],
        ["wick-check", _spec("car2")],
    ],
    "grading-diff": [
        ["grading-diff", _spec("cl11_a0"), _spec("cl11_a1")],
        ["grading-diff", _spec("cl22_block"), _spec("cl22_deformed")],
        ["grading-diff", _spec("cl22_block"), _spec("cl22_block")],
        ["grading-diff", _spec("cl11_a0"), _spec("cl22_block")],
        ["grading-diff", _spec("cl22_block"), _spec("cl13")],
    ],
    "witt": [
        ["witt", _spec("cl22_block")],
        ["witt", _spec("cl22_deformed")],
        ["witt", _spec("cl13")],
        ["witt", _spec("cl11_a1")],
    ],
    "periodicity": [
        ["periodicity", _spec("cl22_block")],
        ["periodicity", _spec("cl22_deformed")],
        ["periodicity", _spec("cl13")],
        ["periodicity", _spec("cl11_a1")],
        ["periodicity", _spec("car2")],
    ],
    "ideal": [
        ["ideal", _spec("cl11_a0"), "f"],
        ["ideal", _spec("car2"), "fock"],
        ["ideal", _spec("cl11_a0"), "e1"],
    ],
    "corner": [
        ["corner", _spec("cl11_a0"), "f_minus"],
        ["corner", _spec("cl11_a0"), "1"],
        ["corner", _spec("car2"), "fock"],
    ],
    "split": [
        ["split", _spec("cl11_a0"), "1"],
        ["split", _spec("cl11_a0"), "f_plus"],
        ["split", _spec("cl13"), "1"],
        ["split", _spec("cl22_deformed"), "1"],
    ],
    "u2": [
        ["u2", _spec("car2")],
        ["u2", _spec("cl11_a0")],
    ],
    "sweep": [
        ["sweep", _spec("cl22_block"), "--entry", "1,3", "--values", "0,1,-1/2",
         "--run", "periodicity"],
        ["sweep", _spec("cl11_a0"), "--entry", "1,2", "--values", "0,1", "--run",
         "ideal", "--element", "f_minus"],
        ["sweep", _spec("cl11_a0"), "--entry", "1,2", "--values", "0,1/2", "--run",
         "corner", "--element", "f_minus"],
        ["sweep", _spec("cl11_a0"), "--entry", "2,1", "--values", "0,1", "--run",
         "split", "--element", "f_minus"],
        ["sweep", _spec("car2"), "--entry", "1,2", "--values", "0,1", "--run",
         "periodicity"],
        ["sweep", _spec("cl11_a0"), "--entry", "1,2", "--values", "0", "--run", "ideal"],
    ],
}


def run_case(argv):
    """Exit code and stdout of ``qcliff <argv> --json``, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


def _golden_path(command):
    return os.path.join(GOLDEN, f"{command}.json")


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_golden(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(_golden_path(command), encoding="utf-8") as handle:
        golden = json.load(handle)
    assert [entry["argv"] for entry in golden] == CASES[command]
    for entry in golden:
        code, stdout = run_case(entry["argv"])
        assert code == entry["exit"], entry["argv"]
        assert stdout == entry["stdout"], entry["argv"]


def write_golden():
    os.chdir(ROOT)
    os.makedirs(GOLDEN, exist_ok=True)
    for command, cases in CASES.items():
        entries = []
        for argv in cases:
            code, stdout = run_case(argv)
            entries.append({"argv": argv, "exit": code, "stdout": stdout})
        with open(_golden_path(command), "w", encoding="utf-8") as handle:
            json.dump(entries, handle, indent=1, ensure_ascii=False)
            handle.write("\n")


if __name__ == "__main__":
    write_golden()
