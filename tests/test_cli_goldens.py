"""Every demo problem's CLI output, pinned byte for byte.

Each (command, problem) pair of `test_cli.py` runs in text and ``--json``
mode; a golden holds the exit code on its first line and stdout after it.
After an intended output change, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

from pathlib import Path

import pytest

from test_cli import PROBLEMS, run_cli

GOLDENS = Path(__file__).resolve().parent / "goldens" / "cli"

RUNS = [
    (("pointed",), "basis_pointed"),
    (("pointed",), "line_not_pointed"),
    (("count",), "count_two_steps"),
    (("count",), "weighted_count"),
    (("count",), "basis_pointed"),
    (("series",), "king_walk_series"),
    (("paths",), "gapped_paths"),
    (("verify", "thm1"), "summation_identity"),
    (("verify", "cb"), "partition_of_unity"),
    (("verify", "prop3"), "cone_partition_of_unity"),
    (("verify", "rec"), "recurrence_failure"),
]
CASES = [(command, problem, mode) for command, problem in RUNS for mode in ((), ("--json",))]


def golden_path(command, problem, mode) -> Path:
    return GOLDENS / f"{problem}.{'-'.join(command + tuple(m.lstrip('-') for m in mode))}.out"


def render(command, problem, mode) -> str:
    code, out, _ = run_cli([*command, str(PROBLEMS / f"{problem}.json"), *mode])
    return f"exit: {code}\n{out}"


@pytest.mark.parametrize("case", CASES, ids=lambda case: golden_path(*case).stem)
def test_output_matches_golden(case):
    assert render(*case) == golden_path(*case).read_text()


def test_every_golden_is_run():
    assert {p.name for p in GOLDENS.iterdir()} == {golden_path(*case).name for case in CASES}


if __name__ == "__main__":
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        golden_path(*case).write_text(render(*case))
