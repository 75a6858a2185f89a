"""Every demo problem's CLI output, pinned byte for byte.

Each (command, problem) pair of `test_cli.py` runs in text and ``--json``
mode; a golden holds the exit code on its first line and stdout after it.
After an intended output change, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import pytest

from test_cli import GOLDENS, PROBLEMS, RUNS, golden_path, run_cli

CASES = [(command, problem, mode) for command, problem in RUNS for mode in ((), ("--json",))]


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
