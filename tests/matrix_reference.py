"""The fixture × subcommand matrix and its recorded reports.

    PYTHONPATH=src python3 tests/matrix_reference.py

Runs every matrix case in process and writes its exit code, its stderr and
the ``outputs`` block of its report (None when it exits nonzero) to
``tests/reference/matrix.json``, and prints the id of every entry it adds
or changes.  ``test_cli.test_fixture_command_matrix`` holds each later run
to that entry.  Rerun this only on purpose, and list every run whose entry
changes.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "matrix.json")
SPECS = os.path.join(HERE, "reference", "specs")

# Every fixture under every subcommand, at small horizons: the bundled
# ex1..ex9 and the finite graphs under reference/specs.
SPEC_FILES = ("lc-explicit", "rf-explicit", "finite-path", "finite-spherical", "nested-tail")
FIXTURES = (*(f"ex{i}" for i in range(1, 10)), *SPEC_FILES)
MATRIX_COMMANDS = (
    "solve-dp --horizon 3",
    "solve-dp --horizon 3 --renormalized",
    "capacity --horizon 3",
    "classify",
    "nash-williams --horizon 6",
    "green --x 1 --y 0 --horizon 3",
    "transition --x 0 --y 0 --n 3",
    "transition --x 0 --y 1 --n 3 --series 4",
    "transition --x 0 --y 0 --n 4 --restrict 2",
    "transition --x 0 --y 2 --n 4 --max-product",
    "transition --x 0 --y 0 --n 4 --series 2",
    "transition --x 1 --y 0 --n 3 --series 4 --restrict 2",
    "transition --x 0 --y 1 --n 3 --series 3 --max-product",
    "transition --x 0 --y 9 --n 2",
    "transition --x 0 --y 9 --n 2 --max-product",
    "harnack --set 0,1,2",
    "harnack --set 9",
    "superharmonic --u 1,1,1",
    "hardy --samples 2 --horizon 4",
    "real-sweep --r 1/2 --horizon 3",
)


def case_id(fixture, command):
    return f"{fixture}-{command}"


def argv(fixture, command):
    name, *options = command.split()
    spec = os.path.join(SPECS, f"{fixture}.json") if fixture in SPEC_FILES else fixture
    return [name, "--spec", spec, *options]


def load():
    with open(REFERENCE) as handle:
        return json.load(handle)


def main():
    from nacap.cli import main as cli_main

    previous = load()
    recorded = {}
    for fixture in FIXTURES:
        for command in MATRIX_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv(fixture, command))
            recorded[case_id(fixture, command)] = {
                "exit": code,
                "stderr": err.getvalue(),
                "outputs": json.loads(out.getvalue())["outputs"] if code == 0 else None,
            }
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for key in sorted(recorded):
        if key not in previous:
            print(f"added: {key}")
        elif recorded[key] != previous[key]:
            print(f"changed: {key}")
    print(f"{len(recorded)} runs written to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
