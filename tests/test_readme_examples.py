"""The README's command-line examples, run as written.

Every `$ ` line of a console block runs through `sh -c`, with a `pda` on
PATH that runs this checkout's `pdakit.cli`.  Its stdout must equal the
lines shown under it, up to the next `$ ` line, except that an `elapsed`
value may differ and a `...` line ends the comparison there.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ELAPSED = re.compile(r'"elapsed": [0-9.e+-]+')


def console_examples() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for each `$ ` line of the README's
    console blocks, trailing blank lines dropped."""
    examples: list[tuple[str, list[str]]] = []
    block = None
    for line in (ROOT / "README.md").read_text().splitlines():
        if block is None:
            if line.strip() == "```console":
                block = []
            continue
        if line.strip() == "```":
            block = None
        elif line.startswith("$ "):
            examples.append((line[2:], []))
        elif examples:
            examples[-1][1].append(line)
    for _, out in examples:
        while out and not out[-1]:
            out.pop()
    return examples


EXAMPLES = console_examples()


@pytest.fixture(scope="module")
def shim_path(tmp_path_factory) -> str:
    bin_dir = tmp_path_factory.mktemp("bin")
    shim = bin_dir / "pda"
    shim.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH="{ROOT / "src"}" exec "{sys.executable}" -m pdakit.cli "$@"\n'
    )
    shim.chmod(0o755)
    return f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 8
    assert all(cmd.startswith(("pda ", "printf ")) for cmd, _ in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(command, expected, shim_path):
    env = {k: v for k, v in os.environ.items() if k != "PDA_SEARCH_BUDGET"}
    env["PATH"] = shim_path
    proc = subprocess.run(
        ["sh", "-c", command], capture_output=True, text=True, env=env, timeout=120
    )
    got = proc.stdout.splitlines()
    if "..." in expected:
        expected = expected[: expected.index("...")]
        got = got[: len(expected)]
    assert [ELAPSED.sub('"elapsed": _', g) for g in got] == [
        ELAPSED.sub('"elapsed": _', e) for e in expected
    ], proc.stderr
