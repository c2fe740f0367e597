"""The README's examples print what the README says they print.

The library example is run with stdout captured, and each printed line is
compared with the `# ...` comment on its `print` line.  Each `$ symfree ...`
example whose full output the README shows runs in process through
`cli.main`, in a directory holding the set file the README's `printf` line
writes; examples with a redirect or with `...` in their output are skipped.
"""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from symfree import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def shell_examples() -> list[tuple[str, str]]:
    """Each `$ ...` line of the README's plain blocks and the lines printed
    under it, up to the next `$` line or the block's end."""
    examples = []
    for lang, body in BLOCKS:
        if lang:
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command[2:], output))
    return examples


EXAMPLES = shell_examples()
[PRINTF] = [c for c, _ in EXAMPLES if c.startswith("printf ")]
SHOWN = [
    (command, output)
    for command, output in EXAMPLES
    if command.startswith("symfree ") and output and ">" not in command and "..." not in output
]


def test_library_example_prints_its_comments():
    [code] = [body for lang, body in BLOCKS if lang == "python"]
    expected = [line.split("  # ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


@pytest.mark.parametrize("command, output", SHOWN, ids=[c for c, _ in SHOWN])
def test_cli_example_prints_its_output(command, output, tmp_path, monkeypatch, capsys):
    text, path = re.fullmatch(r"printf '(.*)' > (\S+)", PRINTF).groups()
    (tmp_path / path).write_text(text.encode().decode("unicode_escape"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == output
