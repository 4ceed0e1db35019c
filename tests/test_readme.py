"""The README's command-line section, run as written.

Every ``spinhl ...`` line of its command block goes through ``cli.main`` and
must exit 0; ``pfaffian --file`` reads the documented input format, written to
a temporary file.  The listed ``verify`` subcommands must be the checks.
"""

import json
import os
import re
import shlex

import pytest

from spinhl.cli import main
from spinhl.identities import CHECK_NAMES

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _section(title):
    with open(README) as handle:
        text = handle.read()
    return text.split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]


def _blocks(section, lang=""):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, section, re.M | re.S)


COMMAND_LINE = _section("Command line")
COMMANDS = [line for line in _blocks(COMMAND_LINE)[0].splitlines() if line.startswith("spinhl ")]


def test_readme_lists_the_commands():
    assert len(COMMANDS) == 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero(capsys, tmp_path, line):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    if argv[0] == "pfaffian":
        matrix = tmp_path / "matrix.json"
        matrix.write_text(_blocks(COMMAND_LINE, "json")[0])
        argv[argv.index("--file") + 1] = str(matrix)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if comment.strip():
        assert json.loads(out)["value"] == "%s/1" % comment.strip()


def test_readme_verify_subcommands_are_the_checks():
    listed = re.search(r"`verify` subcommands: (.*?)\.\n", COMMAND_LINE, re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", listed)) == CHECK_NAMES + ("all",)
