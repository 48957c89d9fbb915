"""README's command-line and library examples run as written.

Each ``codebounds ...`` line of the ``sh`` block under ``## Command line``
runs through ``cli.main``, in file order and in one directory, so a file one
line writes is there for the lines after it.  Each must exit 0, and every
integer in its trailing comment must appear as a token of its stdout.  The
``>>>`` sessions under ``## Library`` run as one doctest.
"""

import doctest
import os
import re
import shlex

from codebounds import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def command_lines():
    """The (command, comment) pairs of README's command-line block, in order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Command line\n"):]
    block = section[section.index("```sh\n") + 6:]
    block = block[:block.index("```")]
    return [(command.strip(), comment.strip())
            for command, _, comment in (line.partition("#") for line in block.splitlines())
            if command.startswith("codebounds ")]


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert lines
    for command, comment in lines:
        code = cli.main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == 0, command
        tokens = set(re.findall(r"[\w.]+", out))
        for number in re.findall(r"\d+", comment):
            assert number in tokens, (command, number)


def test_readme_library_sessions_run():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library\n"):]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README library",
                                               README, 0)
    assert doctest.DocTestRunner().run(test) == (0, len(test.examples))
