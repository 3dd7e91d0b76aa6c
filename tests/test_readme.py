"""The README's examples run as written: its ``>>>`` session under doctest,
and each complete ``$ dqsym`` transcript through ``cli.main``."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from dqsym import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```$", README, re.M | re.S)

# a transcript with a "..." line shows only part of its output
TRANSCRIPTS = {
    block.split()[2]: block
    for block in BLOCKS
    if block.startswith("$ dqsym ") and "..." not in block
}


def test_transcripts_found():
    assert sorted(TRANSCRIPTS) == ["coeff", "relation-check", "shuffles", "tableaux", "verify"]


def test_session():
    (session,) = [block for block in BLOCKS if block.startswith(">>> ")]
    test = doctest.DocTestParser().get_doctest(session, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))


@pytest.mark.parametrize("command", sorted(TRANSCRIPTS))
def test_transcript(command, capsys):
    line, expected = TRANSCRIPTS[command].split("\n", 1)
    assert cli.main(shlex.split(line)[2:]) == 0
    assert capsys.readouterr().out == expected
