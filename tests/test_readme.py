"""README's CLI examples and config example still run against the program."""

from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from lsimpute import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def _commands() -> list[str]:
    """Each `lsimpute ...` command of README's bash blocks, continuation lines joined."""
    text = "\n".join(_blocks("bash")).replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip().startswith("lsimpute ")]


COMMANDS = _commands()


def test_readme_has_an_example_for_every_command():
    named = {arg for command in COMMANDS for arg in shlex.split(command)}
    assert {"extract-graph", "node2vec", "train-sgns", "filter-corpus", "impute",
            "align-baseline", "evaluate", "pipeline"} <= named


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    ns = cli.build_parser().parse_args(shlex.split(command)[1:])
    assert callable(ns.func)


def test_readme_config_example_builds_every_section():
    (block,) = _blocks("json")
    config = json.loads(block)
    assert set(config) == set(cli.DEFAULTS)
    flags = argparse.Namespace()  # no flag given: the file's values stand
    for section in config:
        values = cli.resolve_section(section, config, flags)
        if section in cli._CONFIG_CLASSES:
            cli._build(section, values)
