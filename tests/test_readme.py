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


def _output_table() -> dict[str, tuple[list[str], list[str]]]:
    """README's table of outputs: the names in each command's two columns."""
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|(.*)\|(.*)\|$", README, flags=re.M)
    return {command: (re.findall(r"`([^`]+)`", files), re.findall(r"`([^`]+)`", flags))
            for command, files, flags in rows}


def test_readme_output_table_matches_the_stage_declarations():
    table = _output_table()
    assert list(table) == list(cli.STAGES)
    run_by_pipeline = [name for name in cli.STAGES if name not in ("pipeline", "align-baseline")]
    for name, stage in cli.STAGES.items():
        files, flags = table[name]
        if name == "pipeline":  # its row lists only its own files
            files = [*files, *(file for other in run_by_pipeline for file in table[other][0])]
        assert sorted(files) == sorted([*stage.outputs, cli._manifest_name(name)]), name
        defaults = [default for default in stage.flags.values() if default]
        assert flags == [cli._flag(dest) for dest in stage.flags] + defaults, name
