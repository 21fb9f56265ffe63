"""The README's "Library use" block runs as written, its shell walkthrough
parses, and its defaults table is complete."""

import os
import re
import shlex

from stressgraph.cli import CONFIG_DEFAULTS, build_parser
from test_cli import write_corpus

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_text() -> str:
    with open(README, "r", encoding="utf-8") as fh:
        return fh.read()


def library_block() -> str:
    text = readme_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    write_corpus(tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_block(), "README.md", "exec"), namespace)
    ppmi, n_words = namespace["ppmi"], len(namespace["tok"].vocab)
    assert ppmi.format == "coo" and ppmi.shape == (n_words, n_words) and ppmi.nnz > 0
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_defaults_table_lists_every_config_key():
    text = readme_text()
    section = text[text.index("### Defaults"):]
    table = re.match(r"### Defaults\n\n((?:\|.*\n)+)", section).group(1)
    keys = re.findall(r"\| `(\w+)`", table)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(CONFIG_DEFAULTS)


def walkthrough_commands() -> list:
    """The argv of every `stressgraph ...` command in the README's shell blocks,
    with backslash continuations joined and comments dropped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["stressgraph"]:
                commands.append(argv[1:])
    return commands


def test_readme_walkthrough_commands_parse():
    commands = walkthrough_commands()
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    subcommands = parser._subparsers._group_actions[0].choices
    assert {argv[0] for argv in commands} == set(subcommands)
