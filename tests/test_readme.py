"""The README's "Library use" block runs as written, and its defaults table is complete."""

import os
import re

from stressgraph.cli import CONFIG_DEFAULTS
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
