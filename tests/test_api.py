"""The package's public names and CLI examples are the ones the README documents."""

import inspect
import re
import shlex
from pathlib import Path

import jcdem
from jcdem.cli import main, parse_args

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_documented():
    documented = set(re.findall(r"\b\w+\b", README.read_text(encoding="utf-8")))
    assert sorted(set(jcdem.__all__) - documented) == []
    for name in jcdem.__all__:
        assert getattr(jcdem, name) is not None


def test_library_entropies_are_in_nats():
    # only the CLI converts units, through --log-base
    for fn in (getattr(jcdem, name) for name in jcdem.__all__):
        assert "log_base" not in inspect.signature(fn).parameters, fn
    assert "k_max" not in inspect.signature(jcdem.revival_analysis).parameters


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("jc-entangle ")]
    assert len(commands) == 3
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        config = parse_args(argv)
        for path in filter(None, (config.out_csv, config.out_svg)):
            assert f"wrote {path}" in printed
            assert (tmp_path / path).stat().st_size > 0
