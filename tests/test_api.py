"""The package's public names are the ones the README documents."""

import re
from pathlib import Path

import jcdem

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_documented():
    documented = set(re.findall(r"\b\w+\b", README.read_text(encoding="utf-8")))
    assert sorted(set(jcdem.__all__) - documented) == []
    for name in jcdem.__all__:
        assert getattr(jcdem, name) is not None


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
