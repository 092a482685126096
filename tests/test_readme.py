"""README examples stay runnable and its config reference stays complete."""

import json
import re
from pathlib import Path

import wiretap_lsl
from wiretap_lsl import errors
from wiretap_lsl.experiment import CONFIG_KEYS, CSV_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the given markdown heading."""
    section = README[README.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    code = fenced_block("## Library quick start", "python")
    assert "n=10_000" in code
    assert 'optimize("gsvd", start)' in code
    exec(compile(code.replace("n=10_000", "n=200"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "secrecy rate (nats/tx antenna):" in out and "Monte Carlo:" in out


def test_documented_config_fields_match_parser():
    example = json.loads(fenced_block("## CLI", "json"))
    optional = README[README.index("Optional fields:") :].split("(defaults")[0]
    documented = set(example) | set(re.findall(r"`(\w+)`", optional))
    assert len(documented) == 15
    assert documented == CONFIG_KEYS


def test_documented_csv_columns_match_writer():
    documented = re.search(r"CSV columns, in order: `([^`]*)`", README).group(1)
    assert [name.strip() for name in documented.split(",")] == CSV_COLUMNS


def test_documented_error_classes_exist():
    # A bare CamelCase name in README is the package's own: exported, or
    # an error class. Other libraries' names are written qualified.
    named = set(re.findall(r"`([A-Z][a-z]+[A-Z]\w*)`", README)) - set(wiretap_lsl.__all__)
    assert {"RankDeficient", "BisectionFailure", "ValidationError"} <= named
    for name in sorted(named):
        cls = getattr(errors, name, None)
        assert isinstance(cls, type) and issubclass(cls, errors.WiretapError), name
