"""The README's examples: its python blocks run and print what their
comments say, its `lightpos solve` input solves and its `lightpos
signal` input prints the CSV shown.  Its scenario file table lists the
keys the loader accepts."""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

from lightpos.cli import EXIT_OK, main
from lightpos.scenario import SCENARIO_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```",
                      README.read_text(encoding="utf-8"), flags=re.S)


def test_readme_python_blocks_print_what_they_say():
    blocks = _blocks("python")
    assert blocks
    for code in blocks:
        out = io.StringIO()
        with redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        # Each print line's comment is what it prints.
        said = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
        assert said
        assert out.getvalue().splitlines() == said


def _json_input(key):
    """The README's JSON input block that has the member ``key``."""
    (text,) = [b for b in _blocks("json") if f'"{key}"' in b]
    return text


def test_readme_solve_input_solves(tmp_path, capsys):
    path = tmp_path / "readings.json"
    path.write_text(_json_input("readings"))
    assert main(["solve", "--input", str(path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "unique" and out["iterations"] == 0


def test_readme_signal_input_prints_its_csv(tmp_path, capsys):
    path = tmp_path / "components.json"
    path.write_text(_json_input("components"))
    assert main(["signal", "--input", str(path)]) == EXIT_OK
    (csv,) = _blocks("csv")
    assert capsys.readouterr().out == csv


def test_readme_scenario_table_lists_the_loaders_keys():
    text = README.read_text(encoding="utf-8")
    table = text.split("### Scenario files", 1)[1].split("\n\n")[2]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert sorted(keys) == sorted(SCENARIO_KEYS)
    assert len(keys) == len(set(keys))
