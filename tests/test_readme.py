"""The README's examples: its python blocks run and print what their
comments say, and its `lightpos solve` input solves."""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

from lightpos.cli import EXIT_OK, main

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


def test_readme_solve_input_solves(tmp_path, capsys):
    (text,) = _blocks("json")
    path = tmp_path / "readings.json"
    path.write_text(text)
    assert main(["solve", "--input", str(path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "unique" and out["iterations"] == 0
