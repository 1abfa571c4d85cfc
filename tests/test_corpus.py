"""Golden corpus: stdout, stderr and exit code of every command in a manifest.

`tests/golden/corpus.txt` lists one `wstirling` command per line; blank lines
and lines starting with `#` are skipped.  `tests/golden/corpus.json` holds what
each command printed and returned.  Commands run in process through
`cli.main`, from the repository root, so the spec paths under
`tests/golden/specs/` and the messages that quote them are the same everywhere,
and with COLUMNS=80, the width argparse wraps its usage lines to.

After an intended change of output, rewrite the record and review its diff:

    PYTHONPATH=src python3 tests/test_corpus.py
"""

import contextlib
import io
import json
import os
import pathlib
import shlex

from wstirling.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "corpus.txt"
RECORD = ROOT / "tests" / "golden" / "corpus.json"


def commands() -> list:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return {"command": command, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_corpus_matches_record(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert [entry["command"] for entry in record] == commands()
    assert [entry["command"] for entry in record if run(entry["command"]) != entry] == []


def regenerate() -> None:
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    record = [run(command) for command in commands()]
    text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
    RECORD.write_text(text, encoding="utf-8")
    print(f"wrote {len(record)} entries, {len(text)} bytes, to {RECORD.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate()
