"""Rewrite the goldens that tests/data/goldens.json names.

Each manifest entry is one lietor run from the repo root:

- ``argv``: the arguments after ``lietor``;
- ``exit``: the exit code the run gives, 0 or 1;
- ``report``: the golden of its ``--out`` report without the ``command``
  key (the one key that names the run's own output path);
- ``stdout``, where the run prints more than its checks: the golden of
  its standard output;
- ``files``, where the run writes a file through another option: that
  option and the golden of the file, as ``{"--out-roots": "roots_b3.json"}``.

The runner appends ``--out`` and each option of ``files`` with a path in a
temporary directory.  Usage::

    python tests/regen_goldens.py           # through lietor.cli.main in-process
    python tests/regen_goldens.py lietor    # through an installed command

It writes every golden and exits 1 when a run gives another exit code than
its entry names.  A change that alters a verdict reruns it, and the diff of
the goldens under tests/data is its evidence.  ``tests/test_cli.py`` runs
each entry through the same ``run`` and compares.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
MANIFEST = DATA / "goldens.json"


def entries():
    return json.loads(MANIFEST.read_text())


def without_command(report: str) -> str:
    """The --out report without its command line, which names the --out
    path of the run; the keys are sorted, so command is never the last."""
    return "".join(line for line in report.splitlines(keepends=True)
                   if not line.startswith('  "command": '))


def run(entry, command=None):
    """Run one entry from the repo root, in-process through
    ``lietor.cli.main``, or as ``command + argv`` when a command is given.
    Returns the exit code and the text of each golden the entry names, None
    for a file the run did not write."""
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {entry["report"]: "--out", **{name: opt for opt, name in
                                                entry.get("files", {}).items()}}
        argv = list(entry["argv"])
        for name, opt in outputs.items():
            argv += [opt, os.path.join(tmp, name)]
        if command:
            proc = subprocess.run(command + argv, cwd=ROOT, capture_output=True, text=True)
            code, stdout = proc.returncode, proc.stdout
        else:
            from lietor.cli import main

            buf, cwd = io.StringIO(), os.getcwd()
            os.chdir(ROOT)
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
            finally:
                os.chdir(cwd)
            stdout = buf.getvalue()
        texts = {name: Path(tmp, name).read_text() if Path(tmp, name).exists() else None
                 for name in outputs}
    if texts[entry["report"]] is not None:
        texts[entry["report"]] = without_command(texts[entry["report"]])
    if "stdout" in entry:
        texts[entry["stdout"]] = stdout
    return code, texts


def main(command) -> int:
    bad = 0
    for entry in entries():
        code, texts = run(entry, command)
        for name, text in texts.items():
            if text is not None:
                (DATA / name).write_text(text)
        if code != entry["exit"]:
            print(f"lietor {' '.join(entry['argv'])}: exit {code}, expected {entry['exit']}",
                  file=sys.stderr)
            bad = 1
    return bad


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main(sys.argv[1:]))
