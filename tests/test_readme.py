"""The README's command-line walkthrough and library examples, run as
written: a flag it shows must still exist, every output file it lists must
be written, and every line it shows printed must be printed."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import evdepth
from evdepth.cli import main
from evdepth.costvol import shutdown_pools

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough():
    """The steps of the README's ``sh`` blocks, in order: ``write`` a
    heredoc, ``run`` an ``evdepth`` command, check that the files a
    ``# dir/: name ...`` comment lists ``exist``, or ``cmp`` two files."""
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = iter(block.replace("\\\n", " ").splitlines())
        for line in lines:
            if heredoc := re.fullmatch(r"cat > (\S+) <<'EOF'", line):
                body = "".join(f"{text}\n" for text in iter(lines.__next__, "EOF"))
                steps.append(("write", heredoc[1], body))
            elif line.startswith("evdepth "):
                steps.append(("run", shlex.split(line, comments=True)[1:]))
            elif listed := re.fullmatch(r"# (\S+)/: (.*)", line):
                steps.append(("exists", listed[1],
                              re.findall(r"\S+\.\w+", listed[2])))
            elif line.startswith("cmp "):
                steps.append(("cmp", *shlex.split(line, comments=True)[1:]))
    return steps


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    steps = walkthrough()
    assert {step[1][0] for step in steps if step[0] == "run"} == {
        "simulate", "depth", "eval", "ablate"}
    assert any(step[0] == "exists" for step in steps)
    monkeypatch.chdir(tmp_path)
    try:
        for kind, *args in steps:
            if kind == "write":
                Path(args[0]).write_text(args[1])
            elif kind == "run":
                assert main(args[0]) == 0, args[0]
            elif kind == "exists":
                for name in args[1]:
                    assert (Path(args[0]) / name).is_file(), f"{args[0]}/{name}"
            else:
                assert Path(args[0]).read_bytes() == Path(args[1]).read_bytes()
    finally:
        shutdown_pools()


def test_library_examples_run():
    # the ``python`` blocks run in order in a fresh interpreter, and a
    # ``# text`` comment right after a ``print`` is the line it prints
    code = "".join(re.findall(r"```python\n(.*?)```", README.read_text(), re.S))
    printed = re.findall(r"^print\(.*\n# (.*)$", code, re.M)
    assert printed
    src = os.path.dirname(os.path.dirname(evdepth.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == printed


def test_layout_table_lists_every_module():
    listed = re.findall(r"^\| `evdepth\.(\w+)` \|", README.read_text(), re.M)
    package = README.parent / "src" / "evdepth"
    modules = [path.stem for path in package.glob("*.py")
               if path.stem != "__init__"]
    assert sorted(listed) == sorted(modules)
