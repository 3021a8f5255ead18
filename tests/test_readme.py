"""README.md as a contract that runs.

Every `fracseries` line of README's fenced `sh` blocks runs in-process
through `cli.main`, in an empty directory that holds only a copy of
`sir.json`, and so does the fenced `python` block.  README states each
command's result in comments: `# exit N` ends the command line, and each
comment line under it is either a file it writes with that file's header
line (`# out/samples.csv: t,S,I,R`) or one of its stderr lines
(`# error: ...`, `# warning: ...`), verbatim and in order.  A command
creates exactly the files stated and their directories, so a failing one
creates nothing.  Every `error:` or `warning:` line that README quotes
elsewhere must be one of these stated lines.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from fracseries import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SHIPPED_SIR = README.parent / "sir.json"

FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
COMMAND = re.compile(r"fracseries (.*?)  # exit (\d)")
FILE = re.compile(r"# (\S+\.csv): (\S+)")
MESSAGE = re.compile(r"# ((?:error|warning): .+)")
QUOTED = re.compile(r"`((?:error|warning): [^`]+)`")


def _fenced(text: str, language: str) -> list[str]:
    return [body for lang, body in FENCE.findall(text) if lang == language]


def _commands(text: str) -> list[tuple[str, int, dict[str, str], list[str]]]:
    """(arguments, exit code, {file: header}, stderr lines) per command."""
    found: list = []
    for block in _fenced(text, "sh"):
        command = None
        for line in block.splitlines():
            if line.startswith("fracseries"):
                match = COMMAND.fullmatch(line)
                if not match:
                    raise ValueError(f"README command without '  # exit N': {line}")
                command = (match[1], int(match[2]), {}, [])
                found.append(command)
            elif command and (match := MESSAGE.fullmatch(line)):
                command[3].append(match[1])
            elif command and (match := FILE.fullmatch(line)):
                command[2][match[1]] = match[2]
            elif command and line.startswith("#"):
                raise ValueError(f"README line under {command[0]!r} states nothing "
                                 f"this test checks: {line}")
            else:
                command = None
    return found


TEXT = README.read_text()
COMMANDS = _commands(TEXT)


@pytest.mark.parametrize("args, code, files, stderr", COMMANDS,
                         ids=[c[0] for c in COMMANDS])
def test_command_does_what_readme_states(tmp_path: Path, monkeypatch, capsys,
                                         args, code, files, stderr):
    shutil.copy(SHIPPED_SIR, tmp_path / "sir.json")
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(args)) == code
    assert capsys.readouterr().err == "".join(line + "\n" for line in stderr)
    created = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    folders = {str(d) for name in files for d in Path(name).parents[:-1]}
    assert created == sorted({*files, *folders, "sir.json"})
    for name, header in files.items():
        assert (tmp_path / name).read_text().split("\n", 1)[0] == header


def test_readme_runs_the_cli_and_quotes_only_what_it_runs():
    # Guards against a parser that silently finds nothing to run.
    assert sum(line.startswith("fracseries") for block in _fenced(TEXT, "sh")
               for line in block.splitlines()) == len(COMMANDS) >= 15
    assert {c[1] for c in COMMANDS} == {0, 1, 2}
    stated = {line for c in COMMANDS for line in c[3]}
    assert set(QUOTED.findall(TEXT)) <= stated


def test_python_example_runs(tmp_path: Path, monkeypatch, capsys):
    [block] = _fenced(TEXT, "python")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert 0.0 < float(capsys.readouterr().out) < 700.0
    assert list(tmp_path.iterdir()) == []


def test_parser_pairs_lines_and_refuses_unchecked_ones():
    text = "```sh\nfracseries solve --degree 10001  # exit 2\n# error: wrong\n```\n"
    [(args, code, files, stderr)] = _commands(text)
    assert (args, code, files, stderr) == ("solve --degree 10001", 2, {}, ["error: wrong"])
    with pytest.raises(ValueError, match="states nothing"):
        _commands("```sh\nfracseries solve  # exit 0\n# writes out\n```\n")
    with pytest.raises(ValueError, match="without"):
        _commands("```sh\nfracseries solve\n```\n")
