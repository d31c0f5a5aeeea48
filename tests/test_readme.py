"""The README's examples against the code: each `umbilic` line of the
Command-line block parses, and the Library block runs.  A renamed option,
command or public name fails here instead of leaving the README stale.
"""

import shlex
from pathlib import Path

from umbilic.cli import _build_parser, _surface_from_args


def test_readme_commands_parse():
    # every `umbilic ...` line of the README's command block names only
    # options the parser knows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [
        shlex.split(line)[1:] for line in block.splitlines()
        if line.startswith("umbilic ")
    ]
    assert len(commands) == 6
    parser = _build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "gen":
            # gen reads every shape option the line gives
            _surface_from_args(args)


def test_readme_library_block_runs(capsys):
    # the README's library example runs against the public names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert capsys.readouterr().out.count("\n") == 3
