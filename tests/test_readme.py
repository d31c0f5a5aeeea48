"""The README's examples against the code: each `umbilic` line of the
Command-line block parses, each `<command> --<option>` span of its prose
names an option of that command, each CSV column list is the header its
command writes, each `meta.spectral` field list is the keys `verify`
writes there, the stop rule of `lambda1` is the one its ConvergenceError
states, and the Library block runs.  A renamed or removed option,
command, column, field or public name fails here instead of leaving the
README stale.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from umbilic.cli import _build_parser, _surface_from_args, main
from umbilic.spectral import ConvergenceError, lambda1
from umbilic.surfgen import PerturbedSphere, generate


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


def test_readme_prose_options_exist():
    # an inline span such as `sweep --slack` names an option its command's
    # parser knows, so a removed option cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = "".join(readme.split("```")[::2])
    spans = re.findall(r"`(gen|analyze|verify|sweep|converge) (--[\w-]+)", prose)
    assert ("sweep", "--slack") in spans
    commands = _build_parser()._subparsers._group_actions[0].choices
    unknown = [
        f"{command} {option}" for command, option in spans
        if option not in commands[command]._option_string_actions
    ]
    assert unknown == []


def test_readme_library_block_runs(capsys):
    # the README's library example runs against the public names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert capsys.readouterr().out.count("\n") == 3


def test_readme_csv_columns_match_headers(tmp_path):
    # the README's column list of each CSV table is the header its command
    # writes, so a renamed, added or moved column fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = dict(re.findall(r"^- `(analyze|sweep|converge)[^`]*`: `([^`]+)`", readme, re.M))
    assert sorted(listed) == ["analyze", "converge", "sweep"]
    mesh = tmp_path / "s1.off"
    assert main(["gen", "--kind", "sphere", "--subdiv", "1", "--out", str(mesh)]) == 0
    runs = {
        "analyze": ["analyze", "--mesh", str(mesh), "--json-out", str(tmp_path / "s.json")],
        "sweep": ["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.4",
                  "--subdiv", "1"],
        "converge": ["converge", "--subdivs", "1,2"],
    }
    for command, argv in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main([*argv, "--out", str(out)]) == 0, command
        header = out.read_text().splitlines()[0]
        assert header.split(",") == listed[command].split(", "), command


def test_readme_meta_spectral_fields_match_verify(tmp_path):
    # the README's two `meta.spectral` field lists, certified and not, are
    # the keys `verify` writes there, so a renamed or added field fails here
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    lists = re.search(r"`meta\.spectral` holds the eigensolver's diagnostics: (.*?) When "
                      r"`lambda1` did not certify it holds (.*?) instead", readme).groups()
    certified, uncertified = [sorted(re.findall(r"`(\w+)`", part)) for part in lists]
    mesh, out = tmp_path / "s2.off", tmp_path / "report.json"
    assert main(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh)]) == 0
    verify = ["verify", "--mesh", str(mesh), "--epsilon", "0.2", "--alpha", "0.5",
              "--out", str(out)]
    for tol, listed, status in [("1e-8", certified, 0), ("1e-17", uncertified, 3)]:
        assert main([*verify, "--tol", tol]) == status, tol
        assert sorted(json.loads(out.read_text())["meta"]["spectral"]) == listed, tol


def test_readme_stop_rule_is_lambda1s():
    # the README's stop rule for lambda1 is the one its ConvergenceError
    # names, so a changed threshold cannot leave the README stale
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    documented = re.findall(r"residual `<= tol \* ([^`]+)`", readme)
    with pytest.raises(ConvergenceError) as failed:
        lambda1(generate(PerturbedSphere(1.0), 2), tol=1e-17)
    stated = re.match(r"residual above tol=\S+ \* (.+?) among ", str(failed.value))[1]
    assert documented == [stated]
