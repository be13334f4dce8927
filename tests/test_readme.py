"""README examples: the Quick start values and every command-line example."""

import argparse
import ast
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from freebeta.cli import build_parser, main
from test_cli import _strict_constant

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


COMMANDS = [shlex.split(line)
            for line in readme_block("Command line", "sh").splitlines()]


def test_quick_start_values():
    code = readme_block("Quick start", "python")
    namespace, values = {}, []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            expr = ast.Expression(node.value)
            values.append(eval(compile(expr, "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    moments, via_ncl, via_fock, (lo, hi) = values
    assert "# (1, 1, 2, 11/2)" in code
    assert moments == (1, 1, 2, Fraction(11, 2))
    assert code.count("# Fraction(11, 2),") == 2
    assert via_ncl == via_fock == Fraction(11, 2)
    assert "# (0.0505..., 4.9494...)" in code
    assert (str(lo)[:6], str(hi)[:6]) == ("0.0505", "4.9494")


def test_every_subcommand_has_one_example():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert all(argv[0] == "freebeta" for argv in COMMANDS)
    assert sorted(argv[1] for argv in COMMANDS) == sorted(sub.choices)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_runs(capsys, argv):
    code = main(argv[1:])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out, parse_constant=_strict_constant)
    assert payload["command"] == argv[1]
