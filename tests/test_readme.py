"""The README's examples run and give what their comments say.

The ``sh`` blocks run through ``main``.  The ``python`` library tour runs
statement by statement; each expression statement ends in a comment that
leads with a Python literal, its value, which may be followed by prose.
"""

import ast
import json
import re
import shlex
from importlib import resources
from pathlib import Path

import pytest

from gtmseq import errors
from gtmseq.cli import _EPILOG, main
from gtmseq.expansion import expand

README = Path(__file__).resolve().parents[1] / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"
SPECS = str(resources.files("gtmseq") / "specs")


def readme_commands():
    """(argv, comment) for each ``gtmseq`` line of the README's sh blocks."""
    commands = []
    in_sh = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("gtmseq "):
            command, _, comment = line.partition("#")
            argv = shlex.split(command.replace("$SPECS", SPECS))[1:]
            commands.append((argv, comment.strip()))
    return commands


COMMANDS = readme_commands()


def example_ids(commands):
    """Each example's subcommand, numbered from its second example on: cf, cf-2."""
    ids, seen = [], {}
    for argv, _ in commands:
        seen[argv[0]] = seen.get(argv[0], 0) + 1
        ids.append(argv[0] if seen[argv[0]] == 1 else f"{argv[0]}-{seen[argv[0]]}")
    return ids


def readme_tour():
    """Source of the README's one ``python`` block."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("```python") + 1
    return "\n".join(lines[start:lines.index("```", start)])


def commented_value(comment):
    """The shortest run of leading words of ``comment`` that is a Python literal."""
    words = comment.split()
    for end in range(1, len(words) + 1):
        try:
            return ast.literal_eval(" ".join(words[:end]))
        except (SyntaxError, ValueError):
            pass
    raise AssertionError(f"comment {comment!r} states no value")


def test_library_tour_gives_commented_values():
    source = readme_tour()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        _, hash_mark, comment = lines[node.end_lineno - 1].partition("#")
        assert hash_mark, f"{code} states no value"
        assert eval(code, namespace) == commented_value(comment), code
        checked += 1
    assert checked >= 4


def test_ci_expects_every_readme_example():
    """CI's installed-console-script step runs the README lines that start with
    ``gtmseq `` (``grep -E '^gtmseq '``) and checks their count against a literal."""
    step = WORKFLOW.read_text(encoding="utf-8")
    expected = re.findall(r'test "\$\(wc -l < readme-examples\.sh\)" -eq (\d+)', step)
    lines = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("gtmseq ")]
    assert len(expected) == 1
    assert len(lines) == int(expected[0]) == len(COMMANDS)


def test_every_subcommand_has_an_example():
    assert sorted({argv[0] for argv, _ in COMMANDS}) == sorted(
        ["gen", "classify", "stammer", "kernel", "eval", "cf", "gap"]
    )


@pytest.mark.parametrize("argv, comment", COMMANDS, ids=example_ids(COMMANDS))
def test_example_runs(capsys, argv, comment):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    command = argv[0]
    if command == "gen":
        assert out.strip() == comment == "01101001 AGREE"
        return
    result = json.loads(out)["result"]
    if command == "classify":
        assert result["status"] == "NonPeriodic" and "NonPeriodic" in comment
    elif command == "stammer":
        assert result["w_numerator"] > result["w_denominator"]  # w > 1
    elif command == "kernel":
        assert len(result["states"]) == 2 and result["complete"]
        assert comment.startswith("2-state")
    elif command == "eval":
        assert result["decimal"] == comment == "0.412454033640"
    elif command == "cf":
        # [0: a(0) + 1, a(1) + 1, ...]: the leading 0, then depth quotients
        assert len(result["quotients"]) == int(argv[argv.index("--depth") + 1]) + 1
        if comment.startswith("["):
            assert result["quotients"] == commented_value(comment)
    elif command == "gap":
        l, k, t = (int(v) for v in argv[1:])
        assert (l, k, t) == (6, 10, 2)
        terms = expand(int(result["x"]) * l, k).terms
        assert [[s, w] for s, w in terms] == result["expansion"]
        assert terms[0] == (1, result["leading_exponent"])
        assert len(terms) == 1 or terms[1][1] - terms[0][1] > t


def test_exit_codes_documented_once_and_alike():
    """``gtmseq --help``, the README and the error types list the same codes."""
    epilog = set(re.findall(r"(?:^ +|; )(\d) ", _EPILOG, re.M))
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Exit codes:"):].split("\n\n", 1)[0]
    readme = set(re.findall(r"`(\d)` ", paragraph))
    raised = {str(error.exit_code) for error in vars(errors).values()
              if isinstance(error, type) and issubclass(error, errors.GtmseqError)}
    assert epilog == readme == {"0", "2"} | raised
