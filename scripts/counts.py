#!/usr/bin/env python3
"""Print the size counts that every change to sardist reports, one `name value` per line.

    python scripts/counts.py

- `src_lines`: lines of Python under src/;
- `code_lines`: those lines less blanks, comments and docstrings, so that
  deleting a comment does not read as a smaller program;
- `cli_options`: settable command-line options, from `cli.COMMANDS`: each
  subcommand's flags plus its one `--config` (`--help` and `--version` are
  not settings);
- `env_vars_read`: distinct environment variable names that src/ reads
  through `os.environ` or `os.getenv` with a literal name;
- `config_fields.<Config>`: fields of each config dataclass, then their total;
- `public_defs`: module-level functions and classes under src/sardist whose
  name has no leading underscore.
"""

import ast
import dataclasses
import io
import os
import re
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, SRC)

from sardist import cli  # noqa: E402
from sardist.inference import SweepConfig  # noqa: E402
from sardist.model import ModelConfig  # noqa: E402
from sardist.preprocess import PreprocessConfig  # noqa: E402
from sardist.synth import SynthConfig  # noqa: E402
from sardist.training import TrainConfig  # noqa: E402

CONFIGS = (SynthConfig, PreprocessConfig, ModelConfig, TrainConfig, SweepConfig)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
ENV_READ = re.compile(r"""(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["']([^"']+)["']""")


def sources() -> list[str]:
    paths = []
    for root, _, names in os.walk(SRC):
        paths += [os.path.join(root, n) for n in sorted(names) if n.endswith(".py")]
    return sorted(paths)


def code_lines(text: str) -> int:
    """Lines of the Python source `text` that hold a token other than a comment or a
    docstring (a module's, class's or function's leading string)."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts() -> dict[str, int]:
    texts = []
    for path in sources():
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    options = 0
    for _, _, rows, tables in cli.COMMANDS.values():
        flags = cli._flag_types(rows, tables)
        options += len(flags) + (1 if flags else 0)   # the parser adds --config iff flags
    fields = {f"config_fields.{c.__name__}": len(dataclasses.fields(c)) for c in CONFIGS}
    return {
        "src_lines": sum(text.count("\n") for text in texts),
        "code_lines": sum(map(code_lines, texts)),
        "cli_options": options,
        "env_vars_read": len({name for text in texts for name in ENV_READ.findall(text)}),
        **fields,
        "config_fields": sum(fields.values()),
        "public_defs": sum(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            for text in texts for node in ast.parse(text).body),
    }


if __name__ == "__main__":
    for name, value in counts().items():
        print(f"{name} {value}")
