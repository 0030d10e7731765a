#!/usr/bin/env python3
"""Print the size counts that every change to sardist reports, one `name value` per line.

    python scripts/counts.py

- `src_lines`: lines of Python under src/;
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
import os
import re
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, SRC)

from sardist import cli  # noqa: E402
from sardist.inference import SweepConfig  # noqa: E402
from sardist.model import ModelConfig  # noqa: E402
from sardist.preprocess import PreprocessConfig  # noqa: E402
from sardist.synth import SynthConfig  # noqa: E402
from sardist.training import TrainConfig  # noqa: E402

CONFIGS = (SynthConfig, PreprocessConfig, ModelConfig, TrainConfig, SweepConfig)
ENV_READ = re.compile(r"""(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["']([^"']+)["']""")


def sources() -> list[str]:
    paths = []
    for root, _, names in os.walk(SRC):
        paths += [os.path.join(root, n) for n in sorted(names) if n.endswith(".py")]
    return sorted(paths)


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
