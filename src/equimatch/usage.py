"""The argparse parser of the command table, for help and usage errors only.

`cli.run` imports this module only for an argv its fast parse leaves
(`--help`, `--opt=value`, an abbreviation, an unknown or repeated token,
a missing or bad value), so a command that runs never compiles it or
loads `argparse`, `gettext` or `locale`.
"""

from __future__ import annotations

import argparse

from . import __version__
from .cli import COMMANDS, SOURCE, Option, write_stdout


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        """Help on stdout goes through `write_stdout`: argparse's own writer ignores a closed pipe."""
        if file is None:
            write_stdout(self.format_help())
        else:
            super().print_help(file)


def _add_argument(target, opt: Option) -> None:
    """`opt` added to an argparse parser or group."""
    kwargs = {"default": opt.default, "help": opt.help}
    if opt.store_true:
        kwargs["action"] = "store_true"
    else:
        kwargs["type"] = opt.type
    if opt.flag.startswith("-"):  # argparse refuses `required` for a positional
        kwargs["required"] = opt.required
    target.add_argument(*filter(None, (opt.short, opt.flag)), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`: for help, and for the argv `cli._fast_parse` leaves."""
    parser = _Parser(
        prog="equimatch",
        description="Exact verification of matching-space injections on small graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.source:
            src = p.add_mutually_exclusive_group(required=True)
            for opt in SOURCE:
                _add_argument(src, opt)
        for opt in command.options:
            _add_argument(p, opt)
    return parser
