"""Command-line runner: ``zitterlab run <config> [--check] [--out DIR]``.

Config files are flat UTF-8 ``key = value`` documents; ``#`` starts a comment.
List values are comma separated, complex values use Python literals (``1+0.5j``).
Exit codes: 0 pass, 1 check failure, 2 config error, 3 runtime error.
Parsing a config, ``version`` and ``list-scenarios`` load no numpy; a run
imports the scenarios once its config has parsed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import __version__
from .config import SCENARIOS, ScenarioConfig
from .errors import ConfigError, MissingRequired, OutOfRange, UnknownField, UnknownScenario, ZitterlabError

# key -> its ScenarioConfig field; the field's metadata holds the value parser
# and the per-scenario defaults.
_KEYS = {f.name: f for f in fields(ScenarioConfig) if "parse" in f.metadata}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a key-value config document.

    Raises UnknownField / UnknownScenario / OutOfRange / MissingRequired with
    line-numbered diagnostics.  A key left out takes the scenario's own
    default where its field has one, so the config holds every value the run
    uses; `provided` names the keys the document gave.
    """
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise OutOfRange(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise UnknownField(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise OutOfRange(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _KEYS[key].metadata["parse"](raw_value)
        except ValueError as exc:
            if key == "scenario":
                raise UnknownScenario(f"line {lineno}: scenario '{raw_value}' is not supported") from None
            raise OutOfRange(f"line {lineno}: bad value for '{key}': {exc}") from None
    if "scenario" not in values:
        raise MissingRequired("config is missing the required key 'scenario'")
    provided = frozenset(values)
    for key, f in _KEYS.items():
        if key not in values and values["scenario"] in f.metadata["by_scenario"]:
            values[key] = f.metadata["by_scenario"][values["scenario"]]
    return ScenarioConfig(provided=provided, **values)


def parse_config_file(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zitterlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("config", help="path to the key-value config document")
    run_p.add_argument("--check", action="store_true", help="fail (exit 1) if any scenario check fails")
    run_p.add_argument("--out", default="out", help="output directory (default: ./out)")
    sub.add_parser("list-scenarios", help="print the scenario catalog")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "list-scenarios":
        for name in SCENARIOS:
            print(name)
        return 0

    try:
        cfg = parse_config_file(args.config)
        from .scenarios import run_scenario

        result = run_scenario(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ZitterlabError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in result.files:
        print(f"wrote {path}")
    for name, ok, detail in result.checks:
        print(f"{'PASS' if ok else 'FAIL'} {result.scenario}:{name} ({detail})")
    if args.check and not result.passed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
