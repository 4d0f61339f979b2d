"""Time-to-first-trial probe for ``setup_s``.

Usage: python bench/setup_probe.py <CLI arguments>

Runs the CLI entry point ``rearrange_lab.cli.run`` on the given arguments,
so it imports the package, parses flags and builds the configuration
exactly as ``python -m rearrange_lab`` does, and exits with code 0 at the
call that would start the first trial (``verify.run_suite`` or
``search.search``).  It exits non-zero if the CLI returns before that
point.
"""

import importlib
import sys

import rearrange_lab.cli as cli


class _FirstTrial(Exception):
    pass


def _stop(*args, **kwargs):
    raise _FirstTrial


def main() -> int:
    # The package re-exports the function ``search`` over its submodule.
    entry_points = (importlib.import_module("rearrange_lab.verify").run_suite,
                    importlib.import_module("rearrange_lab.search").search)
    # Rebind every name the package holds for an entry point, however the
    # CLI imports it.
    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "rearrange_lab" and m is not None]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in entry_points):
                setattr(module, attr, _stop)
    try:
        code = cli.run(sys.argv[1:])
    except _FirstTrial:
        return 0
    print(f"setup probe: the CLI returned {code} before its first trial",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
