"""Traced stand-in for ``python -m cone_spectra ARGS`` (cli-readme, --trace 1).

Times ``import cone_spectra`` in this fresh process, then runs
``cone_spectra.cli.run(ARGS)`` under the tracer and prints one JSON line with
the exit code, the CLI's output text, the import record and the per-layer
summary.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, timed_import


def main(argv) -> int:
    imported = timed_import()
    from cone_spectra import cli

    tracer = Tracer()
    tracer.install()
    try:
        code, text = cli.run(argv)
    finally:
        tracer.uninstall()
    print(json.dumps({"code": code, "output": text, "import": imported, "layers": tracer.summary()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
