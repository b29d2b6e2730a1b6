"""Run one ``repro`` command with the layer wrappers installed.

Usage: ``python perfbench/traced_cli.py SPANS_JSON -- <repro args...>``

The wrappers go in before :func:`repro.cli.main` runs; the CLI imports
its layers lazily, so it picks the wrapped attributes up.  Spans stay in
memory and are written to ``SPANS_JSON`` when the command ends (worker
processes write theirs to ``SPANS_JSON.workers/``, merged here).
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit(__doc__)
    out = Path(argv[0])
    worker_dir = out.with_name(out.name + ".workers")
    worker_dir.mkdir()
    tracer = Tracer(worker_dir)
    install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv[2:])
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
