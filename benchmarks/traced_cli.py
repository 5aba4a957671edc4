"""Run the krylov-chain CLI with the benchmark's tracing installed.

    python3 benchmarks/traced_cli.py SPANS_FILE COMMAND [ARGS...]

Behaves like `python3 -m krylovchain.cli COMMAND [ARGS...]` and writes the
spans of this process and of its sweep workers to SPANS_FILE at exit.
"""

import sys
import tempfile
from pathlib import Path

from tracing import Tracer, load_spans


def main(spans_file, argv):
    tracer = Tracer()
    tracer.install()
    import krylovchain.cli as cli

    spans_file = Path(spans_file)
    with tempfile.TemporaryDirectory(dir=spans_file.parent) as ship_dir:
        tracer.ship_dir = ship_dir
        try:
            return tracer.call(f"cli.{argv[0]}", cli.main, (argv,), {})
        finally:
            tracer.spans += load_spans(sorted(Path(ship_dir).glob("*.json")))
            tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
