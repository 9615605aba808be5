"""``repro serve`` with the benchmark's layer spans installed.

Spans record from the first SIGUSR1 on (the benchmark sends it once set-up
has primed the server, and waits for the ``tracing on`` line); when the
server drains and exits, the spans and counters are written to SPANS_PATH.

Usage: python3 -u perfbench/traced_serve.py SPANS_PATH serve [serve args]
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from common import require_program


def main(argv: list[str]) -> int:
    spans_path, serve_args = Path(argv[1]), argv[2:]
    require_program()
    import spans as tracing
    from repro.cli import main as repro_main

    rec = tracing.Recorder()
    tracing.install(rec)

    def start(_signum, _frame):
        rec.enabled = True
        print("tracing on", flush=True)

    signal.signal(signal.SIGUSR1, start)
    try:
        return repro_main(serve_args)
    finally:
        rec.enabled = False
        spans_path.write_text(json.dumps(tracing.to_json(rec.spans, rec.counts)))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
