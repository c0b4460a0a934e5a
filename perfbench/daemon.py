"""Start ``repro serve`` in this process, optionally with layer wrappers.

    python3 perfbench/daemon.py --store-dir DIR [--trace-out PATH]

Runs the service with its default settings on a free port (it prints the
port) and returns its exit code after the SIGTERM drain.  With
``--trace-out`` the wrappers are installed before the service starts,
SIGUSR1 resets their totals (the client sends it when the measured
window opens), and the totals are written to ``PATH`` after the drain.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    recorder = None
    if args.trace_out is not None:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    signal.signal(
        signal.SIGUSR1, lambda signum, frame: recorder and recorder.reset()
    )
    from repro.cli import main as repro_main

    code = repro_main(["serve", "--port", "0", "--store-dir", args.store_dir])
    if recorder is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracing.snapshot(recorder), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
