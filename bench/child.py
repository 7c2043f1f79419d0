"""One fresh job process: time the import, optionally trace, run the CLI.

    python3 bench/child.py SIDE TRACE MODULE [CLI ARGS...]

Imports MODULE (``emergolab`` or ``emergolab.cli``) and records the import
time.  With CLI ARGS it then runs ``emergolab.cli.main`` on them, with the
span tracer installed when TRACE is 1, and exits with its status.  SIDE is
a JSON file that receives ``import_s`` and, when traced, the spans.
"""

import importlib
import json
import sys
import time


def main(argv) -> int:
    side, trace, module, cli_args = argv[0], argv[1] == "1", argv[2], argv[3:]
    t0 = time.perf_counter()
    importlib.import_module(module)
    record = {"import_s": time.perf_counter() - t0}
    status = 0
    tracer = None
    try:
        if cli_args:
            from emergolab import cli
            if trace:
                from tracer import Tracer
                tracer = Tracer(run_id=cli_args[0])
                tracer.install()
            status = cli.main(cli_args)
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(side, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
