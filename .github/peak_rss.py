"""Run one command and hold it to a peak-memory limit.

    python .github/peak_rss.py LIMIT_MB COMMAND [ARG ...]

Prints the command's exit status, its wall time and the peak RSS of its
process tree (getrusage of the children), and exits 1 when the command
exits non-zero or peaks at LIMIT_MB or more, else 0.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    limit, command = argv[1], argv[2:]
    start = time.perf_counter()
    status = subprocess.call(command)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit {status}, wall {wall:.2f} s, peak RSS {peak:.1f} MB (limit {limit})")
    return 1 if status or peak >= float(limit) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
