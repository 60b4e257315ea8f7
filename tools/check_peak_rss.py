#!/usr/bin/env python3
"""Peak-RSS gate: runs a command and fails when its peak resident set is
above the ceiling in a baseline file.

The peak is the child's ru_maxrss, read with getrusage(RUSAGE_CHILDREN)
after it exits, so it covers the whole run and needs no sampling. The
command's stdout is discarded; its exit status must be 0.

Usage: tools/check_peak_rss.py BASELINE COMMAND [ARGS...]
  BASELINE  JSON file with "max_peak_rss_mb" (the ceiling, in MiB)
"""

import json
import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        ceiling = float(json.load(f)["max_peak_rss_mb"])
    status = subprocess.run(argv[2:], stdout=subprocess.DEVNULL).returncode
    # ru_maxrss is in KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print("peak RSS %.1f MB, ceiling %.0f MB (%s)" % (peak, ceiling, argv[1]))
    if status != 0:
        print("FAIL: %s exited with status %d" % (argv[2], status),
              file=sys.stderr)
        return 1
    if peak > ceiling:
        print("FAIL: peak RSS %.1f MB above the ceiling %.0f MB"
              % (peak, ceiling), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
