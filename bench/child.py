"""Run one fencedetect subcommand in a fresh interpreter and report its peak RSS.

    python3 bench/child.py detect --input ... --verdicts ...

Prints the subcommand's own output, then one JSON line with its exit code
and the process's peak resident set in KiB. VmHWM is read rather than
ru_maxrss, because ru_maxrss keeps the high-water mark of the process that
started this one.
"""

import json
import resource
import sys

from fencedetect.cli import main


def peak_rss_kib() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    code = main(sys.argv[1:])
    print(json.dumps({"exit": code, "peak_rss_kib": peak_rss_kib()}))
