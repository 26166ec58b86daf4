#!/usr/bin/env python3
"""Run a command and fail if its peak resident set size exceeds a ceiling.

Usage:

    python3 scripts/peak_rss.py --max-mb 52 -- ./hm_sweep run --filter scaling_mesh ...

The child's stdout and stderr pass through unchanged.  Its peak RSS
(ru_maxrss of the child, which includes any children it waited for) is
printed to stderr.  Exit status: the child's own status if it failed,
otherwise 1 when the peak exceeds --max-mb and 0 when it does not.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="ceiling on the child's peak RSS, in MB (2^20 bytes)")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="command to run (after --)")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    child = subprocess.Popen(cmd)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports ru_maxrss in KiB
    verdict = "ok" if peak_mb <= args.max_mb else "OVER"
    print(f"peak_rss: {peak_mb:.1f} MB (ceiling {args.max_mb:g} MB) {verdict}: "
          f"{' '.join(cmd)}", file=sys.stderr)
    if code != 0:
        return code if code > 0 else 1
    return 0 if peak_mb <= args.max_mb else 1


if __name__ == "__main__":
    sys.exit(main())
