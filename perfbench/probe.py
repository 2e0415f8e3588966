"""Fresh-process probe for set-up time and peak memory.

Run as ``python3 probe.py --src SRC --config CFG [--config CFG ...]
[--out DIR]``.  It imports cuspext from SRC, loads and validates every
config with ``cli.build_run_config`` and reads CLOCK_MONOTONIC: the
caller reads the same clock just before starting the process, so the
difference is the time from a fresh interpreter until the first command
is ready to dispatch.  With ``--out`` it then runs one pass (every
config, in order) and reports the process's peak resident set size; a
command that raises gets the exit code ``"exception"``.
The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", action="append", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from cuspext import cli

    for path in args.config:
        with open(path) as fh:
            raw = json.load(fh)
        cli.build_run_config(argparse.Namespace(command=None, seed=None, out=args.out),
                             raw)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    codes = []
    for path in args.config if args.out else ():
        try:
            codes.append(cli.main(["--config", path, "--out", args.out]))
        except Exception:  # a traceback is a failed pass, not a lost run
            traceback.print_exc()
            codes.append("exception")
    print(json.dumps({"ready": ready, "exit_codes": codes, "cuspext": cli.__file__,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
