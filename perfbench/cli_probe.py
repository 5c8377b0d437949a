"""Traced stand-in for ``python -m locgram``: times the import of
``locgram.cli`` and one in-process ``main(argv)`` call, writes the
timestamps to a JSON file and exits with ``main``'s code.

    python3 perfbench/cli_probe.py TIMES.json locgram-args...
"""

import time

START_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import_start = _now()
    import locgram.cli

    main_start = _now()
    code = locgram.cli.main(argv)
    sys.stdout.flush()
    main_end = _now()
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"start": START_NS, "import": [import_start, main_start],
                   "main": [main_start, main_end]}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
