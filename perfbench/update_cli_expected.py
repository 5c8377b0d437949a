#!/usr/bin/env python3
"""Rewrite ``perfbench/cli_expected.json``: the stdout digest and exit code
of every ``cli-edit-loop`` command at the current commit.  Run it from the
root of a locgram checkout, and only when the CLI output is meant to change.

    python3 perfbench/update_cli_expected.py
"""

from run import ROOT, import_locgram

if __name__ == "__main__":
    import_locgram()
    from workloads import write_cli_expected

    write_cli_expected(ROOT)
