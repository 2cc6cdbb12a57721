"""Entry point of one benchmark job: the infodiagram CLI in a fresh interpreter.

    python3 perfbench/job.py [--trace SPANS.json] <infodiagram CLI arguments>

Without ``--trace`` it only imports the CLI and calls its ``main``, as the
``infodiagram`` command does.  With ``--trace`` it installs the layer
wrappers of ``layertrace`` first and writes the spans to SPANS.json when
the CLI returns.  The traced and untraced runs share this entry point.
"""

import sys


def main(argv) -> int:
    if argv[:1] == ["--trace"]:
        from layertrace import run_traced
        return run_traced(argv[2:], argv[1])
    from infodiagram.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
