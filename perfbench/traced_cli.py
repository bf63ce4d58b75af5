"""Run ``labeldp.cli.main`` under a Tracer and write its spans to a file.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...  (labeldp on PYTHONPATH)
The exit code is the CLI's own.
"""
import sys

import labeldp.cli

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer().install()
    try:
        code = labeldp.cli.main(sys.argv[2:])
    finally:
        tracer.restore()
        tracer.dump(sys.argv[1])
    sys.exit(code)
