"""Traced stand-in for ``python -m qclifford.cli``.

Usage: ``python3 perfbench/cli_child.py <op id> <cli arguments...>`` from the
root of a checkout. Installs the span wrappers, runs ``qclifford.cli.main``
with the given arguments and exits with its code. The spans follow the CLI's
own stderr as one last line that starts with a NUL marker.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracing  # noqa: E402


def main():
    op = int(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from qclifford import cli
    tracer.op = op
    tracer.enabled = True
    code = 2
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse rejections exit through here
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        sys.stderr.write(tracing.SPANS_MARK + json.dumps(tracer.export()) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
