"""Traced start of one CLI process, for the cli_cold traced run.

    python3 bench/cli_boot.py PREFIX <nc-hopf arguments...>

Times the import of ``nc_hopf.cli``, installs the layer wrappers, calls
``nc_hopf.cli.main`` on the arguments and exits with its status, so stdout is
what ``python -m nc_hopf.cli`` would print.  Writes the layer summary to
PREFIX.json and the spans to PREFIX.spans.
"""

import json
import sys

import spans
import workloads


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    frame = tracer.open(spans.CLI_IMPORT)
    import nc_hopf.cli
    tracer.add("root_s", tracer.close(frame))
    if not workloads.under_src(nc_hopf.cli.__file__):
        sys.exit(f"nc_hopf imported from {nc_hopf.cli.__file__}, "
                 f"not from {workloads.SRC}")
    tracer.install()
    frame = tracer.open(spans.CLI_MAIN)
    try:
        code = nc_hopf.cli.main(argv)
    finally:
        tracer.add("root_s", tracer.close(frame))
        tracer.uninstall()
    sys.stdout.flush()
    with open(prefix + ".json", "w") as fh:
        json.dump(tracer.summary(), fh)
    tracer.write(prefix + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
