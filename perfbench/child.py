"""Child processes the benchmark starts, one at a time.

    python3 perfbench/child.py setup WORKLOAD SEED DIR
        Import feketedyn and build the workload's inputs in a fresh
        interpreter, then exit; the parent times it as setup_s.
    python3 perfbench/child.py cli SPANS_JSON ARGS...
        The traced command line: import feketedyn.cli (timed as cli.import),
        install the layer wrappers, run feketedyn.cli.main(ARGS), and write
        the spans and counts to SPANS_JSON.

PYTHONPATH must name the checkout's src/ directory.
"""

import sys
import time


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads
        name, seed, workdir = argv[1], int(argv[2]), argv[3]
        workloads.WORKLOADS[name](seed, workdir)
        return 0
    if mode == "cli":
        spans, cli_args = argv[1], argv[2:]
        t0 = time.perf_counter()
        import feketedyn.cli
        t1 = time.perf_counter()
        import tracing
        tracer = tracing.Tracer()
        tracer.record("cli.import", t0, t1)
        tracer.add("cli.import_s", t1 - t0)
        tracer.install()
        try:
            return feketedyn.cli.main(cli_args)
        finally:
            tracer.uninstall()
            tracer.dump(spans)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
