"""One benchmark command, run in a fresh interpreter.

    python -m perfbench.launch [--trace SPANS.json RUN_ID] cli <bigphon args>
    python -m perfbench.launch [--trace SPANS.json RUN_ID] score CORPUS HYPS OUT
    python -m perfbench.launch setup WORKLOAD VARIANT OUTDIR

`cli` runs `bigphon.cli.main`, `score` the prep workload's scoring step and
`setup` builds a workload's inputs. With `--trace`, bigphon's public
functions are wrapped before the command starts and the spans are written
to SPANS.json when it ends, whether it succeeds or not.
"""

from __future__ import annotations

import sys


def _run(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "cli":
        from bigphon import cli

        return cli.main(args)
    if command == "score":
        from perfbench import scoring

        return scoring.score(*args)
    if command == "setup":
        from perfbench import workloads

        return workloads.setup(args[0], int(args[1]), args[2])
    raise SystemExit(f"unknown command {command!r}")


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace"]:
        return _run(argv)
    from perfbench import tracing

    spans_path, run_id = argv[1], argv[2]
    tracer = tracing.Tracer(run_id)
    tracing.install(tracer)
    try:
        return _run(argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
