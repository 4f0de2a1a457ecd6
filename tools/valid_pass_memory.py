"""Memory and time of the valid-loss pass on one paper-config batch.

    python tools/valid_pass_memory.py [--src DIR]

Each measurement runs in a fresh interpreter, with BLAS pinned to one
thread. It builds one seeded synthetic batch of 32 rows in the paper's
model config (d_model 200, 2 heads, d_ff 400, 4 encoder and 1 decoder
layer), with sources of 80-200 characters and targets of 60-148 units,
and scores it once with `training._epoch_valid_loss`, the pass `train`
runs after every epoch. Two kinds of run alternate, five of each:

- `time`: the seconds the pass takes and the process's max RSS in MB,
  before the pass and after it;
- `trace`: the tracemalloc peak of the pass in MB. tracemalloc sees every
  numpy buffer, so this peak is exact; it is taken in its own run because
  tracing slows allocation.

Both kinds print the loss's repr, so two versions of the code can be
checked for the same value. `--src` selects the `bigphon` to import
(default: this checkout's `src`). The last line of output is one JSON
object with every run and the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROWS = 32  # the paper config's batch size
REPEATS = 5

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def measure(kind: str) -> dict:
    import resource
    import time
    import tracemalloc

    import numpy as np

    from bigphon import training
    from bigphon.model import ModelConfig, ModelDims, init_params

    config = ModelConfig(batch_size=ROWS)
    dims = ModelDims(target_vocab=80, source_vocab=60)
    rng = np.random.default_rng(0)
    params = init_params(config, dims, rng)
    sources = [rng.integers(2, 60, size=n) for n in rng.integers(80, 201, size=ROWS)]
    targets = [rng.integers(4, 80, size=n) for n in rng.integers(60, 149, size=ROWS)]
    out = {"kind": kind}
    if kind == "trace":
        tracemalloc.start()
        loss = training._epoch_valid_loss(params, config, dims, sources, targets)
        out["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    else:
        out["rss_before_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        start = time.perf_counter()
        loss = training._epoch_valid_loss(params, config, dims, sources, targets)
        out["seconds"] = time.perf_counter() - start
        out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["loss"] = repr(loss)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--child", choices=("time", "trace"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child)))
        return 0
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    env.update({var: "1" for var in THREAD_VARS})
    runs = []
    for _ in range(REPEATS):
        for kind in ("time", "trace"):
            proc = subprocess.run(
                [sys.executable, __file__, "--child", kind],
                env=env, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout))
            print(runs[-1])
    keys = ("seconds", "rss_before_mb", "max_rss_mb", "tracemalloc_peak_mb")
    medians = {k: statistics.median(r[k] for r in runs if k in r) for k in keys}
    losses = sorted({r["loss"] for r in runs})
    print(json.dumps({"src": args.src, "rows": ROWS, "losses": losses,
                      "medians": medians, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
