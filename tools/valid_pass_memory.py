"""Memory and time of the valid-loss pass, of one training step on text
and on speech-length features, and of greedy decoding, in the paper's model
config.

    python tools/valid_pass_memory.py

Each measurement runs in a fresh interpreter, with BLAS pinned to one
thread. It builds seeded synthetic inputs in the paper's model config
(d_model 200, 2 heads, d_ff 400, 4 encoder and 1 decoder layer), with
sources of 80-200 characters unless said otherwise, and runs one of four
passes over them:

- `valid`: `training._epoch_valid_loss` over one batch of 32 rows with
  targets of 60-148 units, the pass `train` runs after every epoch;
- `step`: one `model.loss_and_gradient` with dropout, drawn from a seeded
  generator, on the same batch: the forward with a backward cache, the loss
  and the backward;
- `speech`: the same step on 32 rows of seeded 80-dim feature frames,
  450-550 frames each (about 5 s of speech at 100 frames/s), with targets
  drawn as `valid`'s. Encoder self-attention's work grows with the square
  of the source length and each encoder layer's tape with the length, so
  this is where the step's memory binds. One step takes
  11-17 s on a shared 2-vCPU Xeon at one BLAS thread, by the host's load,
  and a `trace` run, which runs it twice, about twice that;
- `decode`: `model.greedy_decode` of 16 sources, one at a time, at a cap of
  128 steps, as perfbench's `evaluate` workload decodes its test split.

Each pass has two kinds of run, and the eight alternate, five of each:

- `time`: the seconds the pass takes and the process's max RSS in MB,
  before the pass and after it. `decode` runs also print the number of
  decoder steps and the seconds per step: the pass's seconds less those of
  its encoder runs, over the steps;
- `trace`: the tracemalloc peak of the pass in MB, and where it is reached.
  tracemalloc sees every numpy buffer, so this peak is exact; it is taken in
  its own run because tracing slows allocation. The position names the
  stage (`forward`, `loss`, `backward`, `decode`) and, inside the backward,
  the sublayer kernel and its parameter prefix, e.g. `backward _mha_bwd
  dec0.cross`. A profile hook on the model's calls finds it, in a second
  run of the pass in the same process. The hook makes CPython snapshot each
  profiled frame's locals, which keeps some arrays alive a little longer,
  so that run's peak is printed apart, as `hooked_peak_mb`.

Every run prints its batch's `src_pad_frac` and `tgt_pad_frac`, the
padded share of the source and of the target cells as perfbench counts them,
so its figures can be read against padding: about 0.33 and 0.27 for the
text batch, 0.10 and 0.26 for the speech batch, and 0 for a decode, whose
batch is one source. `valid`, `step` and `speech` runs print the loss's
repr; `step` and `speech` runs also print a sha256 of the gradients in
canonical parameter order, and `decode` runs a sha256 of the emitted ids, so
two versions of the code can be compared bit for bit. A whole run takes 5-6
minutes. The tool imports the `bigphon` of its own checkout and calls its
internals, so to compare two versions, run each tree's own copy of the
tool. The last line of output is one JSON object with every run and the
medians of each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bigphon.config import BLAS_THREAD_VARS  # noqa: E402  (loads no numpy)

os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # inherited by each child run

ROWS = 32  # the paper config's batch size
DECODE_SOURCES = 16  # the size of perfbench's evaluate test split
DECODE_CAP = 128  # its decode cap
REPEATS = 5
SPEECH_FRAMES = (450, 550)  # about 5 s of speech at 100 frames/s
FEATURE_DIM = 80
PASSES = ("valid", "step", "speech", "decode")
KINDS = ("time", "trace")


class PeakPosition:
    """Profile hook that attributes the tracemalloc peak to a position.

    At each call into or return from a tracked model function, the peak since
    the last such event is charged to the position that was current, and the
    peak is reset. Positions are the stages `forward_batch`,
    `batch_loss_and_dlogits` and `backward_batch`; inside the backward, each
    `*_bwd` kernel it calls refines the position with its name and its
    parameter prefix (or weight name), and the kernels nested in that one
    keep it."""

    STAGES = {"forward_batch": "forward", "batch_loss_and_dlogits": "loss",
              "backward_batch": "backward", "greedy_decode": "decode"}

    def __init__(self, model):
        self.codes = {fn.__code__: name for name, fn in vars(model).items()
                      if name in self.STAGES or name.endswith("_bwd")}
        self.stack = ["outside"]
        self.best = (0, "outside")

    def _charge(self):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.best[0]:
            self.best = (peak, self.stack[-1])
        tracemalloc.reset_peak()

    def __call__(self, frame, event, arg):
        name = self.codes.get(frame.f_code) if event in ("call", "return") else None
        if name is None:
            return
        self._charge()
        if event == "return":
            self.stack.pop()
        elif name in self.STAGES:
            self.stack.append(self.STAGES[name])
        elif self.stack[-1] == "backward":
            tag = frame.f_locals.get("prefix") or frame.f_locals.get("wname") or ""
            self.stack.append(f"backward {name} {tag}".rstrip())
        else:  # a kernel inside a kernel, or `_dropout_bwd` in the forward
            self.stack.append(self.stack[-1])

    def finish(self):
        self._charge()
        return self.best


def pad_fractions(sources, targets) -> dict:
    """The padded share of the source cells and of the target cells of one
    batch of `sources` and `targets`, as perfbench's `model.src_pad_frac` and
    `model.tgt_pad_frac` count them: a target row is its units and EOS."""
    src = [len(s) for s in sources]
    tgt = [len(t) + 1 for t in targets]
    return {"src_pad_frac": 1 - sum(src) / (len(src) * max(src)),
            "tgt_pad_frac": 1 - sum(tgt) / (len(tgt) * max(tgt))}


def measure(pass_name: str, kind: str) -> dict:
    import hashlib
    import resource
    import time
    from dataclasses import replace

    import numpy as np

    from bigphon import model, training
    from bigphon.ipa import PhonemeSequence, induce_inventory, load_default_classification
    from bigphon.model import ModelConfig, ModelDims, init_params, make_batch, param_index
    from bigphon.vocab import Vocabulary

    config = ModelConfig(batch_size=ROWS)
    if pass_name == "decode":  # every single-character phoneme of the shipped table
        classes = load_default_classification()
        atoms = "aeiouyɑɐəɛɪɔʊʏøœbcdfghjklmnpqrstvwxzçŋʁʃʒ"
        vocab = Vocabulary(induce_inventory([PhonemeSequence(tuple(atoms))], classes), (), "base")
        config = replace(config, max_target_len=DECODE_CAP)
        dims = ModelDims(target_vocab=len(vocab), source_vocab=60)
    elif pass_name == "speech":
        dims = ModelDims(target_vocab=80, feature_dim=FEATURE_DIM)
    else:
        dims = ModelDims(target_vocab=80, source_vocab=60)
    rng = np.random.default_rng(0)
    params = init_params(config, dims, rng)
    if pass_name == "decode":
        sources = [rng.integers(2, 60, size=n) for n in rng.integers(80, 201, size=DECODE_SOURCES)]
        encoder_seconds = []
        encode = model._encoder_forward

        def timed_encode(*args):
            start = time.perf_counter()
            out = encode(*args)
            encoder_seconds.append(time.perf_counter() - start)
            return out

        model._encoder_forward = timed_encode  # looked up at call time by greedy_decode

        def run():
            return [model.greedy_decode(params, config, src, vocab) for src in sources]

        def describe(results):
            digest = hashlib.sha256(repr([r.ids for r in results]).encode())
            steps = sum(len(r.ids) + (not r.truncated) for r in results)  # EOS is a step
            return {"ids_sha256": digest.hexdigest(), "steps": steps,
                    "truncated": sum(r.truncated for r in results)}
    else:
        if pass_name == "speech":
            lengths = rng.integers(SPEECH_FRAMES[0], SPEECH_FRAMES[1] + 1, size=ROWS)
            sources = [rng.normal(size=(n, FEATURE_DIM)) for n in lengths]
        else:
            sources = [rng.integers(2, 60, size=n) for n in rng.integers(80, 201, size=ROWS)]
        targets = [rng.integers(4, 80, size=n) for n in rng.integers(60, 149, size=ROWS)]
        if pass_name == "valid":
            def run():
                return training._epoch_valid_loss(params, config, sources, targets), None
        else:
            batch = make_batch(sources, targets)

            def run():
                loss, grads, _ = model.loss_and_gradient(params, config, batch,
                                                         np.random.default_rng(1))
                return loss, grads

        def describe(result):
            loss, grads = result
            out = {"loss": repr(loss)}
            if grads is not None:
                digest = hashlib.sha256()
                for name, _ in param_index(config, dims):
                    digest.update(np.ascontiguousarray(grads[name]).tobytes())
                out["grad_sha256"] = digest.hexdigest()
            return out

    out = {"pass": pass_name, "kind": kind}
    # each decode's batch is one source with an empty target
    out.update(pad_fractions(*([sources[:1], [[]]] if pass_name == "decode"
                               else [sources, targets])))
    if kind == "trace":
        tracemalloc.start()
        result = run()
        out["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    else:
        out["rss_before_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        start = time.perf_counter()
        result = run()
        out["seconds"] = time.perf_counter() - start
        out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(describe(result))
    del result
    if pass_name == "decode" and kind == "time":
        out["encoder_seconds"] = sum(encoder_seconds)
        out["seconds_per_step"] = (out["seconds"] - out["encoder_seconds"]) / out["steps"]
    if kind == "trace":  # the same pass again, under the hook that finds the position
        tracemalloc.start()
        hook = PeakPosition(model)
        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
        peak, out["peak_position"] = hook.finish()
        out["hooked_peak_mb"] = peak / 2**20
        tracemalloc.stop()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("PASS", "KIND"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(*args.child)))
        return 0
    runs = []
    for _ in range(REPEATS):
        for pass_name in PASSES:
            for kind in KINDS:
                proc = subprocess.run(
                    [sys.executable, __file__, "--child", pass_name, kind],
                    capture_output=True, text=True, check=True)
                runs.append(json.loads(proc.stdout))
                print(runs[-1])
    keys = ("seconds", "rss_before_mb", "max_rss_mb", "tracemalloc_peak_mb", "hooked_peak_mb",
            "encoder_seconds", "seconds_per_step")
    summary = {}
    for pass_name in PASSES:
        mine = [r for r in runs if r["pass"] == pass_name]
        summary[pass_name] = {
            "medians": {k: statistics.median(r[k] for r in mine if k in r)
                        for k in keys if any(k in r for r in mine)},
            "peak_positions": sorted({r["peak_position"] for r in mine if "peak_position" in r}),
        }
        for k in ("loss", "grad_sha256", "ids_sha256", "steps", "src_pad_frac",
                  "tgt_pad_frac"):  # each should have one value
            if k in mine[0]:
                summary[pass_name][k] = sorted({r[k] for r in mine})
    print(json.dumps({"rows": ROWS, "passes": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
