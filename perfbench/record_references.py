"""Record the reference outputs of every workload for every input variant.

    python3 perfbench/record_references.py [--workload NAME]

Runs each workload's set-up and one untraced pass per variant, and writes
the parsed outputs to references.json. Run it only when the program's
outputs are meant to change; the benchmark's checks compare against it.
For the prep corpus it also records the distinct bigram types per scope
on the train split, which bound how many units a variant can add.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bigphon.corpus import ingest  # noqa: E402
from bigphon.vocab import BigramScope, count_bigrams  # noqa: E402

from perfbench import run, workloads  # noqa: E402


def bigram_types(corpus_path) -> dict[str, int]:
    manifest = ingest(corpus_path)
    inventory, train = workloads._inventory_and_train(manifest)
    return {s.value: len(count_bigrams(train, s, inventory)) for s in BigramScope}


def record(workload, variant: int, runner: run.Runner) -> tuple[dict, dict | None]:
    work = run.WORK / f"record-{workload.name}-{variant}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _, inputs, _ = run.set_up(workload, variant, work, runner)
        result = run.run_pass(workload, inputs, work / "pass", variant, {}, runner, False)
        if result["problems"]:
            raise SystemExit(f"{workload.name} variant {variant}: {result['problems']}")
        types = bigram_types(work / "pass" / "corpus.tsv") if workload.name == "prep" else None
        return result["seen"], types
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    data = (json.loads(run.REFERENCES.read_text(encoding="utf-8"))
            if run.REFERENCES.exists() else {"workloads": {}, "bigram_types": {}})
    runner = run.Runner(run.child_env())
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    for name in names:
        table = data["workloads"].setdefault(name, {})
        for variant in range(workloads.N_VARIANTS):
            seen, types = record(workloads.WORKLOADS[name], variant, runner)
            table[str(variant)] = seen
            if types is not None:
                data["bigram_types"][str(variant)] = types
            print(f"{name} variant {variant}: {len(seen)} values", flush=True)
            run.REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
