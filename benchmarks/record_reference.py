"""Record the output digests that benchmark runs compare against.

    python3 benchmarks/record_reference.py

Runs one operation per variant of every workload at full size for seeds
0..10 and at smoke size for seed 0, checks each output set structurally, and
rewrites ``reference_digests.json``.  Outputs are meant to stay
byte-identical as the program changes, so re-record only for a change that
alters outputs on purpose, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = {"full": list(range(11)), "smoke": [0]}


def main() -> int:
    workloads, _ = run._load()
    refs: dict = {}
    workdir = run.OUT / "record"
    for name, cls in workloads.WORKLOADS.items():
        for profile, seeds in SEEDS.items():
            for seed in seeds:
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                wl = cls(seed, profile)
                wl.prepare(workdir)
                digests = {}
                for variant in wl.variants:
                    outputs, _ = wl.run(variant)
                    problems = wl.problems(variant, outputs)
                    if problems:
                        print(f"{name} {profile} seed {seed} {variant}: "
                              + "; ".join(problems), file=sys.stderr)
                        return 1
                    digests[variant] = run._digest(outputs)
                refs.setdefault(name, {}).setdefault(profile, {})[str(seed)] = digests
                print(name, profile, seed, digests, flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    path = run.BENCH / "reference_digests.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
