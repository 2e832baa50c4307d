"""Regenerate ``expected/<workload>.json``, the outputs every run checks.

    python3 benchmark/make_expected.py

For each of the seeds in ``workloads.EXPECTED_SEEDS`` it builds every
workload's inputs exactly as a benchmark run does. ``nar-decode`` and
``ar-decode`` decode every source greedy and with beam 4 and store a 48-bit
digest of each output. ``train`` runs ``train()`` and stores one digest per
mode over the trained model's decodes of the validation sources. Regenerate
only for a change that is meant to alter outputs, and say so where the
change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import SRC, pin_blas_threads


def main() -> None:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        seeds = {}
        for seed in workloads.EXPECTED_SEEDS:
            with tempfile.TemporaryDirectory() as work_dir:
                workload = workloads.make_workload(name, seed, Path(work_dir))
                workload.setup()
                seeds[str(seed)] = workload.decode_all()
            print(f"{name} seed {seed}", file=sys.stderr, flush=True)
        with open(workloads.EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as f:
            if name == "train":
                header = {"digest": "per mode, the digest of the space-joined digests of the "
                                    "validation decodes, in source order"}
            else:
                header = {"digest": "sha1 of the space-joined output ids, first 12 hex digits",
                          "lengths": list(workloads.DECODE_LENGTHS)}
            json.dump({**header, "seeds": seeds}, f, indent=0)
            f.write("\n")


if __name__ == "__main__":
    main()
