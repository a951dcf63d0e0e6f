"""Record the digest of every input in every workload's pool.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are the reference.  The
digests cover the bytes the CLI would write: model.json and trace.json for
a fragment, the tower directory for a tower.  Only the build and write
phases run here; run.py checks everything else.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import nullcontext

from run import HERE, ROOT, load_library
import workloads


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    lib = load_library()
    path = os.path.join(HERE, "digests.json")
    recorded = {}
    workdir = os.path.join(ROOT, ".perfbench_work", "record")
    try:
        for name in sorted(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            shared = workload.prepare_shared(lib)
            table = {}
            for key in workload.pool():
                shutil.rmtree(workdir, ignore_errors=True)
                os.makedirs(workdir)
                inp = workload.prepare(lib, shared, key)
                _, paths = workload.produce(lib, inp, workdir, lambda _: nullcontext())
                table[key] = workloads.digest_files(paths)
            recorded[name] = table
            print(f"{name}: {len(table)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(os.path.dirname(workdir), ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
