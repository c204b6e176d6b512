#!/usr/bin/env python3
"""Write digests.json: output digests of every request on the default seed.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter cosum's outputs, and say why
in the change; the benchmark fails any run whose outputs on the default
seed differ from these digests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    cli_main = run.import_cosum()
    digests = {}
    for name, generate in sorted(workloads.WORKLOADS.items()):
        workdir = os.path.join(run.WORK_ROOT, f"digests-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            client = run.Client(cli_main, generate(workdir, run.DEFAULT_SEED), None)
            run.set_up(client, repeat=False)
            outcome = client.run(0.0, min_passes=2)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if outcome.failed:
            print("\n".join(outcome.errors), file=sys.stderr)
            return 1
        digests[name] = dict(sorted(client.seen.items()))
    with open(run.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
