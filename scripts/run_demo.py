#!/usr/bin/env python3
"""End-to-end demo on the bundled sample corpus.

Trains the background model, decodes all four sample entity pairs with
collaborative decoding (delta 1, gamma 0.5) and without it (both 0), and
prints the summaries. Writes into demo_out/ or the directory given as the
only argument; exits non-zero when a cosum command fails.
"""

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from cosum.cli import main

SAMPLE_REVIEWS = os.path.join(ROOT, "data", "sample_reviews.jsonl")
SAMPLE_PAIRS = [
    ("harbor_hotel", "garden_inn"),
    ("summit_lodge", "lakeside_resort"),
    ("old_town_suites", "airport_express"),
    ("vineyard_estate", "desert_oasis"),
]


def cosum(argv):
    code = main(argv)
    if code != 0:
        sys.exit(f"cosum {argv[0]} failed with exit code {code}")


def run(outdir="demo_out"):
    os.makedirs(outdir, exist_ok=True)
    model = os.path.join(outdir, "model.json")
    cosum(["train", "--reviews", SAMPLE_REVIEWS, "--out", model])

    pair_flags = []
    for a, b in SAMPLE_PAIRS:
        pair_flags += ["--pair", f"{a},{b}"]
    fast = ["--min-len", "5", "--max-len-contrastive", "30", "--max-len-common", "20"]

    for label, delta, gamma in (("codec", "1.0", "0.5"), ("base", "0.0", "0.0")):
        gen = os.path.join(outdir, f"generated_{label}.json")
        cosum(
            ["summarize", "--model", model, "--reviews", SAMPLE_REVIEWS]
            + pair_flags
            + ["--out", gen, "--delta", delta, "--gamma", gamma]
            + fast
        )
        with open(gen) as fh:
            for record in json.load(fh):
                print(f"[{label}] {record['pair_id']}")
                print(f"  A: {record['contrastive_a']}")
                print(f"  B: {record['contrastive_b']}")
                print(f"  common: {record['common']}")
    print(f"\noutputs in {outdir}/")


if __name__ == "__main__":
    run(*sys.argv[1:])
