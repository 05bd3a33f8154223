#!/usr/bin/env python3
"""Collect Criterion estimates into one JSON file.

usage: collect_estimates.py <out.json> [prefix ...]

Walks target/criterion for every benchmark's new/estimates.json and writes
{bench id: {mean_ns, median_ns}} to <out.json> (and to stdout). With
prefixes, only benchmark ids starting with one of them are kept.
"""
import json
import pathlib
import sys

ROOT = pathlib.Path("target/criterion")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    out_path, prefixes = argv[1], tuple(argv[2:])
    out = {}
    for est in ROOT.rglob("new/estimates.json"):
        key = str(est.parent.parent.relative_to(ROOT))
        if prefixes and not key.startswith(prefixes):
            continue
        with est.open() as f:
            data = json.load(f)
        out[key] = {
            "mean_ns": data["mean"]["point_estimate"],
            "median_ns": data["median"]["point_estimate"],
        }
    text = json.dumps(out, indent=2, sort_keys=True)
    with open(out_path, "w") as f:
        f.write(text)
    print(text)


if __name__ == "__main__":
    main(sys.argv)
