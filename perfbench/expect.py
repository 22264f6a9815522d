"""Rebuild verify_expect.json, the row expectations of the verify_all workload.

    python3 perfbench/expect.py

Runs the check registry at its default counts shrunk by workloads.VERIFY_SCALE,
with workloads.VERIFY_SEED, through hypext.cli.main, and records each row's
id, samples, threshold and direction.
verify_all then demands exactly these rows, so a change cannot get faster by
checking less without this file changing with it.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import VERIFY_SCALE, VERIFY_SEED, verify_argv  # noqa: E402


def main():
    from hypext import cli

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        report = os.path.join(tmp, "report.json")
        code = cli.main(verify_argv(os.path.join(tmp, "config.json"), report))
        with open(report) as fh:
            rows = json.load(fh)["checks"]
    if code != 0:
        print(f"error: hypext verify failed at scale {VERIFY_SCALE}, seed {VERIFY_SEED}",
              file=sys.stderr)
        return 1
    doc = {"scale": VERIFY_SCALE, "seed": VERIFY_SEED,
           "rows": [{key: row[key] for key in ("id", "samples", "threshold", "direction")}
                    for row in rows]}
    with open(os.path.join(HERE, "verify_expect.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
