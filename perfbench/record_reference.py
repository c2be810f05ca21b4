"""Record the check-round digest of every workload for seeds 0..SEEDS-1.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py

A run of perfbench/run.py compares its check round with the digest recorded
here for its seed; a mismatch fails the run. Re-record only when a change
is meant to alter the library's outputs, and say so where the change is
described.
"""

import contextlib
import json
import shutil
import sys

import run
from workloads import WORKLOADS

SEEDS = 64


def main():
    ag, _ = run.load_program(run.ROOT)
    workdir = run.ROOT / ".perfbench_work" / "record"
    reference = {}
    try:
        for name, cls in sorted(WORKLOADS.items()):
            digests = reference[name] = {}
            for seed in range(SEEDS):
                wl = cls(ag, seed, workdir / f"{name}-{seed}")
                wl.prepare()
                wl.setup()
                check_rounds, dig, checks = run.check_cycle(wl)
                errors = [out for r in check_rounds for out in r.outputs if out[0] == "error"]
                failed = [label for label, ok in checks if not ok]
                if errors or failed:
                    print(f"{name} seed {seed}: not recorded; errors={errors[:1]} failed={failed}",
                          file=sys.stderr)
                    return 1
                digests[str(seed)] = dig
                shutil.rmtree(workdir / f"{name}-{seed}", ignore_errors=True)
            print(f"{name}: {len(digests)} seeds", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
