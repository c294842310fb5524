"""Write pinned.json: the stdout sha256 of every invocation at the pinned seed.

    python3 perfbench/pin.py

Re-pin only when a change is meant to alter the program's output; every
output must pass the invariant checks before it is pinned.
"""

import json
import sys

from checks import check, stable_digest
from run import PINNED, PINNED_SEED, WORKLOADS, child_env, make_invocation, probe_working_tree, spawn


def main() -> int:
    env = child_env()
    probe_working_tree(env)
    pinned = {}
    for name in WORKLOADS:
        inv = make_invocation(name, PINNED_SEED)
        got = spawn([sys.executable, "-m", "qblocks.cli", *inv.argv], env)
        problems = check(inv, got.rc, got.stdout, None)
        if problems:
            print(f"{' '.join(inv.argv)}: {problems}", file=sys.stderr)
            return 1
        pinned[name] = stable_digest(got.stdout)
    PINNED.write_text(json.dumps(pinned, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
