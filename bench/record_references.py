"""Record V_baseline and V_control per workload and seed into references.json.

Run from the repository root on the code the references should pin:

    python3 bench/record_references.py --seeds 100

Only rerun it when a workload's definition in workloads.py changes; the
benchmark compares every later version of the program with these values.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from learning_control.experiments import run  # noqa: E402
from workloads import REFERENCES, WORKLOADS, build_config, check_result  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="record seeds 0..N-1")
    args = parser.parse_args()
    refs = {}
    out_dir = tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT)
    try:
        for name in WORKLOADS:
            refs[name] = {}
            for seed in range(args.seeds):
                result = run(build_config(name, seed, out_dir))
                problems = check_result(name, seed, result, {})
                if problems:
                    sys.exit(f"{name} seed {seed}: {'; '.join(problems)}")
                refs[name][str(seed)] = [result.V_baseline, result.V_control]
                if result.out_dir is not None:
                    shutil.rmtree(result.out_dir)
                print(name, seed, result.V_baseline, result.V_control, flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
