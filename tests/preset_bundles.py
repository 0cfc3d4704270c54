"""The output bundles of all ten presets at seed 0, hashed file by file and compared with a record.

Each preset runs once through experiments.run into a temporary directory,
and every file of its bundle is hashed with SHA-256.  trace.csv is hashed
without its `ms` column, the only wall-clock figure a bundle holds, so every
hash is a function of the code and the preset alone.  A change that keeps
every output bit leaves every hash where it was.

From the repository root,

    PYTHONPATH=src python tests/preset_bundles.py

compares each hash with tests/recorded_bundles.json, prints each file that
moved, is missing or is new, and exits 1 if there is any.

    PYTHONPATH=src python tests/preset_bundles.py --record

writes the record from the code as it stands.  The record holds the bits of
the machine and the numpy that wrote it (numpy 2.4.6 with its OpenBLAS on
x86-64): where a BLAS or libm rounds differently, record on the parent
commit there first, and compare the change with that.
"""

import hashlib
import json
import os
import sys
import tempfile

from learning_control.experiments import SCENARIOS, preset, run

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded_bundles.json")


def _trace_without_ms(data):
    """trace.csv's bytes with the `ms` column cut from the header and every row."""
    lines = data.split(b"\r\n")
    drop = lines[0].split(b",").index(b"ms")
    return b"\r\n".join(b",".join(c for i, c in enumerate(line.split(b",")) if i != drop) if line else line for line in lines)


def bundle_hashes():
    """{"preset/file": sha256 hex} over every file of every preset's bundle at seed 0."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            out = run(preset(name, seed=0, out_dir=tmp)).out_dir
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    data = fh.read()
                if fname == "trace.csv":
                    data = _trace_without_ms(data)
                hashes[f"{name}/{fname}"] = hashlib.sha256(data).hexdigest()
    return hashes


def main(argv):
    hashes = bundle_hashes()
    if argv == ["--record"]:
        with open(RECORD, "w") as fh:
            json.dump(hashes, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(hashes)} files in {RECORD}")
        return 0
    if argv:
        print(__doc__)
        return 2
    with open(RECORD) as fh:
        recorded = json.load(fh)
    moved = [
        f"{key}: {'missing' if key not in hashes else 'new' if key not in recorded else 'moved'}"
        for key in sorted(set(recorded) | set(hashes))
        if recorded.get(key) != hashes.get(key)
    ]
    for line in moved:
        print(line)
    print(f"{len(hashes) - len(moved)} of {len(recorded)} recorded files unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
