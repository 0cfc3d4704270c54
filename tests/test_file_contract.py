"""The CLI's error contract on damaged input files.

Like the override grid (error_contract_grid.py), the cases are a fixed
table: each damaged file of DAMAGED given to each file-reading subcommand of
READERS.  Every case exits 2 (a config file) or 4 (a data file) with one
`error:` line on stderr and no traceback.
"""

import gzip

import numpy as np
import pytest

from learning_control.cli import main
from learning_control.idx import IdxTensor, serialize_idx


def idx(data):
    return serialize_idx(IdxTensor(dtype_code=0x08, data=np.asarray(data, dtype=np.uint8)))


LABELS = idx([0, 1, 2, 0, 1, 2])
IMAGES = idx(np.arange(24).reshape(6, 2, 2))
GZIPPED = gzip.compress(LABELS)

# name -> writes the damaged file at a path
DAMAGED = {
    "empty": lambda p: p.write_bytes(b""),
    "directory": lambda p: p.mkdir(),
    "missing": lambda p: None,
    "truncated_gzip": lambda p: p.write_bytes(GZIPPED[: len(GZIPPED) // 2]),
    "corrupt_deflate": lambda p: p.write_bytes(GZIPPED[:10] + b"\xff" * 16),  # the gzip header, then no valid block
    "not_utf8": lambda p: p.write_bytes(b"[scenario]\nname = \xff\xfe\n"),
}

# name -> (argv reading the damaged file `bad`, with good inputs and the output under `d`; its exit code)
READERS = {
    "run --config": (lambda bad, d: ["run", "--config", bad], 2),
    "grad-check --config": (lambda bad, d: ["grad-check", "--config", bad], 2),
    "moments --images": (lambda bad, d: ["moments", "--images", bad, "--labels", d / "labels.idx",
                                         "--out", d / "m.json"], 4),
    "moments --labels": (lambda bad, d: ["moments", "--images", d / "images.idx", "--labels", bad,
                                         "--out", d / "m.json"], 4),
    "plot --series": (lambda bad, d: ["plot", "--series", f"loss:{bad}:t:loss", "--out", d / "c.svg"], 4),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("damage", DAMAGED)
def test_a_damaged_input_file_ends_on_its_error_class(damage, reader, tmp_path, capsys):
    (tmp_path / "labels.idx").write_bytes(LABELS)
    (tmp_path / "images.idx").write_bytes(IMAGES)
    bad = tmp_path / "bad"
    DAMAGED[damage](bad)
    argv, code = READERS[reader]
    assert main([str(a) for a in argv(bad, tmp_path)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
