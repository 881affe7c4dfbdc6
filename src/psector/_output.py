"""The two file formats psector writes: '#'-header CSV tables and JSON.

A table is utf-8 text with LF line ends: a '# key = value' line per meta
pair, the column row, then the data rows.  Callers hand the rows over as
formatted text chunks, each a run of whole LF-terminated rows, so a large
field streams a block at a time with no whole-file string and no join per
cell.  JSON is strict, indented, key-sorted and newline-terminated, with
numpy scalars written as the Python numbers they hold and a non-finite float
(a failed solve's residual) as null, so every file parses as standard JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np


def write_table(path, meta, columns, chunks) -> None:
    """Write the (key, text) meta pairs, the column row, then the chunks."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {key} = {text}\n" for key, text in meta))
        fh.write(",".join(columns) + "\n")
        fh.writelines(chunks)


def read_table(path):
    """Inverse of write_table: (meta texts by key, column names, rows of
    cell texts).  Blank lines are skipped."""
    meta, columns, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if columns is None and line.startswith("#"):
                key, _, text = line[1:].partition("=")
                meta[key.strip()] = text.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, columns or [], rows


def _plain(obj):
    """obj with numpy scalars as Python numbers and non-finite floats as None."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    obj = obj.item() if isinstance(obj, (np.floating, np.integer)) else obj
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, data) -> None:
    # one write of the whole text: json.dump writes it in thousands of pieces
    text = json.dumps(_plain(data), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
