"""Versioned CSV output: comma separated, header row, '.' decimal point.

Every output file is written through open_output, so a file under its
final name is complete.
"""
from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .parallel import INLINE, Lane


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextmanager
def open_output(path):
    """Open path for writing ASCII text through <path>.tmp, which replaces
    path once the block ends and is deleted if it raises."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, schema: str, header: list[str], rows, lane: Lane = INLINE) -> None:
    """Write a header and rows; a 2-D float64 array is written in row blocks.

    floattext.short writes each cell of the array as its exact repr, which
    is format_cell's text of a float, so both paths write the same bytes.
    It formats alternate blocks on lane.
    """
    with open_output(path) as fh:
        fh.write(f"# schema={schema}\n" + ",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            from .floattext import short  # as in network.save_network

            fh.writelines(short(rows, ",", lane))
            return
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    schema = lines[0].removeprefix("# schema=")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    return schema, header, rows
