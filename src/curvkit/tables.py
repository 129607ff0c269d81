"""Versioned CSV output: comma separated, header row, '.' decimal point."""
from __future__ import annotations

import numpy as np


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


# Rows of a float array formatted per %-string, which bounds the text held.
_BLOCK_CELLS = 1 << 16


def write_csv(path, schema: str, header: list[str], rows) -> None:
    """Write a header and rows; a 2-D float64 array is written in row blocks.

    The block path formats each cell with %r, which is format_cell's repr of
    a float, so both paths write the same bytes.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# schema={schema}\n" + ",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            n_rows, n_cols = rows.shape
            chunk = max(1, _BLOCK_CELLS // max(n_cols, 1))
            row_format = ",".join(["%r"] * n_cols) + "\n"
            for start in range(0, n_rows, chunk):
                block = rows[start : start + chunk]
                fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))
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
