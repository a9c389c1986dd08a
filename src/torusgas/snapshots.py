"""Binary field snapshots, Young-measure export and deterministic CSV.

Snapshot format: one plain-text header line ``dim size_1 .. size_dim
n_components time`` followed by little-endian float64 samples in row-major
order, components first.  CSV floats use ``%.17g`` so identical runs emit
byte-identical files regardless of worker count.
"""

from __future__ import annotations

import os

import numpy as np

from .grid import Grid

FORMAT_VERSION = "torusgas-format 1"


class SnapshotError(ValueError):
    pass


def write_field(path, grid: Grid, values: np.ndarray, time: float):
    """Write a field with any leading component axes to ``path``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-grid.dim:] != grid.sizes:
        raise SnapshotError(f"trailing axes {values.shape} do not match grid {grid.sizes}")
    n_comp = int(np.prod(values.shape[: values.ndim - grid.dim], dtype=np.int64))
    header = " ".join(
        [str(grid.dim), *(str(n) for n in grid.sizes), str(n_comp), f"{time:.17g}"]
    )
    flat = np.ascontiguousarray(values.reshape(n_comp, *grid.sizes), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        fh.write(flat.tobytes(order="C"))


def read_field(path):
    """Read a snapshot; returns ``(values (n_comp, *sizes), time)``."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        payload = fh.read()
    tokens = header.split()
    if len(tokens) < 4:
        raise SnapshotError(f"malformed snapshot header: {header!r}")
    try:
        dim = int(tokens[0])
        sizes = tuple(int(t) for t in tokens[1 : 1 + dim])
        n_comp = int(tokens[1 + dim])
        time = float(tokens[2 + dim])
    except (ValueError, IndexError):
        raise SnapshotError(f"malformed snapshot header: {header!r}") from None
    if dim < 1 or dim > 3 or len(tokens) != 3 + dim:
        raise SnapshotError(f"malformed snapshot header: {header!r}")
    count = n_comp * int(np.prod(sizes))
    if len(payload) != 8 * count:
        raise SnapshotError(
            f"snapshot payload has {len(payload)} bytes, expected {8 * count}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(n_comp, *sizes).copy()
    return values, time


def write_state(path, grid: Grid, state):
    """Density plus momentum components stacked into one snapshot."""
    stacked = np.concatenate([state.rho[None], state.mom], axis=0)
    write_field(path, grid, stacked, state.t)


def write_young_measure(out_dir, grid: Grid, ym, time: float):
    """Per-cell atom lists in the snapshot format (one file per variable)."""
    write_field(os.path.join(out_dir, "ym_rho.snap"), grid, ym.rho_atoms, time)
    m = ym.mom_atoms.reshape(ym.n_atoms * grid.dim, *grid.sizes)
    write_field(os.path.join(out_dir, "ym_mom.snap"), grid, m, time)


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def write_csv(path, columns: dict):
    """Deterministically formatted CSV, columns in the dict's order."""
    cols = list(columns.values())
    lines = [",".join(columns)]
    for i in range(len(cols[0])):
        row = (col[i] for col in cols)
        lines.append(",".join(format_float(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_format_marker(out_dir):
    with open(os.path.join(out_dir, "FORMAT"), "w", encoding="ascii") as fh:
        fh.write(FORMAT_VERSION + "\n")


def write_summary(path, payload: dict):
    """Machine-readable flat JSON summary (sorted keys, ascii)."""
    import json

    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.bool_):
        return bool(x)
    raise TypeError(f"not JSON serializable: {type(x)}")
