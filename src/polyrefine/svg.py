"""Deterministic SVG rendering of meshes and vertex fields."""

from __future__ import annotations

import numpy as np

from .mesh_core import _as_nodes, _cycle_arrays, _cycle_lists, _length_groups, _require_indices


def _fmt(v: float) -> str:
    return f"{v:.8g}"


def _ramp(t: float) -> str:
    """Linear blue-to-red ramp."""
    r = int(round(255 * t))
    return f"#{r:02x}00{255 - r:02x}"


def render_svg(nodes, elements, path, values=None) -> None:
    """Write one SVG polygon per element.

    With ``values`` (one scalar per vertex) each polygon is filled by the
    mean of its vertex values through a linear color ramp.  The viewport is
    the mesh bounding box with a 2% margin; strokes are 0.2% of the box
    diagonal.  Output bytes depend only on the inputs.  Raises
    ``InvalidIndexError`` if an element entry is not a vertex index.
    """
    nodes = _as_nodes(nodes)
    offsets, cycles = _cycle_arrays(elements, len(nodes))
    _require_indices(offsets, cycles)
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    margin = 0.02 * span
    x0, y0 = lo - margin
    w, h = span + 2 * margin
    stroke = 0.002 * float(np.hypot(w, h))
    # flip vertically inside the box so y grows upward in the image
    ysum = (lo[1] - margin[1]) + (hi[1] + margin[1])

    fills = None
    if values is not None:
        values = np.asarray(values, dtype=float)
        if len(values) != len(nodes):
            raise ValueError("need one value per vertex")
        per_elem = np.empty(len(offsets) - 1)  # row means sum in the order a per-cycle mean does
        for idx, cyc in _length_groups(offsets, cycles, np.arange(len(per_elem))):
            per_elem[idx] = values[cyc].mean(axis=1)
        vmin, vmax = float(per_elem.min()), float(per_elem.max())
        den = vmax - vmin if vmax > vmin else 1.0
        fills = [(v - vmin) / den for v in per_elem]

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
        f'<g stroke="#000000" stroke-width="{_fmt(stroke)}" stroke-linejoin="round">',
    ]
    points = [f"{_fmt(x)},{_fmt(ysum - y)}" for x, y in nodes.tolist()]
    for i, cycle in enumerate(_cycle_lists(offsets, cycles)):
        pts = " ".join([points[v] for v in cycle])
        fill = _ramp(fills[i]) if fills is not None else "none"
        out.append(f'<polygon points="{pts}" fill="{fill}"/>')
    out += ["</g>", "</svg>"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
