"""Deterministic SVG rendering of meshes and vertex fields."""

from __future__ import annotations

import numpy as np

from .mesh_core import _as_nodes, _bounding_box, _checked_tables, _cycle_lists, _length_groups


def _fmt(v: float) -> str:
    return f"{v:.8g}"


# linear blue-to-red ramp, indexed by the red level
_RAMP = [f"#{r:02x}00{255 - r:02x}" for r in range(256)]


def render_svg(nodes, elements, path, values=None) -> None:
    """Write one SVG polygon per element.

    With ``values`` (one scalar per vertex) each polygon is filled by the
    mean of its vertex values through a linear color ramp.  The viewport is
    the bounding box of the finite nodes with a 2% margin; strokes are 0.2% of
    the box diagonal.  Output bytes depend only on the inputs.  Raises what
    ``build_topology`` raises for a bad cell (see ``_checked_tables``), writing
    nothing, and ``ValueError`` when no node is finite or unless ``values`` holds one
    finite number per vertex.
    """
    nodes = _as_nodes(nodes)
    offsets, cycles = _checked_tables(nodes, elements)[:2]
    finite = nodes[np.isfinite(nodes).all(axis=1)]
    if not len(finite):
        raise ValueError("no finite node frames the picture")
    lo, hi, _ = _bounding_box(finite)
    span = np.maximum(hi - lo, 1e-12)
    margin = 0.02 * span
    x0, y0 = lo - margin
    w, h = span + 2 * margin
    stroke = 0.002 * float(np.hypot(w, h))
    # flip vertically inside the box so y grows upward in the image
    ysum = (lo[1] - margin[1]) + (hi[1] + margin[1])

    fills = ["none"] * (len(offsets) - 1)
    if values is not None:
        values = np.asarray(values, dtype=float)
        if len(values) != len(nodes) or not np.isfinite(values).all():
            raise ValueError("need one finite value per vertex")
        # scaled by a power of two to |v| < 1: exact, and no cell mean or spread of means overflows
        values = np.ldexp(values, -np.frexp(np.abs(values).max())[1])
        per_elem = np.empty(len(fills))  # row means sum in the order a per-cycle mean does
        for idx, cyc in _length_groups(offsets, cycles):
            per_elem[idx] = values[cyc].mean(axis=1)
        vmin, vmax = float(per_elem.min(initial=np.inf)), float(per_elem.max(initial=-np.inf))  # no cell: no fill
        den = vmax - vmin if vmax > vmin else 1.0
        red = np.rint(255 * ((per_elem - vmin) / den)).astype(np.int64)  # half to even, as round does
        fills = [_RAMP[r] for r in red.tolist()]

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
        f'<g stroke="#000000" stroke-width="{_fmt(stroke)}" stroke-linejoin="round">',
    ]
    points = [f"{_fmt(x)},{_fmt(ysum - y)}" for x, y in nodes.tolist()]
    for cycle, fill in zip(_cycle_lists(offsets, cycles), fills):
        pts = " ".join([points[v] for v in cycle])
        out.append(f'<polygon points="{pts}" fill="{fill}"/>')
    out += ["</g>", "</svg>"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
