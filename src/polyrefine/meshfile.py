"""Reading and writing the native structured-text mesh format.

A mesh file looks like::

    polymesh 1
    nodes 4
    0.0 0.0
    1.0 0.0
    1.0 1.0
    0.0 1.0
    elements 1
    0 1 2 3

Indices are 0-based and coordinates are written with shortest round-trip
precision, so ``load_mesh(save_mesh(...))`` reproduces the mesh exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh_core import MeshError, ValidationReport, _as_nodes, _checked_tables, _cycle_lists, validate_mesh

FORMAT_NAME = "polymesh"
FORMAT_VERSION = 1


class MeshParseError(MeshError):
    """The file is not a well-formed mesh document."""


class MeshValidationError(MeshError):
    """The file parsed but describes an invalid mesh."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


def _read_lines(path):
    """The stripped non-blank lines of a UTF-8 text file, and the file's own 1-based number of each."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError as exc:
        raise MeshParseError(f"{path} is not UTF-8 text: {exc}") from exc
    numbers = [k for k, ln in enumerate(lines, 1) if ln]
    return [ln for ln in lines if ln], numbers


def read_mesh_file(path):
    """Parse a mesh file without validating the mesh it describes."""
    lines, numbers = _read_lines(path)
    pos = 0

    def take(expect: str):
        nonlocal pos
        if pos >= len(lines):
            raise MeshParseError(f"unexpected end of file, expected '{expect}'")
        parts = lines[pos].split()
        pos += 1
        if parts[0] != expect:
            raise MeshParseError(f"line {numbers[pos - 1]}: expected '{expect}', got '{parts[0]}'")
        return parts[1:]

    def block(expect: str):
        """Index of the first of the ``count`` lines below the header ``expect <count>``, and those lines."""
        nonlocal pos
        head = take(expect)
        try:
            (n,) = map(int, head)
        except ValueError as exc:
            raise MeshParseError(f"line {numbers[pos - 1]}: '{expect}' needs one integer count") from exc
        if not 0 <= n <= len(lines) - pos:
            raise MeshParseError(f"line {numbers[pos - 1]}: {expect} count {n} is not in [0, {len(lines) - pos}]")
        pos += n
        return pos - n, lines[pos - n:pos]

    head = take(FORMAT_NAME)
    if len(head) != 1 or head[0] != str(FORMAT_VERSION):
        raise MeshParseError(f"unsupported format version {head}")
    at, rows = block("nodes")
    bad = next((k for k, row in enumerate(rows) if len(row.split()) != 2), None)
    if bad is not None:
        raise MeshParseError(f"line {numbers[at + bad]}: a node needs 2 coordinates, got {len(rows[bad].split())}")
    try:
        nodes = np.array(" ".join(rows).split(), dtype=float).reshape(-1, 2)
    except ValueError as exc:
        raise MeshParseError(f"node block below line {numbers[at - 1]}: {exc}") from exc
    at, rows = block("elements")
    try:
        elements = [list(map(int, row.split())) for row in rows]
    except ValueError as exc:
        raise MeshParseError(f"element block below line {numbers[at - 1]}: {exc}") from exc
    if pos != len(lines):
        raise MeshParseError(f"trailing content at line {numbers[pos]}")
    return nodes, elements


def load_mesh(path):
    """Load and validate a mesh; raises ``MeshValidationError`` on violations."""
    nodes, elements = read_mesh_file(path)
    report = validate_mesh(nodes, elements)
    if not report.ok:
        raise MeshValidationError(report)
    return nodes, elements


def save_mesh(nodes, elements, path) -> None:
    """Write a mesh with full (round-trip) coordinate precision; raises what
    ``build_topology`` raises for a bad cell (``_checked_tables``), writing nothing."""
    nodes = _as_nodes(nodes)
    offsets, cycles = _checked_tables(nodes, elements)[:2]
    out = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"nodes {len(nodes)}"]
    out += [f"{x!r} {y!r}" for x, y in nodes.tolist()]
    out.append(f"elements {len(elements)}")
    out += [" ".join(map(str, c)) for c in _cycle_lists(offsets, cycles)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def save_field(values, path) -> None:
    """Write one scalar per line with round-trip precision; raises ``ValueError``,
    writing nothing, unless every value is finite."""
    values = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"field value {int(bad[0])} is {values[bad[0]]}, not finite")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, values.tolist())) + "\n")


def load_field(path) -> np.ndarray:
    """One scalar per non-blank line; raises ``MeshParseError``, citing the file's
    own line number, unless each is a finite number."""
    values = []
    for ln, k in zip(*_read_lines(path)):
        try:
            values.append(float(ln))
        except ValueError as exc:
            raise MeshParseError(f"bad field file {path}: line {k}: {exc}") from exc
        if not math.isfinite(values[-1]):
            raise MeshParseError(f"bad field file {path}: line {k} is {values[-1]}, not finite")
    return np.array(values)
