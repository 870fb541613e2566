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

``save_mesh`` writes from the flat arrays, with no list per row: one
``"%r %r\\n" * N`` format over the raveled nodes, and one ``%d`` row format
per cycle length, joined in element order, over the concatenated cycles.
``read_mesh_file`` parses the node block as one token stream read by
``float``, and each element row with Python's own ``int``, so an index beyond
int64 stays a Python int for validation to report; it builds those lists with
the cyclic garbage collector paused (``mesh_core._CollectorPaused``).  It reads
them once with ``_cycle_arrays``; when every entry is a vertex index it lists
the cells again through ``_cycle_lists``, one ``int`` object per vertex, as
every other table builder does, and ``load_mesh`` and the CLI's ``quality``
validate those same flat arrays.  ``_read_lines`` numbers the lines with a
``range`` when none is blank.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh_core import (MeshError, ValidationReport, _as_nodes, _checked_tables, _CollectorPaused, _cycle_arrays,
                        _cycle_lists, _nonfinite_report, _validated)

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
    """The stripped non-blank lines of a UTF-8 text file, and the file's own 1-based number
    of each: a ``range`` when no line is blank, as in every file ``save_mesh`` writes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError as exc:
        raise MeshParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if all(lines):
        return lines, range(1, len(lines) + 1)
    numbers = [k for k, ln in enumerate(lines, 1) if ln]
    return [ln for ln in lines if ln], numbers


def read_mesh_file(path):
    """Parse a mesh file without validating the mesh it describes."""
    return _read_mesh(path)[:2]


def _read_mesh(path):
    """``read_mesh_file``'s nodes and elements, and the elements' ``_cycle_arrays``, from
    which they are listed again, one ``int`` per vertex, when every entry is a vertex
    index; otherwise they are the parsed rows, so each bad entry keeps its value."""
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
        with _CollectorPaused():
            elements = [list(map(int, row.split())) for row in rows]
    except ValueError as exc:
        raise MeshParseError(f"element block below line {numbers[at - 1]}: {exc}") from exc
    if pos != len(lines):
        raise MeshParseError(f"trailing content at line {numbers[pos]}")
    del lines, numbers, rows  # the text, freed before the table is listed again
    offsets, cycles = _cycle_arrays(elements, len(nodes))
    if cycles.min(initial=0) >= 0:
        del elements
        elements = _cycle_lists(offsets, cycles)
    return nodes, elements, offsets, cycles


def _read_and_validate(path):
    """A mesh file's nodes, elements and ``validate_mesh`` report, its table read once."""
    nodes, elements, offsets, cycles = _read_mesh(path)
    return nodes, elements, _nonfinite_report(nodes) or _validated(nodes, offsets, cycles)


def load_mesh(path):
    """Load and validate a mesh; raises ``MeshValidationError`` on violations."""
    nodes, elements, report = _read_and_validate(path)
    if not report.ok:
        raise MeshValidationError(report)
    return nodes, elements


def save_mesh(nodes, elements, path) -> None:
    """Write a mesh with full (round-trip) coordinate precision; raises what
    ``build_topology`` raises for a bad cell (``_checked_tables``), writing nothing."""
    nodes = _as_nodes(nodes)
    offsets, cycles = _checked_tables(nodes, elements)[:2]
    lengths = np.diff(offsets).tolist()
    row = {n: " ".join(["%d"] * n) + "\n" for n in set(lengths)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_NAME} {FORMAT_VERSION}\nnodes {len(nodes)}\n")
        fh.write("%r %r\n" * len(nodes) % tuple(nodes.ravel().tolist()))
        fh.write(f"elements {len(lengths)}\n")
        fh.write("".join(map(row.__getitem__, lengths)) % tuple(cycles.tolist()))


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
