"""Command-line interface.

Subcommands:

* ``refine``  -- apply local refinement to a mesh file.
* ``adapt``   -- run the adaptive Poisson loop on the built-in peak problem,
  writing per-step meshes, SVGs and a CSV convergence log.
* ``quality`` -- print a validation report and mesh statistics.
* ``render``  -- write an SVG picture of a mesh, optionally colored by a
  vertex field.
"""

from __future__ import annotations

import argparse
import sys

from .adaptivity import adaptive_loop
from .mesh_core import (
    MeshError,
    _side_ratios,
    build_topology,
    check_conformity,
)
from .meshfile import (
    MeshParseError,
    MeshValidationError,
    _read_and_validate,
    _read_lines,
    load_field,
    load_mesh,
    save_field,
    save_mesh,
)
from .problems import gaussian_peak_problem
from .refinement import refine
from .svg import render_svg

CSV_HEADER = "step,N,NT,total_eta,marked_count"


def _parse_marked(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise MeshParseError(f"bad marked list '{text}': {exc}") from exc


def _checked(convert, ok, what: str):
    """argparse type: ``convert(text)``, rejected unless ``ok`` holds for it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got '{text}'")
        return value

    return parse


def _cmd_refine(args) -> int:
    nodes, elements = load_mesh(args.infile)
    if args.marks_file is not None:
        passes = [_parse_marked(ln) for ln in _read_lines(args.marks_file)[0]]
    else:
        passes = [_parse_marked(args.marked)]
    for marked in passes:
        nodes, elements = refine(nodes, elements, marked)
    save_mesh(nodes, elements, args.out)
    print(f"refined: {len(nodes)} nodes, {len(elements)} elements -> {args.out}")
    return 0


def _cmd_adapt(args) -> int:
    nodes, elements = load_mesh(args.infile)
    u_exact, f = gaussian_peak_problem()
    prefix = args.out_prefix

    def on_step(step, nds, els, u, eta, marked):
        save_mesh(nds, els, f"{prefix}_step{step:03d}.mesh")
        render_svg(nds, els, f"{prefix}_step{step:03d}.svg")

    run = adaptive_loop(
        nodes, elements, f, u_exact,
        theta=args.theta, max_steps=args.steps,
        dof_cap=args.dof_cap or None,
        on_step=on_step,
    )
    rows = [f"{r.step},{r.num_nodes},{r.num_elements},{r.total_eta!r},{r.marked_count}"
            for r in run.records[1:]]
    with open(f"{prefix}.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join([CSV_HEADER] + rows) + "\n")
    save_field(run.solution, f"{prefix}_solution.txt")
    last = run.records[-1]
    print(
        f"adapt: {len(run.records)} meshes, final {last.num_nodes} nodes, "
        f"{last.num_elements} elements, total_eta={last.total_eta:.6g}"
    )
    return 0


def _cmd_quality(args) -> int:
    nodes, elements, report = _read_and_validate(args.infile)
    print(report)
    if not report.ok:
        return 1
    topology = build_topology(nodes, elements)
    issues = check_conformity(nodes, elements, topology)
    for msg in issues:
        print(f"conformity: {msg}")
    hanging = int(topology.hanging.sum())
    ratios = _side_ratios(nodes, topology)
    print(f"nodes {len(nodes)}, elements {len(elements)}, edges {topology.num_edges}")
    print(f"hanging nodes: {hanging}")
    print(f"edge/diameter ratio: min {ratios.min():.6g} max {ratios.max():.6g}")
    return 1 if issues else 0


def _cmd_render(args) -> int:
    nodes, elements = load_mesh(args.infile)
    values = load_field(args.field) if args.field else None
    if values is not None and len(values) != len(nodes):
        raise MeshError(f"field has {len(values)} values for {len(nodes)} nodes")
    render_svg(nodes, elements, args.out, values=values)
    print(f"rendered {len(elements)} polygons -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyrefine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="locally refine a mesh file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    marks = p.add_mutually_exclusive_group(required=True)
    marks.add_argument("--marked", help="comma-separated element indices")
    marks.add_argument("--marks-file", help="one comma-separated marked list per pass")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("adapt", help="adaptive Poisson loop on the peak problem")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--theta", type=_checked(float, lambda t: 0.0 < t <= 1.0, "a number in (0, 1]"),
                   default=0.4)
    count = _checked(int, lambda n: n >= 0, "an integer >= 0")
    p.add_argument("--steps", type=count, default=30)
    p.add_argument("--dof-cap", type=count, default=0,
                   help="stop once the node count reaches this (0 = unlimited)")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("quality", help="validation report and statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("render", help="draw a mesh (optionally colored by a field) as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--field", help="text file with one vertex value per line")
    p.set_defaults(func=_cmd_render)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MeshParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except MeshValidationError as exc:
        first = exc.report.violations[0]
        print(f"invalid mesh: {first}", file=sys.stderr)
        return 1
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
