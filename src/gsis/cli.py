"""Command-line interface.

Verbs mirror the library layers: ``graph export``, ``space
bandlimited|gsis|bounds|uncertainty``, ``kernel make``, ``sample
subset|dynamic``, ``reconstruct direct|krylov``, ``experiment
damped-cosine`` and ``model-compare``.  Graphs come from an edge-list file
(``--graph``) or a circulant construction (``--circulant N --q 1,3``); all
outputs are CSV matrices plus JSON metadata under ``--out``.  An option
that stands for a library argument is passed on only when given, so the
library's own defaults are the tool's.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import io
from .errors import GsisError
from .experiments import (
    ExperimentConfig,
    ingest_signals_csv,
    run_circulant_experiment,
    run_model_comparison,
)
from .graphs import (
    SHIFT_KINDS,
    Graph,
    ShiftSet,
    _index_set,
    _signal,
    build_circulant,
    build_standard_shifts,
    read_edge_list,
)
from .kernels import KERNEL_FAMILIES, make_kernel
from .sampling import (
    Observation,
    _dynamic_scheme,
    reconstruct_direct,
    reconstruct_krylov,
    subset_sampler,
)
from .spaces import (
    bandlimited_space,
    canonical_generator,
    frame_bounds,
    gsis_from_generators,
    riesz_bounds,
    uncertainty_check,
)
from .spectral import diagonalize_simultaneously


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_range(text: str) -> list[int]:
    """Accept 'a:b' (inclusive), a comma list, or a single integer."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _parse_int_list(text)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` that were given; the library defaults the rest."""
    return {name: getattr(args, name) for name in names if name in args}


def _build_graph_shifts(args: argparse.Namespace) -> tuple[Graph, ShiftSet]:
    if args.graph is not None and args.circulant is not None:
        raise ValueError("use either --graph or --circulant, not both")
    if args.circulant is not None:
        if not args.q:
            raise ValueError("--circulant requires --q with at least one offset")
        return build_circulant(args.circulant, args.q)
    if args.graph is None:
        raise ValueError("a graph is required: pass --graph FILE or --circulant N --q LIST")
    graph = read_edge_list(args.graph)
    shift = build_standard_shifts(graph, args.shift_kind)
    return graph, ShiftSet((shift,))


def _load_generators(args: argparse.Namespace, n: int) -> list[np.ndarray]:
    gens: list[np.ndarray] = []
    for vertex in args.delta_gen or []:
        if not 0 <= vertex < n:
            raise ValueError(f"generator vertex {vertex} must lie in [0, {n})")
        g = np.zeros(n)
        g[vertex] = 1.0
        gens.append(g)
    if args.generator:
        rows = io.load_matrix_csv(args.generator)
        gens.extend(_signal(row, n, "generator") for row in rows)
    if not gens:
        flag = "--delta-gen" if args.command == "reconstruct" else "--delta"
        raise ValueError(f"a generator is required: pass {flag} VERTS or --generator FILE")
    return gens


def _cmd_graph_export(args) -> int:
    graph, shifts = _build_graph_shifts(args)
    out = Path(args.out)
    files = [io.save_shift_csv(out / f"shift_{k}.csv", s) for k, s in enumerate(shifts)]
    decomp = diagonalize_simultaneously(shifts)
    files.extend(io.save_decomposition(decomp, out))
    print(
        f"wrote {len(files)} files to {out} "
        f"(n_vertices={graph.n_vertices}, n_shifts={len(shifts)}, "
        f"assumption1={decomp.assumption1_holds})"
    )
    return 0


def _cmd_space(args) -> int:
    graph, shifts = _build_graph_shifts(args)
    cmd, omega = args.space_cmd, getattr(args, "omega", None)
    # every input is read and checked before the eigendecomposition
    gens = None
    if cmd in ("gsis", "uncertainty") or (cmd == "bounds" and (args.generator or args.delta_gen)):
        gens = _load_generators(args, graph.n_vertices)
    elif omega is None:
        alternative = " (or --generator)" if cmd == "bounds" else ""
        raise ValueError(f"space {cmd} needs --omega{alternative}")
    if cmd in ("bounds", "uncertainty") and gens is not None and len(gens) > 1:
        raise ValueError(f"space {cmd} takes one generator, got {len(gens)}")
    decomp = diagonalize_simultaneously(shifts)
    out = Path(args.out)
    if cmd in ("bandlimited", "gsis"):
        if cmd == "bandlimited":
            space = bandlimited_space(decomp, omega)
        else:
            space = gsis_from_generators(decomp, gens)
        io.save_space(space, out)
        print(f"wrote {space.provenance} space of dim {space.dim} to {out}")
        return 0
    if cmd == "bounds":
        if omega is None:
            # read the generator on its space's own (possibly adapted) decomposition
            space = gsis_from_generators(decomp, gens)
            decomp, omega = space.decomp, list(space.omega)
        gen = canonical_generator(decomp, omega, seed=args.seed)
        phi0 = gens[0] if gens else gen.generator
        r_lo, r_hi = riesz_bounds(decomp, gen.combined_shift, phi0, omega)
        f_lo, f_hi = frame_bounds(decomp, phi0, args.frame_level)
        payload = {
            "omega": sorted(int(k) for k in omega),
            "riesz_bounds": [r_lo, r_hi],
            "frame_bounds": [f_lo, f_hi],
            "frame_level": args.frame_level,
        }
    else:
        payload = asdict(uncertainty_check(decomp, gens[0]))
    io.save_json(out / f"{cmd}.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_kernel_make(args) -> int:
    graph, shifts = _build_graph_shifts(args)
    params: dict[str, float] = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        params[name.strip()] = float(value)
    base = shifts[_index_set([args.base_index], len(shifts), "--base-index")[0]]
    decomp = diagonalize_simultaneously(shifts)
    kernel = make_kernel(decomp, base, args.family, **params)
    out = Path(args.out)
    io.save_kernel(kernel, out)
    print(
        f"wrote {args.family} kernel to {out} "
        f"(rank {len(kernel.omega)} of {graph.n_vertices})"
    )
    return 0


def _cmd_sample(args) -> int:
    _, shifts = _build_graph_shifts(args)
    if args.sample_cmd == "subset":
        scheme = subset_sampler(shifts.n_vertices, args.w)
    else:
        scheme = _dynamic_scheme(shifts[0], args.i0, args.k)
    out = Path(args.out)
    io.save_scheme(scheme, out)
    print(f"wrote {scheme.provenance} scheme ({scheme.n_samples} samples) to {out}")
    return 0


def _cmd_reconstruct(args) -> int:
    graph, shifts = _build_graph_shifts(args)
    direct = args.reconstruct_cmd == "direct"
    # every input is read and checked before the eigendecomposition
    if args.w is None and args.i0 is None:
        raise ValueError("a sampling scheme is required: pass --w LIST or --i0 V --k K")
    if args.w is None and args.k is None:
        raise ValueError("dynamic sampling needs --k snapshots")
    if direct and args.omega is None:
        raise ValueError("reconstruct direct needs --omega")
    # y is checked against the subset's size, or --k for a dynamic scheme
    scheme = None if args.w is None else subset_sampler(graph.n_vertices, args.w)
    y = _signal(io.load_matrix_csv(args.y), args.k if scheme is None else scheme.n_samples, "y")
    gens = None if direct else _load_generators(args, graph.n_vertices)
    if scheme is None:
        # no spectral check: every joint eigenbasis of the family diagonalizes shifts[0]
        scheme = _dynamic_scheme(shifts[0], args.i0, args.k)
    out = Path(args.out)
    if direct:
        decomp = diagonalize_simultaneously(shifts)
        x = reconstruct_direct(decomp, args.omega, scheme, y)
        io.save_matrix_csv(out / "reconstruction_signal.csv", x)
        message = f"wrote direct reconstruction to {out}"
    else:
        options = _given(args, "delta", "max_level", "require_injective")
        result = reconstruct_krylov(shifts, gens, scheme, y, **options)
        io.save_reconstruction(result, out)
        message = (
            f"wrote reconstruction to {out} "
            f"(depth {result.depth}, dim {result.dims_trace[-1]}, "
            f"residual {result.residual_trace[-1]:.3e})"
        )
    io.save_observation(Observation(y, scheme), out)
    print(message)
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(**_given(args, *(f.name for f in fields(ExperimentConfig))))
    table = run_circulant_experiment(config)
    files = io.save_metrics(table, args.out)
    print(f"wrote {', '.join(f.name for f in files)} to {args.out}")
    return 0


def _cmd_model_compare(args) -> int:
    graph, shifts = _build_graph_shifts(args)
    dataset = ingest_signals_csv(args.signals, graph)
    if not dataset:
        raise ValueError(f"{args.signals}: no signals found")
    options = _given(args, "levels")
    if "generators" in args:
        rule, _, k_text = args.generators.partition(":")
        if rule not in ("adaptive", "nonadaptive") or not k_text.isdigit():
            raise ValueError("--generators expects adaptive:K or nonadaptive:K")
        options.update(rule=rule, n_generators=int(k_text))
    decomp = diagonalize_simultaneously(shifts)
    comp = run_model_comparison(shifts, decomp, dataset, **options)
    files = io.save_model_comparison(comp, args.out)
    print(f"wrote {', '.join(f.name for f in files)} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsis",
        description="Shift-invariant graph signal spaces: spectra, sampling, reconstruction.",
    )
    # options shared by many verbs, declared once and inherited as parents
    graph_source = argparse.ArgumentParser(add_help=False)
    graph_source.add_argument("--graph", metavar="FILE", help="edge-list file (header 'N <count>')")
    graph_source.add_argument("--circulant", type=int, metavar="N", help="circulant graph order")
    graph_source.add_argument("--q", type=_parse_int_list, metavar="LIST", help="circulant offsets, e.g. 1,3")
    graph_source.add_argument(
        "--shift-kind",
        choices=SHIFT_KINDS,
        default="laplacian",
        help="shift built on an edge-list graph (default laplacian)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="gsis-out")
    on_graph = [graph_source, output]
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="graph and shift utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_cmd", required=True)
    p_export = graph_sub.add_parser("export", parents=on_graph, help="export shifts and decomposition")
    p_export.set_defaults(func=_cmd_graph_export)

    p_space = sub.add_parser("space", help="build spaces and their stability constants")
    space_sub = p_space.add_subparsers(dest="space_cmd", required=True)
    for name in ("bandlimited", "gsis", "bounds", "uncertainty"):
        sp = space_sub.add_parser(name, parents=on_graph)
        if name in ("bandlimited", "bounds"):
            sp.add_argument("--omega", type=_parse_range, default=None, metavar="LIST")
        if name in ("gsis", "bounds", "uncertainty"):
            sp.add_argument("--generator", metavar="FILE", default=None)
            # one dest with reconstruct krylov's --delta-gen: both name generator vertices
            sp.add_argument("--delta", dest="delta_gen", type=_parse_int_list, metavar="VERTS")
        if name == "bounds":
            sp.add_argument("--frame-level", type=int, default=8, help="shifted-generator levels in the frame family")
            sp.add_argument("--seed", type=int, default=0, help="seed of the canonical generator's random direction")
        sp.set_defaults(func=_cmd_space)

    p_kernel = sub.add_parser("kernel", help="shift-invariant kernels")
    kernel_sub = p_kernel.add_subparsers(dest="kernel_cmd", required=True)
    p_make = kernel_sub.add_parser("make", parents=on_graph)
    p_make.add_argument("--family", choices=KERNEL_FAMILIES, required=True)
    p_make.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_make.add_argument("--base-index", type=int, default=0, help="shift used as kernel base")
    p_make.set_defaults(func=_cmd_kernel_make)

    p_sample = sub.add_parser("sample", help="sampling schemes")
    sample_sub = p_sample.add_subparsers(dest="sample_cmd", required=True)
    p_subset = sample_sub.add_parser("subset", parents=on_graph)
    p_subset.add_argument("--w", type=_parse_range, required=True, metavar="LIST")
    p_subset.set_defaults(func=_cmd_sample)
    p_dynamic = sample_sub.add_parser("dynamic", parents=on_graph)
    p_dynamic.add_argument("--i0", type=int, required=True)
    p_dynamic.add_argument("--k", type=int, required=True)
    p_dynamic.set_defaults(func=_cmd_sample)

    p_rec = sub.add_parser("reconstruct", help="reconstruct signals from samples")
    rec_sub = p_rec.add_subparsers(dest="reconstruct_cmd", required=True)
    for name in ("direct", "krylov"):
        rp = rec_sub.add_parser(name, parents=on_graph)
        rp.add_argument("--y", required=True, metavar="FILE", help="observed values CSV")
        rp.add_argument("--w", type=_parse_range, default=None, metavar="LIST")
        rp.add_argument("--i0", type=int, default=None)
        rp.add_argument("--k", type=int, default=None)
        if name == "direct":
            rp.add_argument("--omega", type=_parse_range, default=None, metavar="LIST")
        else:
            rp.add_argument("--generator", metavar="FILE", default=None)
            rp.add_argument("--delta-gen", dest="delta_gen", type=_parse_int_list, default=None)
            rp.add_argument("--delta", type=float, default=argparse.SUPPRESS, help="residual stopping threshold")
            rp.add_argument("--max-level", type=int, default=argparse.SUPPRESS)
            rp.add_argument(
                "--allow-degenerate",
                action="store_false",
                dest="require_injective",
                default=argparse.SUPPRESS,
                help="drop directions invisible to the scheme instead of failing",
            )
        rp.set_defaults(func=_cmd_reconstruct)

    p_exp = sub.add_parser("experiment", help="reconstruction error sweeps")
    exp_sub = p_exp.add_subparsers(dest="experiment_cmd", required=True)
    p_dc = exp_sub.add_parser("damped-cosine", parents=[output])
    for flag, dest, kind in (
        ("--n", "n_vertices", int),
        ("--q", "offsets", _parse_int_list),
        ("--amp", "amplitude", float),
        ("--decay", "decay", float),
        ("--freq", "frequency", float),
        ("--sigma", "sigma", float),
        ("--trials", "trials", int),
        ("--p-range", "p_values", _parse_range),
        ("--level-range", "levels", _parse_range),
        ("--seed", "seed", int),
        ("--delta", "delta", float),
    ):
        p_dc.add_argument(flag, dest=dest, type=kind, default=argparse.SUPPRESS)
    p_dc.set_defaults(func=_cmd_experiment)

    p_mc = sub.add_parser("model-compare", parents=on_graph, help="generated spans vs bandlimited spaces")
    p_mc.add_argument("--signals", required=True, metavar="FILE")
    p_mc.add_argument("--generators", default=argparse.SUPPRESS, metavar="RULE:K")
    p_mc.add_argument("--levels", type=_parse_range, default=argparse.SUPPRESS)
    p_mc.set_defaults(func=_cmd_model_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GsisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
