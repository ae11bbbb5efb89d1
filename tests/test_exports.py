"""The public export lists name only what exists, and removed aliases stay gone."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np

import gsis


def test_every_exported_name_resolves():
    for name in gsis.__all__:
        assert hasattr(gsis, name), f"gsis.{name}"
    for info in pkgutil.iter_modules(gsis.__path__):
        module = importlib.import_module(f"gsis.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"gsis.{info.name}.{name}"


def test_removed_aliases_are_gone():
    assert not hasattr(gsis, "metric_for_kernel")
    assert not hasattr(gsis, "validate_shift")
    assert not hasattr(gsis.SpectralDecomposition, "gft")
    assert not hasattr(gsis.SpectralDecomposition, "igft")
    assert not hasattr(gsis, "joint_eigenvalue_clusters")
    # a graph and its shifts keep one sparse form each; derived copies must not return
    assert not hasattr(gsis.Graph, "_endpoints")
    assert not hasattr(gsis.graphs, "_by_row")
    assert not hasattr(gsis.graphs, "_entries")
    # a scheme applies itself and a combination of shifts is a shift, so no second path returns
    assert not hasattr(gsis.OrthogonalBasis(4, gsis.subset_sampler(4, [1])), "_rows")
    assert not hasattr(gsis.ShiftMatrix, "_dense")
    # a shift applies itself as S @ X or X @ S, and only graphs.py knows how
    assert not hasattr(gsis.ShiftMatrix, "_times")
    assert not hasattr(gsis.ShiftMatrix, "_commutator")
    assert not hasattr(gsis.spectral, "_norm_and_image")
    # signals pass graphs._signal, so its flattening helper does not return
    assert not hasattr(gsis.graphs, "_vector")
    # wrappers of one expression: callers write the expression
    for owner, member in (
        (gsis, "krylov_level_bases"),
        (gsis.experiments, "krylov_level_bases"),
        (gsis, "polynomial_filter_matrix"),
        (gsis.spectral, "polynomial_filter_matrix"),
        (gsis, "lagrange_projector"),
        (gsis.spectral, "lagrange_projector"),
        (gsis.SamplingScheme, "apply"),
        (gsis.SpectralDecomposition, "joint_spectrum"),
        (gsis.ShiftSet, "n_shifts"),
        (gsis.Graph, "weight_of"),
        (gsis.Graph, "has_edge"),
        (gsis.Graph, "_find"),
        (gsis.Graph, "edge_mask"),
    ):
        assert not hasattr(owner, member), f"{owner.__name__}.{member}"
    for info in pkgutil.iter_modules(gsis.__path__):
        if info.name != "graphs":
            source = inspect.getsource(importlib.import_module(f"gsis.{info.name}"))
            for helper in ("_slots_pay", "_slot_apply", "_dense"):
                assert not re.search(rf"\b{helper}\b", source), f"gsis.{info.name} names {helper}"


# Options removed in favour of module constants, the argument
# gsis_from_generators never read, the basis and decomposition arguments a
# space and a metric now carry themselves, and the scheme metadata only the
# samplers set; none may come back.
REMOVED_KEYWORDS = {
    "SignalSpace": ("basis",),
    "rkhs_inner_product": ("decomp",),
    "kernel_for_metric": ("decomp",),
    "OrthogonalBasis": ("drop_rel", "invisible_rel"),
    "ShiftMatrix": ("tol",),
    "ShiftSet": ("tol",),
    "Observation": ("noise",),
    "check_commutative": ("tol",),
    "diagonalize_simultaneously": ("tol", "max_retries", "seed"),
    "canonical_generator": ("max_retries", "gap_rel"),
    "gsis_from_generators": ("shifts", "support_tol"),
    "uncertainty_check": ("support_tol",),
    "krylov_subspace": ("drop_rel",),
    "reconstruct_krylov": ("drop_rel",),
    "is_shift_invariant": ("tol",),
    "is_shift_invariant_kernel": ("tol",),
    "is_reproducing_metric": ("tol",),
    "is_polynomial_filter": ("tol", "decomp"),
    "check_injective": ("tol",),
    "check_dynamic_injective": ("gap_rel",),
    "apply_polynomial_filter": ("decomp",),
    "SamplingScheme": ("provenance", "vertices", "initial_vertex", "n_snapshots"),
}


def test_removed_keywords_are_gone():
    chain_params = inspect.signature(gsis.spaces.KrylovChain).parameters
    assert "drop_rel" not in chain_params
    assert "tol" not in inspect.signature(gsis.SignalSpace.contains).parameters
    for name, keywords in REMOVED_KEYWORDS.items():
        params = inspect.signature(getattr(gsis, name)).parameters
        for keyword in keywords:
            assert keyword not in params, f"{name}({keyword})"


def _unread_parameters(function: ast.FunctionDef) -> list[str]:
    args = function.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {
        node.id
        for stmt in function.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [n for n in names if n not in ("self", "cls") and n not in read]


def test_every_public_parameter_is_read():
    unread = []
    for info in pkgutil.iter_modules(gsis.__path__):
        module = importlib.import_module(f"gsis.{info.name}")
        public = set(getattr(module, "__all__", ()))
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                unread += [f"{node.name}({p})" for p in _unread_parameters(node)]
            elif isinstance(node, ast.ClassDef) and node.name in public:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        not item.name.startswith("_") or item.name in ("__init__", "__post_init__")
                    ):
                        unread += [f"{node.name}.{item.name}({p})" for p in _unread_parameters(item)]
    assert unread == []


def test_every_reexported_name_is_listed():
    for info in pkgutil.iter_modules(gsis.__path__):
        module = importlib.import_module(f"gsis.{info.name}")
        for name in getattr(module, "__all__", ()):
            if getattr(gsis, name, None) is getattr(module, name):
                assert name in gsis.__all__, f"gsis.{name} is imported but not in gsis.__all__"


def test_the_benchmark_tracer_records_spans_and_restores_every_binding(monkeypatch):
    # bench/tracer.py wraps the public functions and the methods in its METHODS by
    # name, so deleting one of those breaks every traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import LAYERS, METHODS, Tracer

    modules = [gsis, *(importlib.import_module(f"gsis.{layer}") for layer in LAYERS)]
    before = [dict(vars(module)) for module in modules]
    classes = [
        (getattr(importlib.import_module(f"gsis.{layer}"), cls_name), methods)
        for layer, owners in METHODS.items()
        for cls_name, methods in owners.items()
    ]
    members = [dict(vars(cls)) for cls, _ in classes]
    _, shifts = gsis.build_circulant(12, (1, 3))
    phi = np.eye(12)[6]
    scheme = gsis.subset_sampler(12, range(3, 10))
    with Tracer() as tracer:
        assert gsis.reconstruct_krylov is not before[0]["reconstruct_krylov"]
        gsis.reconstruct_krylov(shifts, [phi], scheme, np.ones(7), max_level=1)
    assert len(tracer) > 0
    assert {"sampling.reconstruct_krylov", "orthogonalize.OrthogonalBasis.try_add"} <= set(tracer.names)
    for module, saved in zip(modules, before):
        for attr, value in saved.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr}"
    for (cls, methods), saved in zip(classes, members):
        for method in methods:
            assert vars(cls)[method] is saved[method], f"{cls.__name__}.{method}"
