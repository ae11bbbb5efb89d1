"""The public export lists name only what exists, and removed aliases stay gone."""

import ast
import importlib
import inspect
import pkgutil

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


# Options removed in favour of module constants, the argument
# gsis_from_generators never read, and the basis and decomposition
# arguments a space and a metric now carry themselves; none may come back.
REMOVED_KEYWORDS = {
    "SignalSpace": ("basis",),
    "rkhs_inner_product": ("decomp",),
    "kernel_for_metric": ("decomp",),
    "OrthogonalBasis": ("drop_rel", "invisible_rel"),
    "ShiftMatrix": ("tol",),
    "ShiftSet": ("tol",),
    "Observation": ("noise",),
    "check_commutative": ("tol",),
    "diagonalize_simultaneously": ("tol", "max_retries"),
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
    "polynomial_filter_matrix": ("decomp",),
    "apply_polynomial_filter": ("decomp",),
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
