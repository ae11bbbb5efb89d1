"""End-to-end tests of the command-line interface."""

import argparse
import json

import numpy as np
import pytest

import gsis
from conftest import random_connected_graph
from gsis.cli import _parse_int_list, _parse_range, main
from gsis.io import load_matrix_csv, save_matrix_csv, save_observation, save_reconstruction, save_scheme
from gsis.sampling import _dynamic_scheme


def _run(*argv):
    return main(list(argv))


def _json(path):
    return json.loads(path.read_text())


def _exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


# ---------------------------------------------------------------------------
# argument helpers


def test_parse_helpers():
    assert _parse_int_list("1,3,5") == [1, 3, 5]
    assert _parse_int_list("7") == [7]
    assert _parse_range("2:5") == [2, 3, 4, 5]
    assert _parse_range("4") == [4]
    assert _parse_range("1,9") == [1, 9]
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_range("5:2")


def test_graph_source_is_required(tmp_path, capsys):
    export = ["graph", "export", "--out", str(tmp_path)]
    _exits_2(capsys, export, "a graph is required: pass --graph FILE")
    _exits_2(
        capsys,
        [*export, "--circulant", "10"],
        "--circulant requires --q with at least one offset",
    )
    edge_file = tmp_path / "g.txt"
    gsis.write_edge_list(gsis.path_graph(3), edge_file)
    _exits_2(
        capsys,
        [*export, "--graph", str(edge_file), "--circulant", "10", "--q", "1"],
        "use either --graph or --circulant, not both",
    )


# ---------------------------------------------------------------------------
# graph export


def test_graph_export_circulant(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("graph", "export", "--circulant", "12", "--q", "1,3", "--out", str(out)) == 0
    meta = _json(out / "decomposition.json")
    assert meta["n_vertices"] == 12 and meta["n_shifts"] == 2
    basis = load_matrix_csv(out / "decomposition_basis.csv")
    assert basis.shape == (12, 12)
    assert np.allclose(basis.T @ basis, np.eye(12), atol=1e-12)
    shift0 = load_matrix_csv(out / "shift_0.csv")
    _, shifts = gsis.build_circulant(12, [1, 3])
    assert np.allclose(shift0, shifts[0].matrix, atol=1e-15)
    assert "n_vertices=12" in capsys.readouterr().out


def test_graph_export_circulant_skips_the_eigendecomposition(tmp_path, dense_eighs):
    assert _run("graph", "export", "--circulant", "12", "--q", "1,3", "--out", str(tmp_path / "out")) == 0
    assert dense_eighs.calls == 0


@pytest.mark.parametrize(
    "argv, source",
    [
        (["graph", "export"], "circulant"),
        (["sample", "dynamic", "--i0", "2", "--k", "7"], "circulant"),
        (["sample", "dynamic", "--i0", "2", "--k", "7"], "edge-list"),
        (["reconstruct", "krylov", "--delta-gen", "6", "--max-level", "2", "--i0", "2", "--k", "7"], "circulant"),
        (["reconstruct", "krylov", "--delta-gen", "6", "--max-level", "2", "--i0", "2", "--k", "7"], "edge-list"),
    ],
    ids=["graph export", "sample dynamic", "sample dynamic edge-list", "reconstruct krylov", "reconstruct krylov edge-list"],
)
def test_verbs_on_sparse_shifts_build_no_dense_shift(argv, source, tmp_path, dense_shifts):
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.linspace(-1.0, 1.0, 7))
    extra = ["--y", str(y_file)] if argv[0] == "reconstruct" else []
    # 400 vertices, 3 entries a row: the block-apply cost rule takes the slots
    graph_args = ["--circulant", "400", "--q", "1,3"] if source == "circulant" else _graph_source(source, tmp_path)
    assert _run(*argv, *extra, *graph_args, "--out", str(tmp_path / "out")) == 0
    assert dense_shifts.calls == 0


def test_graph_export_edge_list(tmp_path):
    edge_file = tmp_path / "g.txt"
    gsis.write_edge_list(gsis.path_graph(4), edge_file)
    out = tmp_path / "out"
    assert _run(
        "graph",
        "export",
        "--graph",
        str(edge_file),
        "--shift-kind",
        "adjacency",
        "--out",
        str(out),
    ) == 0
    shift0 = load_matrix_csv(out / "shift_0.csv")
    graph = gsis.path_graph(4)
    assert np.array_equal(shift0, gsis.build_standard_shifts(graph, "adjacency").matrix)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n0 1\n1 2.5\n", "line 3: bad edge line '1 2.5' (invalid literal for int()"),
        ("4.5 2\n0 1\n1 2\n", "line 1: header must be 'N <edge_count>', got '4.5 2'"),
        ("# weights\n3 2\n\n0 1\n1 2 x\n", "line 5: bad edge line '1 2 x' (could not convert"),
        ("3 1\n1e3 2\n", "line 2: bad edge line '1e3 2' (invalid literal for int()"),
    ],
)
def test_an_edge_list_parse_error_names_the_file_and_line(text, message, tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text(text)
    argv = ["graph", "export", "--graph", str(edge_file), "--out", str(tmp_path / "out")]
    _exits_2(capsys, argv, f"{edge_file}, {message}")


# ---------------------------------------------------------------------------
# spaces


def test_space_bandlimited(tmp_path):
    out = tmp_path / "out"
    assert _run(
        "space",
        "bandlimited",
        "--circulant",
        "12",
        "--q",
        "1",
        "--omega",
        "0:4",
        "--out",
        str(out),
    ) == 0
    meta = _json(out / "space.json")
    assert meta["dim"] == 5 and meta["omega"] == [0, 1, 2, 3, 4]
    basis = load_matrix_csv(out / "space_basis.csv")
    assert basis.shape == (12, 5)


def test_space_gsis_from_delta(tmp_path):
    out = tmp_path / "out"
    assert _run(
        "space",
        "gsis",
        "--circulant",
        "12",
        "--q",
        "1",
        "--delta",
        "6",
        "--out",
        str(out),
    ) == 0
    meta = _json(out / "space.json")
    # the delta at one vertex of a cycle generates every even signal
    assert meta["dim"] == 7


def test_space_bounds_matches_library(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(
        "space",
        "bounds",
        "--circulant",
        "12",
        "--q",
        "1",
        "--omega",
        "0,1",
        "--frame-level",
        "2",
        "--out",
        str(out),
    ) == 0
    payload = _json(out / "bounds.json")
    _, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    gen = gsis.canonical_generator(decomp, [0, 1], seed=0)
    r_lo, r_hi = gsis.riesz_bounds(decomp, gen.combined_shift, gen.generator, [0, 1])
    f_lo, f_hi = gsis.frame_bounds(decomp, gen.generator, 2)
    assert payload["riesz_bounds"] == pytest.approx([r_lo, r_hi], rel=1e-12)
    assert payload["frame_bounds"] == pytest.approx([f_lo, f_hi], rel=1e-12)
    assert payload["frame_level"] == 2
    assert '"riesz_bounds"' in capsys.readouterr().out


def test_space_bounds_requires_omega_or_generator(tmp_path, capsys):
    _exits_2(
        capsys,
        ["space", "bounds", "--circulant", "12", "--q", "1", "--out", str(tmp_path)],
        "space bounds needs --omega (or --generator)",
    )


def test_space_uncertainty(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(
        "space",
        "uncertainty",
        "--circulant",
        "13",
        "--q",
        "1",
        "--delta",
        "6",
        "--out",
        str(out),
    ) == 0
    payload = _json(out / "uncertainty.json")
    assert payload["support_size"] == 1
    assert payload["space_dim"] == 7
    assert payload["holds"] is True
    assert payload["support_size"] * payload["space_dim"] >= payload["lower_bound"]


# ---------------------------------------------------------------------------
# kernels


def test_kernel_make(tmp_path):
    out = tmp_path / "out"
    assert _run(
        "kernel",
        "make",
        "--circulant",
        "10",
        "--q",
        "1",
        "--family",
        "diffusion",
        "--param",
        "sigma=1.0",
        "--out",
        str(out),
    ) == 0
    meta = _json(out / "kernel.json")
    assert meta["family"] == "diffusion"
    assert meta["params"] == {"sigma": 1.0}
    mat = load_matrix_csv(out / "kernel_matrix.csv")
    assert np.allclose(mat, mat.T)
    assert np.all(np.linalg.eigvalsh(mat) > 0)


def test_kernel_make_bad_param_syntax(tmp_path, capsys):
    _exits_2(
        capsys,
        ["kernel", "make", "--circulant", "10", "--q", "1", "--family", "diffusion"]
        + ["--param", "sigma", "--out", str(tmp_path)],
        "--param expects name=value, got 'sigma'",
    )


def test_kernel_make_missing_param_exits_2(tmp_path):
    code = _run(
        "kernel",
        "make",
        "--circulant",
        "10",
        "--q",
        "1",
        "--family",
        "diffusion",
        "--out",
        str(tmp_path),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# sampling schemes


def test_sample_subset(tmp_path):
    out = tmp_path / "out"
    assert _run(
        "sample", "subset", "--circulant", "10", "--q", "1", "--w", "2:5", "--out", str(out)
    ) == 0
    meta = _json(out / "scheme.json")
    assert meta["provenance"] == "subset"
    assert meta["vertices"] == [2, 3, 4, 5]
    assert meta["n_samples"] == 4


def test_sample_dynamic(tmp_path):
    out = tmp_path / "out"
    assert _run(
        "sample",
        "dynamic",
        "--circulant",
        "10",
        "--q",
        "1",
        "--i0",
        "0",
        "--k",
        "3",
        "--out",
        str(out),
    ) == 0
    meta = _json(out / "scheme.json")
    assert meta["provenance"] == "dynamic"
    assert meta["initial_vertex"] == 0 and meta["n_snapshots"] == 3
    mat = load_matrix_csv(out / "scheme_matrix.csv")
    assert mat.shape == (3, 10)
    assert np.array_equal(mat[0], np.eye(10)[0])


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_direct_roundtrip(tmp_path):
    _, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    rng = np.random.default_rng(71)
    x = decomp.basis[:, [0, 1, 2]] @ rng.standard_normal(3)
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, x[:7])
    out = tmp_path / "out"
    assert _run(
        "reconstruct",
        "direct",
        "--circulant",
        "12",
        "--q",
        "1",
        "--w",
        "0:6",
        "--omega",
        "0:2",
        "--y",
        str(y_file),
        "--out",
        str(out),
    ) == 0
    signal = load_matrix_csv(out / "reconstruction_signal.csv").reshape(-1)
    assert np.allclose(signal, x, atol=1e-9)
    obs = _json(out / "observation.json")
    assert obs["n_samples"] == 7


def test_reconstruct_diagonalizes_only_when_the_scheme_needs_it(tmp_path, diagonalizations):
    calls = diagonalizations.calls
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.linspace(-1.0, 1.0, 7))
    common = ["--circulant", "12", "--q", "1", "--w", "0:6", "--y", str(y_file)]
    krylov = ["--delta-gen", "3", "--max-level", "2", "--out", str(tmp_path / "krylov")]
    assert _run("reconstruct", "krylov", *common, *krylov) == 0
    assert len(calls) == 0
    direct = ["--omega", "0:2", "--out", str(tmp_path / "direct")]
    assert _run("reconstruct", "direct", *common, *direct) == 0
    assert len(calls) == 1


def test_bad_inputs_are_rejected_before_the_eigendecomposition(tmp_path, capsys, diagonalizations):
    diagonalizations.refuse = "the eigendecomposition ran before the inputs were checked"
    calls = diagonalizations.calls
    graph = ["--circulant", "600", "--q", "1,3", "--out", str(tmp_path / "out")]
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(3))
    signals = tmp_path / "signals.csv"
    signals.write_text(",".join(str(i) for i in range(600)) + "\n" + ",".join(["1.0"] * 600) + "\n")
    direct = ["reconstruct", "direct", *graph, "--w", "0:2"]
    cases = [
        (["space", "bounds", *graph], "space bounds needs --omega (or --generator)"),
        ([*direct, "--y", str(y_file)], "reconstruct direct needs --omega"),
        ([*direct, "--omega", "0:2", "--y", str(tmp_path / "missing.csv")], ""),
        (
            ["reconstruct", "direct", *graph, "--omega", "0:2", "--i0", "600", "--k", "3", "--y", str(y_file)],
            "initial_vertex must lie in [0, 600)",
        ),
        (
            ["model-compare", *graph, "--signals", str(signals), "--generators", "sideways:2"],
            "--generators expects adaptive:K or nonadaptive:K",
        ),
    ]
    kernel = ["kernel", "make", *graph, "--family", "diffusion", "--param", "sigma=1.0"]
    cases += [([*kernel, "--base-index", k], "--base-index must lie in [0, 2)") for k in ("2", "-1")]
    for argv, message in cases:
        _exits_2(capsys, argv, message)
    assert calls == []


# Each verb's arguments besides the graph source and --out, and how many
# eigendecompositions it runs: only the spectral constructions need one.
VERB_DECOMPOSITIONS = {
    "graph export": (["graph", "export"], 1),
    "space bandlimited": (["space", "bandlimited", "--omega", "0:4"], 1),
    "space gsis": (["space", "gsis", "--delta", "6"], 1),
    "space bounds": (["space", "bounds", "--delta", "6", "--frame-level", "2"], 1),
    "space uncertainty": (["space", "uncertainty", "--delta", "6"], 1),
    "kernel make": (["kernel", "make", "--family", "diffusion", "--param", "sigma=1.0"], 1),
    "reconstruct direct": (["reconstruct", "direct", "--omega", "0:2", "--w", "0:6", "--y", "{y}"], 1),
    "model-compare": (["model-compare", "--signals", "{signals}", "--levels", "0:2"], 1),
    "sample subset": (["sample", "subset", "--w", "0:6"], 0),
    "sample dynamic": (["sample", "dynamic", "--i0", "0", "--k", "6"], 0),
    "reconstruct krylov --w": (
        ["reconstruct", "krylov", "--delta-gen", "6", "--max-level", "2", "--w", "0:6", "--y", "{y}"],
        0,
    ),
    "reconstruct krylov --i0/--k": (
        ["reconstruct", "krylov", "--delta-gen", "6", "--max-level", "2", "--i0", "0", "--k", "7", "--y", "{y}"],
        0,
    ),
}


def _graph_source(source, tmp_path):
    """CLI arguments for a 12-vertex two-offset circulant or a weighted edge-list graph."""
    if source == "circulant":
        return ["--circulant", "12", "--q", "1,3"]
    edge_file = tmp_path / "g.txt"
    gsis.write_edge_list(random_connected_graph(12, np.random.default_rng(20)), edge_file)
    return ["--graph", str(edge_file)]


@pytest.mark.parametrize("source", ["circulant", "edge-list"])
@pytest.mark.parametrize("verb", sorted(VERB_DECOMPOSITIONS))
def test_each_verb_runs_only_the_eigendecompositions_it_reads(verb, source, tmp_path, diagonalizations):
    argv, expected = VERB_DECOMPOSITIONS[verb]
    y_file, signals = tmp_path / "y.csv", tmp_path / "signals.csv"
    save_matrix_csv(y_file, np.linspace(-1.0, 1.0, 7))
    save_matrix_csv(signals, np.random.default_rng(4).standard_normal((2, 12)))
    argv = [arg.format(y=y_file, signals=signals) for arg in argv]
    assert _run(*argv, *_graph_source(source, tmp_path), "--out", str(tmp_path / "out")) == 0
    assert len(diagonalizations.calls) == expected


def _same_files(left, right):
    names = sorted(f.name for f in left.iterdir())
    assert names == sorted(f.name for f in right.iterdir())
    for name in names:
        assert (left / name).read_bytes() == (right / name).read_bytes(), name


@pytest.mark.parametrize("source", ["circulant", "edge-list"])
def test_dynamic_outputs_match_the_checked_sampler_byte_for_byte(source, tmp_path):
    graph_args = _graph_source(source, tmp_path)
    if source == "circulant":
        _, shifts = gsis.build_circulant(12, [1, 3])
    else:
        graph = gsis.read_edge_list(graph_args[1])
        shifts = gsis.ShiftSet((gsis.build_standard_shifts(graph, "laplacian"),))
    decomp = gsis.diagonalize_simultaneously(shifts)
    i0, k = 2, 7
    dynamic = ["--i0", str(i0), "--k", str(k), *graph_args]
    assert _run("sample", "dynamic", *dynamic, "--out", str(tmp_path / "sample")) == 0
    # the checked sampler steps with the dense matrix, the cli through the entry list
    checked = gsis.dynamic_sampler(decomp, shifts[0].matrix, i0, k).matrix
    rows = load_matrix_csv(tmp_path / "sample" / "scheme_matrix.csv")
    assert np.all(np.abs(rows - checked).max(axis=1) <= 1e-12 * np.abs(checked).max(axis=1))
    reference = _dynamic_scheme(shifts[0], i0, k)  # the cli's unchecked path, byte for byte
    save_scheme(reference, tmp_path / "sample_ref")
    _same_files(tmp_path / "sample", tmp_path / "sample_ref")
    # given the shift itself, the checked sampler steps through the entry list too
    assert gsis.dynamic_sampler(decomp, shifts[0], i0, k).matrix.tobytes() == rows.tobytes()

    y = np.linspace(-1.0, 1.0, k)
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, y)
    krylov = ["reconstruct", "krylov", *dynamic, "--delta-gen", "6", "--max-level", "2", "--y", str(y_file)]
    assert _run(*krylov, "--out", str(tmp_path / "krylov")) == 0
    result = gsis.reconstruct_krylov(shifts, [np.eye(12)[6]], reference, y, max_level=2)
    save_reconstruction(result, tmp_path / "krylov_ref")
    save_observation(gsis.Observation(y, reference), tmp_path / "krylov_ref")
    _same_files(tmp_path / "krylov", tmp_path / "krylov_ref")


@pytest.mark.parametrize(
    "verb, dynamic, message",
    [
        ("sample", ["--i0", "12", "--k", "7"], "initial_vertex must lie in [0, 12)"),
        ("sample", ["--i0", "-1", "--k", "7"], "initial_vertex must lie in [0, 12)"),
        ("sample", ["--i0", "0", "--k", "0"], "at least one snapshot is required"),
        ("reconstruct", ["--i0", "12", "--k", "7"], "initial_vertex must lie in [0, 12)"),
        ("reconstruct", ["--i0", "-1", "--k", "7"], "initial_vertex must lie in [0, 12)"),
        # the observation is checked first, against the zero samples asked for
        ("reconstruct", ["--i0", "0", "--k", "0"], "y of length 7, expected 0"),
    ],
)
def test_a_bad_dynamic_scheme_exits_2_and_writes_nothing(verb, dynamic, message, tmp_path, capsys):
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(7))
    argv = ["sample", "dynamic"]
    if verb == "reconstruct":
        argv = ["reconstruct", "krylov", "--delta-gen", "6", "--y", str(y_file)]
    out = tmp_path / "out"
    _exits_2(capsys, [*argv, *dynamic, "--circulant", "12", "--q", "1,3", "--out", str(out)], message)
    assert not out.exists()


def test_reconstruct_krylov_roundtrip(tmp_path):
    _, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = np.zeros(12)
    phi[6] = 1.0
    space = gsis.gsis_from_generators(decomp, [phi])
    rng = np.random.default_rng(72)
    x = space.basis @ rng.standard_normal(space.dim)
    window = list(range(0, 7))
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, x[window])
    out = tmp_path / "out"
    assert _run(
        "reconstruct",
        "krylov",
        "--circulant",
        "12",
        "--q",
        "1",
        "--w",
        "0:6",
        "--delta-gen",
        "6",
        "--y",
        str(y_file),
        "--out",
        str(out),
    ) == 0
    signal = load_matrix_csv(out / "reconstruction_signal.csv").reshape(-1)
    assert np.allclose(signal, x, atol=1e-8)
    meta = _json(out / "reconstruction.json")
    assert meta["dims_trace"][-1] == space.dim
    assert meta["final_residual_norm"] <= 1e-9


def test_reconstruct_krylov_delta_is_a_threshold(tmp_path):
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(7))
    out = tmp_path / "out"
    assert _run(
        "reconstruct",
        "krylov",
        "--circulant",
        "12",
        "--q",
        "1",
        "--w",
        "3:9",
        "--delta-gen",
        "6",
        "--delta",
        "100.0",
        "--y",
        str(y_file),
        "--out",
        str(out),
    ) == 0
    meta = _json(out / "reconstruction.json")
    # a huge stopping threshold halts the growth immediately
    assert meta["depth"] == 0


def test_reconstruct_requires_scheme_and_generator(tmp_path, capsys):
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(3))
    krylov = ["reconstruct", "krylov", "--circulant", "12", "--q", "1", "--y", str(y_file)]
    _exits_2(
        capsys,
        [*krylov, "--delta-gen", "6"],
        "a sampling scheme is required: pass --w LIST or --i0 V --k K",
    )
    _exits_2(capsys, [*krylov, "--delta-gen", "6", "--i0", "0"], "dynamic sampling needs --k")
    code = _run(
        "reconstruct",
        "krylov",
        "--circulant",
        "12",
        "--q",
        "1",
        "--w",
        "0:2",
        "--y",
        str(y_file),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pass --delta-gen VERTS or --generator FILE" in err
    _exits_2(
        capsys,
        ["reconstruct", "direct", "--circulant", "12", "--q", "1", "--w", "0:2"]
        + ["--y", str(y_file)],
        "reconstruct direct needs --omega",
    )


def test_cli_errors_exit_2(tmp_path, capsys):
    code = _run(
        "space",
        "bandlimited",
        "--circulant",
        "10",
        "--q",
        "1",
        "--omega",
        "99",
        "--out",
        str(tmp_path),
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    # one sample cannot determine a five-dimensional space
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(1))
    code = _run(
        "reconstruct",
        "direct",
        "--circulant",
        "10",
        "--q",
        "1",
        "--w",
        "0",
        "--omega",
        "0:4",
        "--y",
        str(y_file),
        "--out",
        str(tmp_path),
    )
    assert code == 2


def test_out_of_range_indices_exit_2(tmp_path, capsys):
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(3))
    c12 = ["--circulant", "12", "--q", "1", "--out", str(tmp_path)]
    code = _run("reconstruct", "direct", *c12, "--omega", "20", "--w", "0:2", "--y", str(y_file))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: omega indices must lie in [0, 12)")
    assert _run("space", "gsis", *c12, "--delta", "20") == 2
    assert capsys.readouterr().err.startswith("error: generator vertex 20")


def test_missing_generator_names_the_space_verbs_flag(tmp_path, capsys):
    # under space the generator-vertex flag is --delta; reconstruct krylov's is --delta-gen
    assert _run("space", "uncertainty", "--circulant", "12", "--q", "1", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(
        "error: a generator is required: pass --delta VERTS or --generator FILE"
    )


def test_type_error_inside_a_verb_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a programming error, not a user error")

    monkeypatch.setattr("gsis.cli.bandlimited_space", broken)
    with pytest.raises(TypeError, match="programming error"):
        _run("space", "bandlimited", "--circulant", "10", "--q", "1", "--omega", "0", "--out", str(tmp_path))


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "krylov", "--y", "y.csv", "--tol", "1e-8"],
        ["sample", "subset", "--w", "0", "--seed", "1"],
        ["sample", "dynamic", "--i0", "0", "--k", "3", "--seed", "1"],
        ["reconstruct", "krylov", "--y", "y.csv", "--seed", "1"],
        # --seed reaches only space bounds' canonical generator and the sweep's noise
        ["graph", "export", "--seed", "1"],
        ["space", "bandlimited", "--seed", "1"],
        ["space", "gsis", "--seed", "1"],
        ["space", "uncertainty", "--seed", "1"],
        ["kernel", "make", "--family", "diffusion", "--seed", "1"],
        ["reconstruct", "direct", "--y", "y.csv", "--seed", "1"],
        ["model-compare", "--signals", "s.csv", "--seed", "1"],
    ],
)
def test_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


def test_experiment_cli_tiny_grid(tmp_path):
    out = tmp_path / "out"
    assert _run(
        "experiment",
        "damped-cosine",
        "--sigma",
        "0.05",
        "--trials",
        "2",
        "--p-range",
        "4,9",
        "--level-range",
        "2:3",
        "--seed",
        "11",
        "--out",
        str(out),
    ) == 0
    meta = _json(out / "metrics.json")
    assert meta["config"]["p_values"] == [4, 9]
    assert meta["config"]["levels"] == [2, 3]
    assert np.asarray(meta["grids"]["re_raw"]).shape == (2, 2)
    table = gsis.run_circulant_experiment(
        gsis.ExperimentConfig(
            sigma=0.05, trials=2, p_values=(4, 9), levels=(2, 3), seed=11
        )
    )
    assert np.allclose(meta["grids"]["re_raw"], table.re_raw, rtol=0, atol=1e-15)
    text = (out / "metrics.csv").read_text().splitlines()
    assert text[0] == "level,p,metric,value"
    assert len(text) == 1 + 2 * 2 * 4


@pytest.mark.parametrize(
    "option, message",
    [(["--sigma", "nan"], "sigma must be finite"), (["--seed", "-1"], "seed must be a nonnegative")],
)
def test_experiment_bad_noise_options_exit_2(option, message, tmp_path, capsys):
    argv = ["experiment", "damped-cosine", *option, "--out", str(tmp_path / "out")]
    _exits_2(capsys, argv, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["experiment", "reconstruct"])
def test_a_nan_delta_exits_2(verb, tmp_path, capsys):
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(7))
    argv = {
        "experiment": ["experiment", "damped-cosine"],
        "reconstruct": ["reconstruct", "krylov", "--circulant", "12", "--q", "1", "--w", "3:9",
                        "--delta-gen", "6", "--y", str(y_file)],
    }[verb]
    out = tmp_path / "out"
    _exits_2(capsys, [*argv, "--delta", "nan", "--out", str(out)], "delta must be nonnegative, got nan")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["krylov", "direct"])
def test_a_nan_observation_exits_2(verb, tmp_path, capsys):
    y = np.ones(7)
    y[3] = np.nan
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, y)
    which = ["--delta-gen", "6"] if verb == "krylov" else ["--omega", "0:2"]
    out = tmp_path / "out"
    argv = ["reconstruct", verb, "--circulant", "12", "--q", "1,3", *which, "--w", "0:6", "--y", str(y_file)]
    _exits_2(capsys, [*argv, "--out", str(out)], "y must be finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "family, params, name",
    [
        ("diffusion", ["sigma=nan"], "sigma"),
        ("random_walk", ["a=nan", "p=1"], "a"),
        ("regularization", ["sigma=inf"], "sigma"),
    ],
)
def test_a_non_finite_kernel_parameter_exits_2(family, params, name, tmp_path, capsys):
    argv = ["kernel", "make", "--circulant", "12", "--q", "1,3", "--family", family]
    argv += [arg for param in params for arg in ("--param", param)]
    out = tmp_path / "out"
    _exits_2(capsys, [*argv, "--out", str(out)], f"{family} kernel parameter '{name}' must be finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, scheme",
    [
        ("direct", ["--w", "0:6"]),
        ("krylov", ["--i0", "0", "--k", "7"]),
    ],
)
@pytest.mark.parametrize(
    "values, message",
    [(np.r_[np.ones(3), np.nan, np.ones(3)], "y must be finite"), (np.ones(5), "y of length 5, expected 7")],
)
def test_a_bad_observation_exits_2_before_the_eigendecomposition(
    verb, scheme, values, message, tmp_path, capsys, diagonalizations
):
    diagonalizations.refuse = "the eigendecomposition ran before y was checked"
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, values)
    which = ["--omega", "0:2"] if verb == "direct" else ["--delta-gen", "6"]
    out = tmp_path / "out"
    argv = ["reconstruct", verb, "--circulant", "12", "--q", "1,3", *which, *scheme, "--y", str(y_file)]
    _exits_2(capsys, [*argv, "--out", str(out)], message)
    assert not out.exists()


def test_a_nan_generator_exits_2(tmp_path, capsys):
    gen = np.eye(12)[[6]]
    gen[0, 2] = np.nan
    gen_file = tmp_path / "gen.csv"
    save_matrix_csv(gen_file, gen)
    argv = ["space", "gsis", "--circulant", "12", "--q", "1,3", "--generator", str(gen_file)]
    _exits_2(capsys, [*argv, "--out", str(tmp_path / "out")], "generator must be finite")


def test_a_nan_amplitude_exits_2(tmp_path, capsys):
    argv = ["experiment", "damped-cosine", "--amp", "nan", "--out", str(tmp_path / "out")]
    _exits_2(capsys, argv, "amplitude must be finite")
    assert not (tmp_path / "out").exists()


def test_model_compare_cli(tmp_path):
    signals = tmp_path / "signals.csv"
    header = ",".join(str(i) for i in range(12))
    row1 = ["0.0"] * 12
    row1[3] = "2.0"
    row2 = ["0.1"] * 12
    row2[8] = "-3.0"
    signals.write_text(f"{header}\n{','.join(row1)}\n{','.join(row2)}\n")
    out = tmp_path / "out"
    assert _run(
        "model-compare",
        "--circulant",
        "12",
        "--q",
        "1",
        "--signals",
        str(signals),
        "--generators",
        "adaptive:2",
        "--levels",
        "0:2",
        "--out",
        str(out),
    ) == 0
    meta = _json(out / "model_comparison.json")
    assert meta["levels"] == [0, 1, 2]
    assert meta["rule"] == "adaptive"
    assert np.asarray(meta["f_krylov"]).shape == (2, 3)
    assert (out / "model_comparison.csv").exists()


def test_model_compare_cli_validation(tmp_path, capsys):
    signals = tmp_path / "signals.csv"
    signals.write_text("")
    compare = ["model-compare", "--circulant", "12", "--q", "1", "--signals", str(signals)]
    compare += ["--out", str(tmp_path)]
    _exits_2(capsys, compare, f"{signals}: no signals found")
    header = ",".join(str(i) for i in range(12))
    signals.write_text(f"{header}\n" + ",".join(["1.0"] * 12) + "\n")
    _exits_2(
        capsys,
        [*compare, "--generators", "sideways:2"],
        "--generators expects adaptive:K or nonadaptive:K",
    )


# ---------------------------------------------------------------------------
# one generator for bounds and uncertainty; library-owned defaults


@pytest.mark.parametrize(
    "n, vertex, cycle, omega",
    [
        (8, 3, False, list(range(8))),
        # the impulse cuts every paired eigenspace of the 12-cycle
        (12, 6, True, [0, 1, 3, 5, 7, 9, 11]),
    ],
    ids=["path", "cycle"],
)
def test_space_bounds_reads_delta(n, vertex, cycle, omega, tmp_path):
    if cycle:
        source = ["--circulant", str(n), "--q", "1"]
    else:
        edge_file = tmp_path / "g.txt"
        gsis.write_edge_list(gsis.path_graph(n), edge_file)
        source = ["--graph", str(edge_file)]
    row = np.zeros((1, n))
    row[0, vertex] = 1.0
    gen_file = tmp_path / "gen.csv"
    save_matrix_csv(gen_file, row)
    bounds = ["space", "bounds", *source, "--frame-level", "3"]
    assert _run(*bounds, "--delta", str(vertex), "--out", str(tmp_path / "delta")) == 0
    assert _run(*bounds, "--generator", str(gen_file), "--out", str(tmp_path / "file")) == 0
    written = (tmp_path / "delta" / "bounds.json").read_bytes()
    assert written == (tmp_path / "file" / "bounds.json").read_bytes()
    assert _json(tmp_path / "delta" / "bounds.json")["omega"] == omega


@pytest.mark.parametrize("verb", ["bounds", "uncertainty"])
def test_bounds_and_uncertainty_take_one_generator(verb, tmp_path, capsys):
    gen_file = tmp_path / "gens.csv"
    save_matrix_csv(gen_file, np.eye(13)[:2])
    space = ["space", verb, "--circulant", "13", "--q", "1", "--out", str(tmp_path / "out")]
    from_file = ["--generator", str(gen_file)]
    for extra in (["--delta", "3,4"], from_file, ["--delta", "3", *from_file]):
        _exits_2(capsys, [*space, *extra], f"space {verb} takes one generator, got")
    assert not (tmp_path / "out").exists()


class _Called(Exception):
    """Raised by a stand-in for a library entry point, carrying its arguments."""


def _capture(monkeypatch, name):
    def stand_in(*args, **kwargs):
        raise _Called(args, kwargs)

    monkeypatch.setattr(gsis.cli, name, stand_in)


def test_experiment_passes_only_the_given_options(tmp_path, monkeypatch):
    _capture(monkeypatch, "run_circulant_experiment")
    with pytest.raises(_Called) as called:
        _run("experiment", "damped-cosine", "--out", str(tmp_path))
    assert called.value.args == ((gsis.ExperimentConfig(),), {})
    flags = ["--n", "30", "--q", "1,2", "--amp", "2", "--decay", "0.5", "--freq", "0.7"]
    flags += ["--sigma", "0.2", "--trials", "3", "--p-range", "2:4", "--level-range", "0,5"]
    flags += ["--seed", "9", "--delta", "0.01"]
    with pytest.raises(_Called) as called:
        _run("experiment", "damped-cosine", *flags, "--out", str(tmp_path))
    expected = gsis.ExperimentConfig(
        n_vertices=30, offsets=(1, 2), amplitude=2.0, decay=0.5, frequency=0.7, sigma=0.2,
        trials=3, p_values=(2, 3, 4), levels=(0, 5), seed=9, delta=0.01,
    )
    assert called.value.args == ((expected,), {})


def test_model_compare_passes_only_the_given_options(tmp_path, monkeypatch):
    _capture(monkeypatch, "run_model_comparison")
    signals = tmp_path / "signals.csv"
    signals.write_text(",".join(str(i) for i in range(12)) + "\n" + ",".join(["1.0"] * 12) + "\n")
    compare = ["model-compare", "--circulant", "12", "--q", "1", "--signals", str(signals)]
    with pytest.raises(_Called) as called:
        _run(*compare, "--out", str(tmp_path))
    args, kwargs = called.value.args
    assert len(args) == 3 and kwargs == {}
    with pytest.raises(_Called) as called:
        _run(*compare, "--generators", "nonadaptive:2", "--levels", "0:3", "--out", str(tmp_path))
    assert called.value.args[1] == {"rule": "nonadaptive", "n_generators": 2, "levels": [0, 1, 2, 3]}


def test_reconstruct_krylov_passes_only_the_given_options(tmp_path, monkeypatch):
    _capture(monkeypatch, "reconstruct_krylov")
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.ones(3))
    krylov = ["reconstruct", "krylov", "--circulant", "12", "--q", "1", "--w", "0:2"]
    krylov += ["--delta-gen", "6", "--y", str(y_file), "--out", str(tmp_path)]
    with pytest.raises(_Called) as called:
        _run(*krylov)
    args, kwargs = called.value.args
    assert len(args) == 4 and kwargs == {}
    with pytest.raises(_Called) as called:
        _run(*krylov, "--delta", "0.5", "--max-level", "2", "--allow-degenerate")
    assert called.value.args[1] == {"delta": 0.5, "max_level": 2, "require_injective": False}
