"""End-to-end tests of the command-line interface."""

import argparse
import json

import numpy as np
import pytest

import gsis
from gsis.cli import _parse_int_list, _parse_range, main
from gsis.io import load_matrix_csv, save_matrix_csv


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
    decomp = gsis.diagonalize_simultaneously(shifts, seed=0)
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
    decomp = gsis.diagonalize_simultaneously(shifts, seed=0)
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


def test_reconstruct_diagonalizes_only_when_the_scheme_needs_it(tmp_path, monkeypatch):
    calls = []
    real = gsis.cli.diagonalize_simultaneously

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gsis.cli, "diagonalize_simultaneously", counted)
    y_file = tmp_path / "y.csv"
    save_matrix_csv(y_file, np.linspace(-1.0, 1.0, 7))
    common = ["--circulant", "12", "--q", "1", "--w", "0:6", "--y", str(y_file)]
    krylov = ["--delta-gen", "3", "--max-level", "2", "--out", str(tmp_path / "krylov")]
    assert _run("reconstruct", "krylov", *common, *krylov) == 0
    assert len(calls) == 0
    direct = ["--omega", "0:2", "--out", str(tmp_path / "direct")]
    assert _run("reconstruct", "direct", *common, *direct) == 0
    assert len(calls) == 1


def test_bad_inputs_are_rejected_before_the_eigendecomposition(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(gsis.cli, "diagonalize_simultaneously", lambda *a, **k: calls.append(a))
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
            ["model-compare", *graph, "--signals", str(signals), "--generators", "sideways:2"],
            "--generators expects adaptive:K or nonadaptive:K",
        ),
    ]
    kernel = ["kernel", "make", *graph, "--family", "diffusion", "--param", "sigma=1.0"]
    cases += [([*kernel, "--base-index", k], "--base-index must lie in [0, 2)") for k in ("2", "-1")]
    for argv, message in cases:
        _exits_2(capsys, argv, message)
    assert calls == []


def test_reconstruct_krylov_roundtrip(tmp_path):
    _, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts, seed=0)
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
