"""Tests for the circulant reconstruction sweep and model comparison."""

import numpy as np
import pytest

import gsis
from gsis import experiments

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below is then skipped
    st = None

EXP_MINUS_5_4 = 0.28650479686019009  # exp(-1.25)


# ---------------------------------------------------------------------------
# target signal


def test_damped_cosine_oracle():
    x = gsis.damped_cosine_signal(100, 1.0, 0.25, 2.0 * np.pi / 5.0)
    assert x.shape == (100,)
    assert x[50] == 1.0
    # one full period out, the cosine is back at 1 and only the decay acts
    assert x[55] == pytest.approx(EXP_MINUS_5_4, abs=1e-15)
    assert x[45] == pytest.approx(EXP_MINUS_5_4, abs=1e-15)
    assert np.allclose(x[50 - np.arange(50)], x[50 + np.arange(50)])


def test_damped_cosine_extremes():
    spike = gsis.damped_cosine_signal(11, 2.0, 50.0, 1.0)
    delta = np.zeros(11)
    delta[5] = 2.0
    assert np.allclose(spike, delta, atol=1e-20)
    flat = gsis.damped_cosine_signal(7, 3.0, 0.0, 0.0)
    assert np.array_equal(flat, np.full(7, 3.0))
    with pytest.raises(ValueError):
        gsis.damped_cosine_signal(0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((4.5, 1.0, 0.25, 1.0), "n_vertices must be integers, got 4.5"),
        ((None, 1.0, 0.25, 1.0), "n_vertices must be integers, got None"),
        ((5, np.nan, 0.25, 1.0), "amplitude must be finite, got nan"),
        ((5, 1.0, np.inf, 1.0), "decay must be finite, got inf"),
        ((5, 1.0, 0.25, -np.inf), "frequency must be finite, got -inf"),
    ],
    ids=["fractional size", "no size", "NaN amplitude", "infinite decay", "infinite frequency"],
)
def test_damped_cosine_follows_the_count_rule_and_gates_its_parameters(args, message):
    # 4.5 used to give 5 values, and a NaN amplitude an all-NaN signal
    with pytest.raises(ValueError, match=message):
        gsis.damped_cosine_signal(*args)
    assert np.array_equal(gsis.damped_cosine_signal(5.0, 1.0, 0.25, 1.0), gsis.damped_cosine_signal(5, 1.0, 0.25, 1.0))


# ---------------------------------------------------------------------------
# sweep configuration


def test_config_validation():
    with pytest.raises(ValueError):
        gsis.ExperimentConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        gsis.ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        gsis.ExperimentConfig(delta=-1.0)
    with pytest.raises(ValueError):
        gsis.ExperimentConfig(p_values=())
    with pytest.raises(ValueError):
        gsis.ExperimentConfig(levels=(-1,))
    # radius 50 pokes past the last vertex of a 100-cycle window
    with pytest.raises(ValueError):
        gsis.ExperimentConfig(p_values=(50,))
    with pytest.raises(ValueError):
        gsis.ExperimentConfig(p_values=(0,))
    # the noise streams take integer seeds >= 0 and need a finite width 2 * sigma
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ValueError, match="seed"):
            gsis.ExperimentConfig(seed=seed)
    for sigma in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="sigma"):
            gsis.ExperimentConfig(sigma=sigma)
    assert type(gsis.ExperimentConfig(seed=np.int64(3)).seed) is int
    assert gsis.ExperimentConfig(seed=2**64 + 3, sigma=8e307).sigma == 8e307


def test_config_rejects_fractional_counts_and_a_nan_delta():
    # these used to be truncated without a word, or to fail mid-run (trials)
    for name, value, bad in (
        ("levels", (1.5, 2), "1.5"),
        ("p_values", (2.7,), "2.7"),
        ("offsets", (1, 3.5), "3.5"),
        ("trials", 2.5, "2.5"),
        ("n_vertices", 100.5, "100.5"),
    ):
        with pytest.raises(ValueError, match=rf"{name} must be integers, got {bad}"):
            gsis.ExperimentConfig(**{name: value})
    with pytest.raises(ValueError, match="delta must be nonnegative, got nan"):
        gsis.ExperimentConfig(delta=float("nan"))
    config = gsis.ExperimentConfig(n_vertices=40.0, levels=(1.0, 2), p_values=(np.int64(2),), trials=2.0)
    assert (config.n_vertices, config.levels, config.p_values, config.trials) == (40, (1, 2), (2,), 2)
    assert all(type(k) is int for k in (config.n_vertices, *config.levels, *config.p_values, config.trials))
    # a float vertex count used to pass here and then raise TypeError in the run
    assert gsis.run_circulant_experiment(config).re_trials.shape == (2, 1, 2)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("amplitude", float("nan"), "amplitude must be finite, got nan"),
        ("decay", float("inf"), "decay must be finite, got inf"),
        ("frequency", float("nan"), "frequency must be finite, got nan"),
        ("amplitude", 0.0, "amplitude must be nonzero"),
    ],
)
def test_config_rejects_a_signal_whose_errors_are_not_finite(name, value, message):
    # each used to give NaN or inf errors (and divide-by-zero warnings for a zero amplitude)
    with pytest.raises(ValueError, match=message):
        gsis.ExperimentConfig(**{name: value})


def test_metrics_table_cell_lookup():
    cfg = gsis.ExperimentConfig(
        sigma=0.0, trials=1, p_values=(4, 9), levels=(2, 3), seed=11
    )
    table = gsis.run_circulant_experiment(cfg)
    assert table.cell(2, 4) == (0, 0)
    assert table.cell(3, 9) == (1, 1)
    with pytest.raises(ValueError):
        table.cell(5, 4)


# ---------------------------------------------------------------------------
# sweep behavior


def test_experiment_deterministic_goldens():
    cfg = gsis.ExperimentConfig(
        sigma=0.05, trials=3, p_values=(4, 9), levels=(2, 3), seed=11
    )
    table = gsis.run_circulant_experiment(cfg)
    again = gsis.run_circulant_experiment(cfg)
    for name in ("re_log", "se_log", "re_raw", "se_raw", "re_trials", "se_trials"):
        assert np.array_equal(getattr(table, name), getattr(again, name)), name
    assert table.re_trials.shape == (2, 2, 3)
    expected_re_raw = np.array(
        [
            [0.2865047968601901, 0.2865047968601901],
            [0.2865047968601901, 0.10948854407696666],
        ]
    )
    expected_se_log = np.array(
        [
            [-1.3938992671381538, -0.5428665865450238],
            [-1.3755765254893946, -0.9606273526639836],
        ]
    )
    assert np.allclose(table.re_raw, expected_re_raw, rtol=0, atol=1e-13)
    assert np.allclose(table.se_log, expected_se_log, rtol=0, atol=1e-12)


def test_experiment_log_floor_relation():
    cfg = gsis.ExperimentConfig(
        sigma=0.0, trials=1, p_values=(6,), levels=(3,), seed=0
    )
    table = gsis.run_circulant_experiment(cfg)
    assert table.re_log[0, 0] == pytest.approx(
        np.log10(table.re_raw[0, 0] + 1e-6), abs=1e-14
    )
    assert table.re_log[0, 0] >= -6.0


def test_experiment_noiseless_monotone():
    cfg = gsis.ExperimentConfig(
        sigma=0.0,
        trials=1,
        p_values=tuple(range(1, 9)),
        levels=tuple(range(1, 7)),
        seed=0,
    )
    table = gsis.run_circulant_experiment(cfg)
    re = table.re_raw
    # errors never grow with more levels or a wider window
    assert np.all(np.diff(re, axis=0) <= 1e-12)
    assert np.all(np.diff(re, axis=1) <= 1e-12)
    # once the level clears floor((P+1)/3) + 1 the error has converged
    for j, p in enumerate(cfg.p_values):
        threshold = (p + 1) // 3 + 1
        settled = [re[i, j] for i, n in enumerate(cfg.levels) if n >= threshold]
        assert max(settled) - min(settled) <= 1e-8


def test_a_cells_errors_do_not_depend_on_the_grid_shape():
    # the fit runs every column at every level, so a cell's errors come out
    # bit for bit the same when trials, or levels and radii, are added; the
    # last grid has 15 columns a radius and levels that add one direction,
    # where an unpadded column-major product rounds a column by its place
    full = gsis.run_circulant_experiment(gsis.ExperimentConfig(seed=3))
    for grid in (
        {"trials": 3},
        {"levels": (4, 11), "p_values": (7, 30)},
        {"levels": (3, 9, 17), "p_values": (2, 20, 44), "trials": 5},
    ):
        part = gsis.run_circulant_experiment(gsis.ExperimentConfig(seed=3, **grid))
        cells = np.ix_(
            [full.config.levels.index(n) for n in part.config.levels],
            [full.config.p_values.index(p) for p in part.config.p_values],
            range(part.config.trials),
        )
        for name in ("re_trials", "se_trials"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[cells]), (grid, name)


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_experiment_block_fit_matches_single_fits(delta):
    # radius 1 sees only symmetric signals on three vertices, so its chain
    # drops invisible candidates; delta > 0 stops some cells below their cap
    config = gsis.ExperimentConfig(
        n_vertices=40, trials=2, p_values=(1, 4, 9), levels=(0, 1, 3, 6, 12), seed=5, delta=delta
    )
    table = gsis.run_circulant_experiment(config)
    n, center = config.n_vertices, config.n_vertices // 2
    _, shifts = gsis.build_circulant(n, config.offsets)
    x0 = gsis.damped_cosine_signal(n, config.amplitude, config.decay, config.frequency)
    phi0 = np.zeros(n)
    phi0[center] = 1.0
    stopped_by_delta = 0
    for p in config.p_values:
        window = list(range(center - p, center + p + 1))
        scheme = gsis.subset_sampler(n, window)
        if p == 1:
            with pytest.raises(gsis.DegenerateInnerProductError):
                gsis.reconstruct_krylov(shifts, [phi0], scheme, x0[window], max_level=12)
        for level in config.levels:
            il, ip = table.cell(level, p)
            for trial in range(config.trials):
                rng = np.random.default_rng([config.seed, level, p, trial])
                y = x0[window] + rng.uniform(-config.sigma, config.sigma, size=len(window))
                single = gsis.reconstruct_krylov(
                    shifts, [phi0], scheme, y, delta=delta, max_level=level, require_injective=False
                )
                stopped_by_delta += single.depth < level and single.residual_trace[-1] <= delta
                diff = single.signal - x0
                re = np.abs(diff).max() / np.abs(x0).max()
                se = np.abs(diff[window]).max() / np.abs(x0[window]).max()
                assert abs(table.re_trials[il, ip, trial] - re) <= 1e-12
                assert abs(table.se_trials[il, ip, trial] - se) <= 1e-12
    assert (stopped_by_delta > 0) == (delta > 0)


# ---------------------------------------------------------------------------
# batched noise streams


def _key_words(*values):
    return [w for v in values for w in experiments._uint32_words(v)]


def _batched_uniform(seed, keys, size, sigma):
    """The sweep's batched draws for keys (level, p, trial) under one seed, one column each."""
    entropy = np.array([_key_words(seed, *key) for key in keys], dtype=np.uint32)
    states = experiments._seed_pcg64(entropy)
    return experiments._pcg64_uniform(states, experiments._pcg64_jumps(size), -sigma, sigma)


def _assert_default_rng_columns(draws, seed, keys, sigma):
    assert draws.shape[1] == len(keys)
    for column, key in zip(draws.T, keys):
        expected = np.random.default_rng([seed, *key]).uniform(-sigma, sigma, size=len(column))
        # compare the bits, so that signed zeros count too
        assert np.array_equal(column.view(np.uint64), expected.view(np.uint64)), key


def _as_pcg64_state(column):
    """A (4,) column of ``_seed_pcg64`` as the dict ``PCG64.state["state"]`` holds."""
    hi, lo, inc_hi, inc_lo = (int(w) for w in column)
    return {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}


def test_uint32_words_split_like_seed_sequence():
    assert experiments._uint32_words(0) == [0]
    assert experiments._uint32_words(2**32 - 1) == [2**32 - 1]
    assert experiments._uint32_words(2**32) == [0, 1]
    assert experiments._uint32_words(2**64 + 3) == [3, 0, 1]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_seed_pcg64_matches_numpy_state(seed):
    keys = [(0, 1, 0), (18, 45, 99), (3, 9, 7)]
    states = experiments._seed_pcg64(np.array([_key_words(seed, *k) for k in keys], dtype=np.uint32))
    for column, key in zip(states.T, keys):
        assert _as_pcg64_state(column) == np.random.PCG64([seed, *key]).state["state"], key


@pytest.mark.parametrize("sigma", [0.1, 0.0])
@pytest.mark.parametrize("size", [1, 201])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_batched_noise_matches_default_rng_bit_for_bit(seed, size, sigma):
    # level 0 and trial 99; seeds of one to three words give keys of four to six
    keys = [(0, 1, 0), (18, 45, 99), (0, 100, 99), (3, 9, 7)]
    _assert_default_rng_columns(_batched_uniform(seed, keys, size, sigma), seed, keys, sigma)


def test_sweep_states_follow_the_cells_of_each_radius():
    # a level of 2**40 takes two words, so its keys are hashed in a group of their own
    config = gsis.ExperimentConfig(
        trials=3, p_values=(2, 7), levels=(1, 2**40, 0), seed=2**33 + 5
    )
    states = experiments._sweep_states(config)
    assert states.shape == (4, 2, 9)
    for ip, p in enumerate(config.p_values):
        for il, level in enumerate(config.levels):
            for trial in range(config.trials):
                expected = np.random.PCG64([config.seed, level, p, trial]).state["state"]
                assert _as_pcg64_state(states[:, ip, il * config.trials + trial]) == expected


if st is None:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_batched_noise_property():
        pass

else:

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**80),
        keys=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=4,
        ),
        size=st.integers(1, 120),
        sigma=st.floats(0.0, 1e300),
    )
    def test_batched_noise_property(seed, keys, size, sigma):
        _assert_default_rng_columns(_batched_uniform(seed, keys, size, sigma), seed, keys, sigma)


# ---------------------------------------------------------------------------
# approximation error per level


def test_krylov_level_bases_are_prefixes():
    _, shifts = gsis.build_circulant(20, [1, 3])
    phi = np.zeros(20)
    phi[10] = 1.0
    basis, dims = gsis.krylov_subspace(shifts, [phi], 4)
    spaces = [basis[:, :d] for d in dims]
    assert len(spaces) == 5
    dims = [b.shape[1] for b in spaces]
    assert dims == sorted(dims)
    for k in range(4):
        assert np.array_equal(spaces[k], spaces[k + 1][:, : dims[k]])


def test_approximation_error_path_oracle(p3):
    graph, shifts, decomp = p3
    phi = np.array([0.0, 1.0, 0.0])
    basis, dims = gsis.krylov_subspace(shifts, [phi], 2)
    spaces = [basis[:, :d] for d in dims]
    errs = gsis.approximation_error(spaces, np.array([1.0, 0.0, 0.0]))
    # level 0 can only touch the middle vertex; level 1 splits the
    # residual evenly between the endpoints; level 2 adds nothing since
    # the span of the middle delta never reaches the odd eigenvector
    assert errs[0] == pytest.approx(1.0, abs=1e-12)
    assert errs[1] == pytest.approx(0.5, abs=1e-6)
    assert errs[2] == pytest.approx(errs[1], abs=1e-12)
    assert errs == sorted(errs, reverse=True)


def test_approximation_error_in_span_and_zero(p3):
    graph, shifts, decomp = p3
    phi = np.array([1.0, 2.0, -1.0])
    basis, dims = gsis.krylov_subspace(shifts, [phi], 1)
    spaces = [basis[:, :d] for d in dims]
    errs = gsis.approximation_error(spaces, 3.0 * phi)
    assert errs[0] <= 1e-12
    with pytest.raises(ValueError):
        gsis.approximation_error(spaces, np.zeros(3))


def test_approximation_error_decay_bound():
    # the damped cosine is approximated from center-delta spans at a
    # geometric rate set by the decay constant
    decay = 0.25
    _, shifts = gsis.build_circulant(100, [1, 3])
    x0 = gsis.damped_cosine_signal(100, 1.0, decay, 2.0 * np.pi / 5.0)
    phi = np.zeros(100)
    phi[50] = 1.0
    basis, dims = gsis.krylov_subspace(shifts, [phi], 8)
    spaces = [basis[:, :d] for d in dims]
    errs = gsis.approximation_error(spaces, x0)
    for n in range(1, 9):
        assert errs[n] <= np.exp(-(3 * n - 1) * decay) + 1e-12


def test_approximation_error_is_exact_where_the_off_support_bound_certifies_it():
    # acceptance 10's instance: no coefficients change a row where every
    # basis column is zero, so max |x0| there bounds min_c ||x0 - B c||_inf
    # from below, and the least-squares sup error meets that bound
    _, shifts = gsis.build_circulant(100, [1, 3])
    phi = np.zeros(100)
    phi[50] = 1.0
    basis, dims = gsis.krylov_subspace(shifts, [phi], 16)
    for decay in (0.125, 0.25):
        x0 = gsis.damped_cosine_signal(100, 1.0, decay, 2.0 * np.pi / 5.0)
        errs = gsis.approximation_error([basis[:, :d] for d in dims], x0)
        for n, d in enumerate(dims):
            off_support = ~basis[:, :d].any(axis=1)
            assert errs[n] == np.abs(x0[off_support]).max() / np.abs(x0).max()


def test_approximation_error_is_the_least_squares_sup_error_on_a_dense_basis():
    # no row of a random dense basis is zero, so no certificate applies and
    # the value is the least-squares residual's sup norm, clamped to be
    # nonincreasing over the nested spans; the empty span gives 1.0
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((60, 12)))
    x0 = rng.standard_normal(60)
    assert q.all()
    spaces = [q[:, :d] for d in range(13)]
    ls = [np.abs(x0 - b @ (b.T @ x0)).max() / np.abs(x0).max() for b in spaces]
    assert np.any(np.diff(ls) > 0)  # the clamp acts
    errs = gsis.approximation_error(spaces, x0)
    assert errs[0] == 1.0
    assert errs == list(np.minimum.accumulate(ls))


# ---------------------------------------------------------------------------
# model comparison


def _comparison_instance(n=24):
    graph, shifts = gsis.build_circulant(n, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    return graph, shifts, decomp


def test_model_comparison_in_span_level_zero():
    graph, shifts, decomp = _comparison_instance()
    x = np.zeros(24)
    x[7] = 3.0
    cmp = gsis.run_model_comparison(
        shifts, decomp, [x], rule="adaptive", n_generators=1, levels=[0, 1]
    )
    assert cmp.generator_vertices == ((7,),)
    assert cmp.f_krylov[0, 0] <= 1e-10
    assert cmp.dims[0, 0] == 1


def test_model_comparison_spiky_signals_favor_spans():
    rng = np.random.default_rng(61)
    graph, shifts, decomp = _comparison_instance()
    dataset = []
    for _ in range(4):
        x = 0.05 * rng.standard_normal(24)
        for v in rng.choice(24, size=3, replace=False):
            x[v] += rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 4.0)
        dataset.append(x)
    cmp = gsis.run_model_comparison(
        shifts, decomp, dataset, rule="adaptive", n_generators=3, levels=[0, 1, 2]
    )
    assert cmp.f_krylov.shape == (4, 3)
    assert np.all(cmp.mean_krylov <= cmp.mean_bandlimited)
    # errors fall as the span grows
    assert np.all(np.diff(cmp.f_krylov, axis=1) <= 1e-10)
    assert np.all(np.diff(cmp.dims, axis=1) >= 0)


def test_model_comparison_full_dimension_exact():
    graph, shifts, decomp = _comparison_instance(8)
    rng = np.random.default_rng(62)
    x = rng.standard_normal(8)
    cmp = gsis.run_model_comparison(
        shifts, decomp, [x], rule="adaptive", n_generators=2, levels=[8]
    )
    if cmp.dims[0, 0] == 8:
        assert cmp.f_krylov[0, 0] <= 1e-9
        assert cmp.f_bandlimited[0, 0] <= 1e-9


def test_model_comparison_nonadaptive_shares_vertices():
    graph, shifts, decomp = _comparison_instance()
    rng = np.random.default_rng(63)
    dataset = [rng.standard_normal(24) for _ in range(3)]
    cmp = gsis.run_model_comparison(
        shifts, decomp, dataset, rule="nonadaptive", vertices=[2, 11], levels=[0, 1]
    )
    assert cmp.rule == "nonadaptive"
    assert cmp.generator_vertices == ((2, 11),) * 3
    auto = gsis.run_model_comparison(
        shifts, decomp, dataset, rule="nonadaptive", n_generators=2, levels=[0]
    )
    assert len(set(auto.generator_vertices)) == 1


@pytest.mark.parametrize(
    "vertices, message",
    [([-1, 4], "must lie in"), ([4.7, 9], "must be integers"), ([4, 4, 9], "contain repeats"), ([30], "must lie in")],
)
def test_model_comparison_rejects_bad_generator_vertices(vertices, message):
    graph, shifts, decomp = _comparison_instance(30)
    x = np.random.default_rng(65).standard_normal(30)
    with pytest.raises(ValueError, match=f"generator vertices {message}"):
        gsis.run_model_comparison(
            shifts, decomp, [x], rule="nonadaptive", vertices=vertices, levels=[0, 1]
        )


def test_model_comparison_rejects_a_non_finite_signal():
    graph, shifts, decomp = _comparison_instance()
    x = np.random.default_rng(66).standard_normal(24)
    x[5] = np.nan
    with pytest.raises(ValueError, match="signal must be finite"):
        gsis.run_model_comparison(shifts, decomp, [x], levels=[0, 1])


@pytest.mark.parametrize("rule", ["adaptive", "nonadaptive"])
def test_model_comparison_matches_per_level_reconstructions(rule):
    rng = np.random.default_rng(64)
    n = 40
    _, shifts = gsis.build_circulant(n, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    dataset = [0.1 * rng.standard_normal(n) for _ in range(3)]
    for x in dataset[:2]:
        x[rng.choice(n, size=3, replace=False)] += 3.0
    dataset.append(np.zeros(n))
    dataset[-1][[3, 17, 30]] = [1.0, -2.0, 4.0]  # in the level-0 span: stops at level 0
    levels = range(0, 7)
    cmp = gsis.run_model_comparison(shifts, decomp, dataset, rule=rule, levels=levels)
    identity = gsis.subset_sampler(n, range(n))
    for si, x in enumerate(dataset):
        gens = [np.eye(n)[i] for i in cmp.generator_vertices[si]]
        for li, level in enumerate(levels):
            single = gsis.reconstruct_krylov(shifts, gens, identity, x, max_level=level)
            assert cmp.dims[si, li] == single.dims_trace[-1]
            assert abs(cmp.f_krylov[si, li] - np.abs(single.signal - x).max()) <= 1e-12


def test_model_comparison_validation():
    graph, shifts, decomp = _comparison_instance()
    x = np.zeros(24)
    with pytest.raises(ValueError):
        gsis.run_model_comparison(shifts, decomp, [], levels=[0])
    with pytest.raises(ValueError):
        gsis.run_model_comparison(shifts, decomp, [np.zeros(5)], levels=[0])
    with pytest.raises(ValueError):
        gsis.run_model_comparison(shifts, decomp, [x], rule="mystery", levels=[0])
    with pytest.raises(ValueError):
        gsis.run_model_comparison(shifts, decomp, [x], levels=[])
    with pytest.raises(ValueError):
        gsis.run_model_comparison(shifts, decomp, [x], levels=[-1])
    # -1 used to slice the ranking as order[:-1], so N - 1 vertices became generators
    for rule in ("adaptive", "nonadaptive"):
        for k in (0, -1):
            with pytest.raises(ValueError, match="n_generators must be positive"):
                gsis.run_model_comparison(shifts, decomp, [x], rule=rule, n_generators=k, levels=[0])


# ---------------------------------------------------------------------------
# CSV ingestion


def test_ingest_signals_roundtrip(tmp_path):
    graph = gsis.path_graph(3)
    f = tmp_path / "signals.csv"
    f.write_text("0,1,2\n1.0,2.0,3.0\n-1.5,0.0,2.5\n")
    signals = gsis.ingest_signals_csv(f, graph)
    assert len(signals) == 2
    assert np.array_equal(signals[0].values, [1.0, 2.0, 3.0])
    assert np.array_equal(signals[1].values, [-1.5, 0.0, 2.5])


def test_ingest_signals_named_header(tmp_path):
    graph = gsis.path_graph(3)
    f = tmp_path / "signals.csv"
    f.write_text("left,mid,right\n1,2,3\n")
    signals = gsis.ingest_signals_csv(f, graph)
    assert np.array_equal(signals[0].values, [1.0, 2.0, 3.0])


def test_ingest_signals_empty_file(tmp_path):
    graph = gsis.path_graph(3)
    f = tmp_path / "signals.csv"
    f.write_text("")
    assert gsis.ingest_signals_csv(f, graph) == []


def test_ingest_signals_errors(tmp_path):
    graph = gsis.path_graph(3)
    f = tmp_path / "signals.csv"
    f.write_text("0,1\n1,2\n")
    with pytest.raises(ValueError, match="header has 2 columns"):
        gsis.ingest_signals_csv(f, graph)
    f.write_text("0,2,1\n1,2,3\n")
    with pytest.raises(ValueError, match="in order"):
        gsis.ingest_signals_csv(f, graph)
    f.write_text("0,1,2\n1,2\n")
    with pytest.raises(ValueError, match="row 2 has 2 cells"):
        gsis.ingest_signals_csv(f, graph)
    f.write_text("0,1,2\n1,2,oops\n")
    with pytest.raises(ValueError, match="non-numeric cell at row 2, column '2'"):
        gsis.ingest_signals_csv(f, graph)
    f.write_text("0,1,2\n1,2,3\n4,nan,6\n")
    with pytest.raises(ValueError, match="non-finite cell at row 3, column '1'"):
        gsis.ingest_signals_csv(f, graph)
