import hashlib
import json
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare, ks_2samp

from maplab import fixtures, limit_checks, map_model, montecarlo
from maplab.chain_core import StochasticKernel
from maplab.errors import UnsupportedInitial
from maplab.fixtures import ct_two_state, iid_rademacher, two_state
from maplab.increments import deterministic, gaussian, mixture
from maplab.limit_checks import ecdf_se, kolmogorov_distance
from maplab.map_model import CtMapSpec, MapSpec, exact_moments
from maplab.cli import dispatch
from maplab.io import kernel_to_dict
from maplab.montecarlo import (_cdf_table, _cov_factors, _search,
                               increment_panel, simulate_ct,
                               simulate_discrete, simulate_edge_counts,
                               spec_content_hash)

from conftest import (atom_columns, path_length, per_kind_simulate,
                      per_kind_simulate_b1, projected_spec, random_kernel,
                      random_mixed_spec,
                      path_laws, skewed_mixture_exact_cdf, stepwise_ct,
                      stepwise_edge_counts, stepwise_edge_counts_b1,
                      stepwise_sufficient_simulate,
                      stepwise_sufficient_simulate_b1)


def _zero_spec():
    kernel = StochasticKernel(states=(0, 1), P=np.full((2, 2), 0.5))
    incs = {(i, j): deterministic([0.0]) for i in range(2) for j in range(2)}
    return MapSpec(kernel=kernel, increments=incs)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        spec = two_state()
        a = simulate_discrete(spec, 64, 500, 42)
        b = simulate_discrete(spec, 64, 500, 42)
        assert np.array_equal(a.terminal_Y, b.terminal_Y)
        assert a.spec_id == b.spec_id

    def test_seed_changes_output(self):
        spec = two_state()
        a = simulate_discrete(spec, 64, 500, 1)
        b = simulate_discrete(spec, 64, 500, 2)
        assert not np.array_equal(a.terminal_Y, b.terminal_Y)

    def test_spec_hash_distinguishes_models(self):
        assert (spec_content_hash(two_state())
                != spec_content_hash(iid_rademacher()))
        assert (spec_content_hash(ct_two_state())
                != spec_content_hash(two_state()))

    def test_ct_bit_identical(self):
        ct = ct_two_state()
        a = simulate_ct(ct, 10.0, 300, 9)
        b = simulate_ct(ct, 10.0, 300, 9)
        assert np.array_equal(a.terminal_Y, b.terminal_Y)

    def test_batch_immutable(self):
        batch = simulate_discrete(two_state(), 8, 10, 0)
        with pytest.raises(ValueError):
            batch.terminal_Y[0, 0] = 99.0


class TestDiscrete:
    def test_zero_increments(self):
        batch = simulate_discrete(_zero_spec(), 50, 200, 3)
        assert np.all(batch.terminal_Y == 0.0)

    def test_iid_lln(self):
        n = 10 ** 5
        batch = simulate_discrete(iid_rademacher(), n, 1, 7)
        assert abs(batch.terminal_Y[0, 0] / n) <= 4.0 / np.sqrt(n)

    def test_two_state_variance_oracle(self):
        n, paths = 10 ** 4, 10 ** 4
        batch = simulate_discrete(two_state(), n, paths, 11)
        v = np.var(batch.terminal_Y[:, 0] / np.sqrt(n))
        se = 0.72 * np.sqrt(2.0 / paths)   # var of a variance estimate
        assert abs(v - 0.72) <= 4 * se + 0.01

    def test_stationarity_chi_square(self):
        spec = two_state()
        batch = simulate_discrete(spec, 17, 20000, 5)
        counts = np.bincount(batch.terminal_X, minlength=2)
        _, p = chisquare(counts, 20000 * spec.pi)
        assert p > 1e-3

    def test_gaussian_increments_distribution(self):
        kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
        spec = MapSpec(kernel=kernel,
                       increments={(0, 0): gaussian([0.0], [[1.0]])})
        batch = simulate_discrete(spec, 4, 50000, 13)
        z = batch.terminal_Y[:, 0] / 2.0
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_initial_distribution_used(self):
        spec = two_state()
        batch = simulate_discrete(spec, 1, 20000, 3, mu=np.array([1.0, 0.0]))
        # from state 0 the chain lands in state 1 with probability 0.3
        frac = batch.terminal_X.mean()
        assert abs(frac - 0.3) < 0.02

    def test_bad_initial_rejected(self):
        spec = two_state()
        with pytest.raises(UnsupportedInitial):
            simulate_discrete(spec, 4, 10, 0, mu=np.array([0.5, 0.6]))

    def test_mass_off_support_rejected(self):
        P = np.array([[0.5, 0.5], [0.0, 1.0]])   # pi = (0, 1)
        kernel = StochasticKernel(states=(0, 1), P=P)
        incs = {(0, 0): deterministic([0.0]), (0, 1): deterministic([0.0]),
                (1, 1): deterministic([0.0])}
        spec = MapSpec(kernel=kernel, increments=incs)
        with pytest.raises(UnsupportedInitial):
            simulate_discrete(spec, 4, 10, 0, mu=np.array([0.5, 0.5]))


class TestContentHash:
    """The content hash keeps its bytes and is computed once per spec."""

    PINNED = {
        "birth_death_5": "6240204dbfc1557efe7b87ced2d13519"
                         "b53216171720641477dbcc2609c6285e",
        "ct_two_state": "07a13894145f983431c3c15a1930835b"
                        "df82ef0e2ec277ffc4e95780798f9a12",
        "gaussian_iid": "c17de21643333116349e909789c49cd3"
                        "3072f82a4f724fef8cb874f121cf4b63",
        "iid_rademacher": "6dc880145064215cd2db57d2d509c2d1"
                          "325a129b923cb6b33a9e9a27ab335267",
        "lattice_pm1": "6dc880145064215cd2db57d2d509c2d1"
                       "325a129b923cb6b33a9e9a27ab335267",
        "skewed_mixture": "96ada62e31af9ed3276e0972da3a44d8"
                          "ac2552e599b74c046587c3063efd282e",
        "two_state": "b7cf9847fd9a08767da2937039102a23"
                     "1465700e2f948fe107ed4c71f9d57793",
        (0, 1): "fc9807877c6723113377462c1a94ae63"
                "75f1db05ade5e0a25cafa2c800e3d522",
        (1, 2): "fedc3ee7df9422a4ff1e4fb6774e9397"
                "e35c0752e27023bbb02840ddc6b61e97",
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_bytes_unchanged(self, name):
        spec = (random_mixed_spec(*name) if isinstance(name, tuple)
                else fixtures.get_fixture(name))
        assert spec_content_hash(spec) == self.PINNED[name]

    def test_skeleton_keeps_ct_hash(self, tmp_path):
        # the CT mixing report: its stream and spec_hash are the CT spec's,
        # and its bytes are pinned (empirical_max as one product per lag,
        # the bounds from map_model._expm's skeleton exp(G))
        out = tmp_path / "mix.json"
        assert dispatch(["mixing-bound", "--fixture", "ct_two_state",
                         "--lags", "1,5", "--paths", "3000", "--seed", "11",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["spec_hash"] == self.PINNED[
            "ct_two_state"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "27837a787740334754965a0f080ebe2f8992ed05c7094653e2f6bd335077c19e")

    def test_kernel_hash(self, tmp_path):
        # a kernel's hash is the sha256 of its rounded matrix, computed
        # once, and the spec_hash of its reports
        kernel = two_state().kernel
        want = ("4d1c8c32ac08be40d997b8be04645541"
                "432b74901bcae56e698a5e4659e51359")
        assert kernel.content_hash == want == hashlib.sha256(
            kernel.P.round(15).tobytes()).hexdigest()
        assert kernel.content_hash is kernel.content_hash
        spec, out = tmp_path / "kernel.json", tmp_path / "mix.json"
        spec.write_text(json.dumps(kernel_to_dict(kernel)))
        assert dispatch(["mixing-bound", "--spec", str(spec), "--lags", "1,2",
                         "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["spec_hash"] == want

    def test_second_call_does_no_work(self, monkeypatch):
        calls = []
        real = map_model.hashlib.sha256
        monkeypatch.setattr(map_model.hashlib, "sha256",
                            lambda data: calls.append(1) or real(data))
        for spec in (fixtures.skewed_mixture(), fixtures.ct_two_state()):
            first = spec_content_hash(spec)
            assert spec_content_hash(spec) == first
        assert len(calls) == 2


def _oracle_specs():
    """Every non-skeleton fixture, random mixed specs, a zero-cov Gaussian."""
    specs = [fixtures.get_fixture(name) for name in fixtures.fixture_names()]
    specs = [s for s in specs if isinstance(s, MapSpec)]
    specs += [random_mixed_spec(seed, d) for seed in range(12) for d in (1, 2)]
    kernel = StochasticKernel(states=(0, 1), P=np.array([[0.3, 0.7],
                                                         [0.6, 0.4]]))
    specs.append(MapSpec(kernel=kernel, increments={
        (0, 0): gaussian([0.5, -1.0], np.zeros((2, 2))),
        (0, 1): gaussian([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
        (1, 0): mixture([(0.25, [1.0, 0.0]), (0.75, [0.0, 1.0])]),
        (1, 1): deterministic([2.0, 3.0])}, d=2))
    return specs


def _mu_list(S):
    return (None, np.arange(1.0, S + 1) / (S * (S + 1) / 2))


def _panel_states(spec, n, n_paths, seed, mu=None):
    """X_n of the increment-panel stream: the kernel over the (successor,
    atom) columns, whose Gaussian uniforms come after the last step."""
    rng = montecarlo._philox(f"{spec_content_hash(spec)}:{seed}".encode())
    Q = montecarlo._atom_lookup(spec)[0]
    X = montecarlo._initial_states(spec, mu, n_paths, rng)
    for *_, X in montecarlo._chain_steps(Q, X, n, rng):
        pass
    return X


class TestPerKindOracle:
    """increment_panel and the kernel over (successor, atom) columns equal
    the per-law-kind loop bit for bit."""

    @pytest.mark.parametrize("spec", _oracle_specs())
    def test_same_stream(self, spec):
        Y, _, panel = per_kind_simulate(spec, 23, 400, 6)
        got = increment_panel(spec, 23, 400, 6)
        assert np.array_equal(got, panel)
        assert np.array_equal(np.cumsum(got, axis=1)[:, -1], Y)
        for mu in _mu_list(spec.n_states):
            _, X, _ = per_kind_simulate(spec, 23, 400, 6, mu=mu)
            assert np.array_equal(_panel_states(spec, 23, 400, 6, mu), X)


def _assert_sufficient_oracle(spec, n, n_paths, seed, mu=None):
    batch = simulate_discrete(spec, n, n_paths, seed, mu=mu)
    Y, X = stepwise_sufficient_simulate(spec, n, n_paths, seed, mu=mu)
    assert np.array_equal(batch.terminal_X, X)
    assert np.all(np.abs(batch.terminal_Y - Y) <= 1e-12 * (1.0 + np.abs(Y)))


class TestSufficientOracle:
    """simulate_discrete equals the plain per-step loop over its stream: X_n
    exactly, Y_n up to summation order, for every draw-block size."""

    @pytest.mark.parametrize("spec", _oracle_specs())
    def test_same_path(self, monkeypatch, spec):
        for block in (1, 250, 700):
            monkeypatch.setattr(montecarlo, "_BLOCK", block)
            for mu in _mu_list(spec.n_states):
                _assert_sufficient_oracle(spec, 23, 400, 6, mu)


def _point_gauss_spec(rng, S, d, integer):
    """A spec with no multi-atom run: each edge has a deterministic law, a
    one-atom mixture or (unless integer) a Gaussian, and an edge of P 0 may
    have none; a cycle keeps the kernel irreducible. integer: integer point
    atoms only, so every sum of increments is exact."""
    P = rng.uniform(size=(S, S)) * (rng.uniform(size=(S, S)) < 0.6)
    P[np.arange(S), (np.arange(S) + 1) % S] += 0.5
    P /= P.sum(axis=1, keepdims=True)
    value = ((lambda: rng.integers(-3, 4, size=d).astype(float)) if integer
             else (lambda: rng.normal(size=d)))
    kinds = ["point", "atom"] if integer else ["point", "atom", "gauss"]
    incs = {}
    for i in range(S):
        for j in range(S):
            kind = rng.choice(kinds + ["none"] * bool(P[i, j] == 0))
            if kind == "point":
                incs[(i, j)] = deterministic(value())
            elif kind == "atom":
                incs[(i, j)] = mixture([(1.0, value())])
            elif kind == "gauss":
                A = rng.normal(size=(d, d))
                incs[(i, j)] = gaussian(value(), A @ A.T)
    kernel = StochasticKernel(states=tuple(range(S)), P=P)
    return MapSpec(kernel=kernel, increments=incs, d=d)


class TestRowSums:
    """A whole draw adds its row's summed atom means and covariances:
    against the per-step loop, X exactly and Y to summation order, bit for
    bit where every sum is exact."""

    @settings(max_examples=60, deadline=None)
    @given(S=st.integers(1, 40), d=st.sampled_from([1, 2]),
           integer=st.booleans(), given_mu=st.booleans(),
           paths=st.integers(1, 12), block=st.sampled_from([1, 7, 1 << 16]),
           segments=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 8)),
                             min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_stepwise_oracle(self, S, d, integer, given_mu, paths,
                                    block, segments, seed):
        rng = np.random.default_rng(seed)
        spec = _point_gauss_spec(rng, S, d, integer)
        mu = rng.dirichlet(np.ones(S)) if given_mu else None
        B = montecarlo._path_length(S, paths)
        # segments of a whole draws plus r steps: ends on a draw boundary
        # (r = 0) or inside a draw
        lengths = [max(a * B + r % B, 1) for a, r in segments]
        hs = np.cumsum(lengths).tolist()
        with mock.patch.object(montecarlo, "_BLOCK", block):
            batches = simulate_discrete(spec, hs[-1], paths, seed, mu=mu,
                                        at=hs)
        oracle = stepwise_sufficient_simulate(spec, hs, paths, seed, mu=mu)
        for batch, (Y, X) in zip(batches, oracle):
            assert np.array_equal(batch.terminal_X, X)
            if integer:
                assert np.array_equal(batch.terminal_Y, Y)
            else:
                assert np.all(np.abs(batch.terminal_Y - Y)
                              <= 1e-12 * (1.0 + np.abs(Y)))

    def test_mixed_runs_column_map(self):
        """Multi-atom runs beside one-atom runs and law-less edges: each
        (successor, atom) column carries P_ij p_a and maps to its atom."""
        kernel = StochasticKernel(states=(0, 1, 2), P=np.array(
            [[0.2, 0.0, 0.8], [0.4, 0.0, 0.6], [0.3, 0.3, 0.4]]))
        spec = MapSpec(kernel=kernel, increments={
            (0, 0): deterministic([1.0]),
            (2, 0): deterministic([0.5]),
            (0, 2): mixture([(0.5, [2.0]), (0.25, [3.0]), (0.25, [4.0])]),
            (1, 0): gaussian([0.5], [[2.0]]),
            (1, 2): mixture([(1.0, [-1.0])]),
            (2, 1): mixture([(0.7, [5.0]), (0.3, [6.0])]),
            (2, 2): deterministic([-2.0])})
        Q, atom, mean, *_ = montecarlo._atom_lookup(spec)
        A, want = atom_columns(spec)
        assert A == 3 and np.array_equal(Q, want)
        for i, c in zip(*np.nonzero(Q)):
            law = spec.increments.get((i, c // A))
            value = 0.0 if law is None else law.mean[c % A]
            assert np.array_equal(mean[atom[i * Q.shape[1] + c]], value)
        for mu in _mu_list(3):
            _assert_sufficient_oracle(spec, 23, 400, 6, mu)
            for hs in ([1, 5, 12], [4, 8, 23]):
                batches = simulate_discrete(spec, hs[-1], 50, 3, mu=mu, at=hs)
                oracle = stepwise_sufficient_simulate(spec, hs, 50, 3, mu=mu)
                for batch, (Y, X) in zip(batches, oracle):
                    assert np.array_equal(batch.terminal_X, X)
                    assert np.all(np.abs(batch.terminal_Y - Y)
                                  <= 1e-12 * (1.0 + np.abs(Y)))


def _comparison_sum(cum, row, u):
    """The inverse CDF as the kernel once computed it (test oracle)."""
    return (u[:, None] >= cum[row]).sum(axis=1)


class TestSearch:
    """_search over a _cdf_table equals the comparison-sum inverse CDF."""

    @settings(max_examples=300, deadline=None)
    @given(S=st.sampled_from([1, 2, 3, 5, 8, 32, 33]),
           zeros=st.floats(0.0, 0.9), seed=st.integers(0, 2 ** 32 - 1))
    # a guide built from float offsets c + 2 row lost the last bits near 1
    @example(S=5, zeros=0.75, seed=1196)
    def test_equals_comparison_sum(self, S, zeros, seed):
        rng = np.random.default_rng(seed)
        w = rng.exponential(size=(6, S)) * (rng.random((6, S)) >= zeros)
        w[w.sum(axis=1) == 0, 0] = 1.0
        cum = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
        cum[:, -1] = 1.0
        row = rng.integers(6, size=500)
        u = rng.random(500)
        tied = cum[row, rng.integers(S, size=500)]
        pick = (rng.random(500) < 0.4) & (tied < 1.0)
        u[pick] = tied[pick]                    # u equal to a cumulative value
        u[:5] = 0.0
        u[5:10] = np.nextafter(1.0, 0.0)
        table = _cdf_table(cum)
        np.testing.assert_array_equal(_search(table, row, u),
                                      _comparison_sum(cum, row, u))
        assert _depth(table) <= (S - 1).bit_length()   # binary search's

    def test_row_overshooting_one(self):
        # cumsum reaches 1 + 2^-52 before the pinned last column
        cum = np.cumsum(np.array([[6.0, 23.0, 1.0, 0.0]]) / 30.0, axis=1)
        cum[:, -1] = 1.0
        assert cum[0, 2] > 1.0
        u = np.concatenate([cum[0, :2], np.linspace(0.0, 1.0, 101)[:-1],
                            [np.nextafter(1.0, 0.0)]])
        row = np.zeros(len(u), dtype=np.int64)
        table = _cdf_table(cum)
        np.testing.assert_array_equal(_search(table, row, u),
                                      _comparison_sum(cum, row, u))


    def test_rows_without_positive_entry(self):
        # a zero row draws its last column; the single-state CT embed row
        # is [[0]], so it draws state 0
        single = _search(_cdf_table(np.zeros((1, 1))),
                         np.zeros(3, dtype=np.intp), np.array([0.0, 0.5, 0.9]))
        assert single.tolist() == [0, 0, 0]
        w = np.random.default_rng(2).exponential(size=(40, 40))
        w[::3] = 0.0
        cum = np.cumsum(w / np.maximum(w.sum(axis=1, keepdims=True), 1e-300),
                        axis=1)
        cum[:, -1] = 1.0
        table = _cdf_table(cum)
        assert table[2] is not None             # guided
        row = np.repeat(np.arange(40), 50)
        u = np.random.default_rng(3).random(len(row))
        got = _search(table, row, u)
        np.testing.assert_array_equal(got, _comparison_sum(cum, row, u))
        assert (got[row % 3 == 0] == 39).all()

    @pytest.mark.parametrize("S, B, eps", [(2, 8, 1e-2), (3, 6, 1e-3),
                                            (4, 4, 1e-4), (8, 3, 1e-5)])
    def test_heavy_diagonal_path_tables(self, S, B, eps):
        # path probabilities down to eps^B: many paths crowd one bucket
        rng = np.random.default_rng(S)
        P = (1 - eps) * np.eye(S) + eps * rng.dirichlet(np.ones(S), size=S)
        paths, cums = path_laws(P, B)
        smallest = min(np.prod(P[[x, *path[:-1]], path])
                       for x in range(S) for path in paths)
        assert 0 < smallest < 1e-15
        table = montecarlo._path_table(P, B)
        row = np.repeat(np.arange(S), 400)
        u = rng.random(len(row))
        tied = np.array([cums[x][j] for x, j in
                         zip(row, rng.integers(S ** B, size=len(row)))])
        pick = (rng.random(len(row)) < 0.5) & (tied < 1.0)
        u[pick] = tied[pick]
        u[::7] = 1.0 - rng.random(len(u[::7])) * 1e-3    # near the end
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        want = [int((v >= cums[x]).sum()) for x, v in zip(row, u)]
        np.testing.assert_array_equal(_search(table, row, u),
                                      row * S ** B + want)

    @pytest.mark.parametrize("S", [8, 32, 33])
    def test_bucket_edges(self, S):
        # u at every bucket edge k/M and one ulp on either side of it
        rng = np.random.default_rng(S)
        cum = np.cumsum(rng.dirichlet(np.full(S, 0.3), size=6), axis=1)
        cum[:, -1] = 1.0
        table = _cdf_table(cum)
        M = table[3]
        edge = np.arange(M) / M
        u = np.concatenate([edge, np.nextafter(edge, 1.0),
                            np.nextafter(edge[1:], 0.0)])
        for r in range(6):
            row = np.full(len(u), r)
            np.testing.assert_array_equal(_search(table, row, u),
                                          _comparison_sum(cum, row, u))

    def test_dyadic_table(self):
        # every path probability a multiple of 1/M: no bucket holds a
        # candidate, so the guided search runs no level at all
        P = np.full((2, 2), 0.5)
        table = montecarlo._path_table(P, 4)
        assert table[2] is not None and _depth(table) == 0
        paths, cums = path_laws(P, 4)
        row = np.repeat(np.arange(2), 64)
        u = np.concatenate([np.arange(64) / 64, np.nextafter(
            np.arange(1, 65) / 64, 0.0)])
        want = [int((v >= cums[x]).sum()) for x, v in zip(row, u)]
        np.testing.assert_array_equal(_search(table, row, u), row * 16 + want)

    def test_values_one_ulp_from_bucket_edges(self):
        # cumulative values one ulp above or below j/32 in every row: a
        # guide that rounds them to the edge (as a float row offset would)
        # starts a bucket one value too late
        edge = np.arange(1, 32) / 32
        row_values = np.where(np.arange(31) % 2, np.nextafter(edge, 2.0),
                              np.nextafter(edge, 0.0))
        cum = np.tile(np.append(row_values, 1.0), (6, 1))
        table = _cdf_table(cum)
        assert table[2] is not None             # guided
        M = table[3]
        u = np.arange(M) / M
        u = np.concatenate([u, np.nextafter(u, 1.0), np.nextafter(u[1:], 0.0),
                            row_values])
        for r in range(6):
            row = np.full(len(u), r)
            np.testing.assert_array_equal(_search(table, row, u),
                                          _comparison_sum(cum, row, u))

    def test_width_one(self):
        table = _cdf_table(np.ones((4, 1)))
        assert _depth(table) == 0
        row = np.array([0, 1, 2, 3, 3])
        got = _search(table, row, np.array([0.0, 0.3, 0.5, 0.99,
                                                   np.nextafter(1.0, 0.0)]))
        assert got.tolist() == [0] * 5

    @pytest.mark.parametrize("S, B, successors", [(8, 3, 8), (32, 2, 4)])
    def test_guide_cuts_depth(self, S, B, successors):
        # a dense S = 8, B = 3 and a 4-successor S = 32, B = 2 path table
        rng = np.random.default_rng(5)
        P = np.zeros((S, S))
        for x in range(S):
            nxt = rng.choice(S, successors, replace=False)
            P[x, nxt] = rng.uniform(0.2, 1.0, successors)
        P /= P.sum(axis=1, keepdims=True)
        table = montecarlo._path_table(P, B)
        assert table[2] is not None
        assert _depth(table) < (S ** B - 1).bit_length()
        paths, cums = path_laws(P, B)
        row = np.repeat(np.arange(S), 200)
        u = rng.random(len(row))
        want = [int((v >= cums[x]).sum()) for x, v in zip(row, u)]
        np.testing.assert_array_equal(_search(table, row, u),
                                      row * S ** B + want)

    def test_path_table_read_only(self):
        # the search reads the guide and the level views of flat, never
        # writes them
        P = np.random.default_rng(8).dirichlet(np.ones(8), size=8)
        levels, _, start = montecarlo._path_table(P, 3)[:3]
        assert levels and start is not None
        for arr in [start, *(level for _, level in levels)]:
            assert not arr.flags.writeable


def _depth(table):
    """Binary-search levels a _cdf_table's search runs."""
    return len(table[0])


class TestBlocks:
    """Streams do not depend on how steps are grouped into draw blocks."""

    @pytest.mark.parametrize("block", [1, 250, 700])
    @pytest.mark.parametrize("d", [1, 2])
    def test_simulate_discrete(self, monkeypatch, block, d):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        for seed in range(3):
            spec = random_mixed_spec(seed, d)
            _assert_sufficient_oracle(spec, 23, 50, 6)
            assert np.array_equal(increment_panel(spec, 23, 50, 6),
                                  per_kind_simulate(spec, 23, 50, 6)[2])

    @pytest.mark.parametrize("block", [1, 250, 700])
    def test_edge_counts(self, monkeypatch, block):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        for seed in range(3):
            kernel = random_mixed_spec(seed).kernel
            assert np.array_equal(simulate_edge_counts(kernel, 23, 50, seed),
                                  stepwise_edge_counts(kernel, 23, 50, seed))


class TestSingularCovariance:
    """A singular d >= 2 Gaussian covariance is sampled, not rejected."""

    COV = [[1.0, 1.0], [1.0, 1.0]]

    def _spec(self):
        kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
        return MapSpec(kernel=kernel, increments={
            (0, 0): gaussian([0.0, 0.0], self.COV)}, d=2)

    def test_sample_covariance(self):
        Y = simulate_discrete(self._spec(), 4, 20000, 3).terminal_Y / 2.0
        np.testing.assert_allclose(np.cov(Y.T), self.COV, atol=0.05)
        np.testing.assert_allclose(Y[:, 0], Y[:, 1], rtol=0, atol=1e-12)

    def test_regular_atoms_keep_cholesky(self):
        regular = np.array([[2.0, 0.5], [0.5, 1.0]])
        F = _cov_factors(np.stack([regular, np.array(self.COV)]))
        assert np.array_equal(F[0], np.linalg.cholesky(regular))
        np.testing.assert_allclose(F[1] @ F[1].T, self.COV, atol=1e-12)

    def test_cli_simulate(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kernel": {"states": [0], "P": [[1.0]]}, "d": 2,
            "increments": [{"from": 0, "to": 0, "kind": "gaussian",
                            "mean": [0.0, 0.0], "cov": self.COV}]}))
        assert dispatch(["simulate", "--spec", str(spec), "--n", "8",
                         "--paths", "100", "--seed", "1",
                         "--out", str(tmp_path / "y.bin")]) == 0


class TestPanel:
    def test_panel_sums_to_terminal(self):
        # two routes to the law of Y_n: per-step increments and sufficient
        # statistics
        spec = fixtures.skewed_mixture()
        sums = increment_panel(spec, 32, 20000, 21).sum(axis=1)
        _, p = ks_2samp(sums, simulate_discrete(spec, 32, 20000, 21)
                        .terminal_Y[:, 0])
        assert p > 1e-3

    def test_iid_lag_correlations_vanish(self):
        panel = increment_panel(iid_rademacher(), 6, 50000, 2)
        se = 1.0 / np.sqrt(50000)
        for lag in range(1, 6):
            c = np.corrcoef(panel[:, 0], panel[:, lag])[0, 1]
            assert abs(c) <= 4 * se

    def test_two_state_lag_correlations_bounded(self):
        panel = increment_panel(two_state(), 6, 50000, 4)
        se = 1.0 / np.sqrt(50000)
        for lag in range(1, 6):
            c = abs(np.corrcoef(panel[:, 0], panel[:, lag])[0, 1])
            assert c <= 0.5 ** (lag - 1) + 4 * se


def _read_columns(batches):
    """Y read at each batch's time as columns, after a column of Y_0 = 0."""
    return np.column_stack([np.zeros(batches[0].n_paths)]
                           + [b.terminal_Y[:, 0] for b in batches])


class TestContinuous:
    def test_constant_reward_exact(self):
        ct = CtMapSpec(generator=np.array([[-1.0, 1.0], [2.0, -2.0]]),
                       reward=np.array([3.0, 3.0]))
        batch = simulate_ct(ct, 7.5, 100, 1)
        np.testing.assert_allclose(batch.terminal_Y[:, 0], 22.5, atol=1e-10)

    def test_single_state(self):
        ct = CtMapSpec(generator=np.array([[0.0]]), reward=np.array([1.0]))
        batch = simulate_ct(ct, 4.2, 10, 0)
        np.testing.assert_allclose(batch.terminal_Y[:, 0], 4.2, atol=1e-12)

    def test_single_state_zero_uniform(self, monkeypatch):
        # rate 0 and u = 0 make the hold 0/0 = nan: still no jump, no warning
        zeros = SimpleNamespace(random=lambda n: np.zeros(n))
        monkeypatch.setattr(montecarlo, "_philox", lambda payload: zeros)
        ct = CtMapSpec(generator=np.array([[0.0]]), reward=np.array([1.0]))
        times = [1.0, 2.0, 3.0, 4.0, 4.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batches = simulate_ct(ct, 4.5, 3, 0, at=times)
        assert [b.terminal_Y[:, 0].tolist() for b in batches] == [
            [h] * 3 for h in times]
        assert batches[-1].terminal_X.tolist() == [0] * 3

    def test_mean_rate_oracle(self):
        ct = ct_two_state(centered=False)
        t = 1000.0
        batch = simulate_ct(ct, t, 2000, 6)
        mean = batch.terminal_Y[:, 0].mean() / t
        assert abs(mean - 1.0 / 3.0) < 0.005

    def test_jump_increments_counted(self):
        # zero reward, unit jump increments: Y_t = number of transitions
        ct = CtMapSpec(generator=np.array([[-1.0, 1.0], [1.0, -1.0]]),
                       reward=np.array([0.0, 0.0]),
                       jump_increments=np.ones((2, 2)))
        batch = simulate_ct(ct, 50.0, 2000, 8)
        y = batch.terminal_Y[:, 0]
        assert np.all(y == np.round(y))
        assert abs(y.mean() - 50.0) < 1.0   # jump rate is 1 in every state

    def test_integer_horizon_marks(self):
        ct = ct_two_state()
        batches = simulate_ct(ct, 8.0, 500, 3, at=range(1, 9))
        panel = np.diff(_read_columns(batches), axis=1)
        np.testing.assert_allclose(panel.sum(axis=1),
                                   batches[-1].terminal_Y[:, 0], atol=1e-9)

    def test_fractional_horizon_integer_part(self):
        ct = ct_two_state()
        at_8, at_t = simulate_ct(ct, 8.5, 500, 3, at=[8.0, 8.5])
        # |Y_t - Y_8| <= max|xi| * 0.5
        gap = np.abs(at_t.terminal_Y[:, 0] - at_8.terminal_Y[:, 0])
        assert np.max(gap) <= np.max(np.abs(ct.reward)) * 0.5 + 1e-9
        assert 0 < np.max(gap)


def _random_ct(rng, S, jumps):
    """A random irreducible CT spec: off-diagonal rates with about half of
    them 0 but a cycle x -> x + 1 kept, random rewards and, when jumps,
    random jump increments."""
    off = rng.uniform(0.2, 2.0, (S, S)) * (rng.random((S, S)) < 0.5)
    off[np.arange(S), (np.arange(S) + 1) % S] += 0.5
    np.fill_diagonal(off, 0.0)
    G = off - np.diag(off.sum(axis=1))
    J = rng.normal(size=(S, S)) if jumps else None
    return CtMapSpec(generator=G, reward=rng.normal(size=S),
                     jump_increments=J)


class TestCtOracle:
    """simulate_ct equals stepwise_ct, the jump loop before its running
    paths were kept compact, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(S=st.sampled_from([1, 2, 3, 8]), jumps=st.booleans(),
           t=st.sampled_from([0.0, 0.4, 1.0, 3.0, 4.5, 7.25]),
           record=st.booleans(), given_mu=st.booleans(),
           paths=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
    @example(S=1, jumps=False, t=4.5, record=True, given_mu=False, paths=10,
             seed=0)
    def test_equals_oracle(self, S, jumps, t, record, given_mu, paths, seed):
        # with record, the chain is read at 1, ..., floor(t) and t: the
        # oracle's panel is the diff of those reads, its integer part the
        # read at floor(t)
        rng = np.random.default_rng(seed)
        ct = _random_ct(rng, S, jumps and S > 1)
        mu = rng.dirichlet(np.ones(S)) if given_mu else None
        n_int = int(t)
        marks = [float(k) for k in range(1, n_int + 1)]
        times = sorted({*marks, t})
        got = simulate_ct(ct, t, paths, seed % 1000, mu=mu,
                          at=times if record else None)
        last = got[-1] if record else got
        Y, X, panel, int_part = stepwise_ct(ct, t, paths, seed % 1000, mu=mu,
                                            record_steps=record)
        for a, b in ((last.terminal_Y, Y), (last.terminal_X, X)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        if record and n_int >= 1:
            reads = _read_columns(got)
            np.testing.assert_array_equal(
                np.diff(reads[:, :n_int + 1], axis=1), panel)
            np.testing.assert_array_equal(reads[:, n_int], int_part)

    def test_fixture_with_marks(self):
        ct = ct_two_state()
        got = simulate_ct(ct, 16.0, 2000, 9, at=range(1, 17))
        want = stepwise_ct(ct, 16.0, 2000, 9, record_steps=True)
        np.testing.assert_array_equal(np.diff(_read_columns(got), axis=1),
                                      want[2])
        np.testing.assert_array_equal(got[-1].terminal_Y, want[0])


class TestReadAtTimes:
    """simulate_ct(..., at=times): one chain read at every time."""

    @pytest.mark.parametrize("ct", [ct_two_state(),
                                    _random_ct(np.random.default_rng(3), 8,
                                               True)])
    def test_reads_draw_nothing(self, ct):
        # the t = 256 batch is the plain t = 256 call, bit for bit
        _, last = simulate_ct(ct, 256.0, 2000, 7, at=[64.0, 256.0])
        plain = simulate_ct(ct, 256.0, 2000, 7)
        np.testing.assert_array_equal(last.terminal_Y, plain.terminal_Y)
        np.testing.assert_array_equal(last.terminal_X, plain.terminal_X)
        assert last.horizon == plain.horizon == 256.0

    def test_verify_ct_draws_one_chain(self, monkeypatch, tmp_path):
        # a multi-t verify-ct runs one chain to max(t), not one per t
        drawn = []

        def counting(payload):
            rng = real(payload)
            return SimpleNamespace(
                random=lambda n: drawn.append(n) or rng.random(n))

        real = montecarlo._philox
        monkeypatch.setattr(montecarlo, "_philox", counting)
        assert dispatch(["verify-ct", "--fixture", "ct_two_state",
                         "--t-list", "64,256", "--paths", "2000", "--seed",
                         "3", "--out", str(tmp_path / "ct.json")]) == 0
        verify = sum(drawn)
        drawn.clear()
        simulate_ct(ct_two_state(), 256.0, 2000, 3)
        assert verify == sum(drawn)

    def test_bad_times_rejected(self):
        ct = ct_two_state()
        for at in ([], [2.0, 1.0, 4.0], [1.0, 1.0, 4.0], [1.0, 3.0],
                   [-1.0, 4.0], [1.0, float("nan"), 4.0]):
            with pytest.raises(ValueError):
                simulate_ct(ct, 4.0, 10, 0, at=at)

    def test_reads_are_the_dwell_values(self):
        # constant reward 3: Y_T = 3 T at every read; X at t only
        ct = CtMapSpec(generator=np.array([[-1.0, 1.0], [2.0, -2.0]]),
                       reward=np.array([3.0, 3.0]))
        times = [0.0, 0.25, 1.0, 2.5, 7.5]
        batches = simulate_ct(ct, 7.5, 100, 1, at=times)
        for h, b in zip(times, batches):
            assert b.horizon == h
            np.testing.assert_allclose(b.terminal_Y[:, 0], 3 * h, atol=1e-10)
            assert (b.terminal_X is None) == (h < 7.5)


class TestSkeletonConsistency:
    def test_two_sample_ks(self):
        ct = ct_two_state()
        n, paths = 16, 20000
        a = simulate_ct(ct, float(n), paths, 100)
        b = np.diff(_read_columns(
            simulate_ct(ct, float(n), paths, 200, at=range(1, n + 1))), axis=1)
        _, p = ks_2samp(a.terminal_Y[:, 0], b.sum(axis=1))
        assert p > 1e-3

    def test_skeleton_delegates_to_ct(self, monkeypatch):
        # the CT mixing check reads the integer-time panel of simulate_ct,
        # the diff of its reads at 0, 1, ..., max lag + 1,
        # bit for bit: every column it tests is a column of that panel
        seen = []
        real = limit_checks._test_functionals
        monkeypatch.setattr(limit_checks, "_test_functionals",
                            lambda col: seen.append(col) or real(col))
        limit_checks.rho_mixing_check(ct_two_state(), [1, 3], 100, 5)
        panel = np.diff(_read_columns(
            simulate_ct(ct_two_state(), 4.0, 100, 5, at=range(1, 5))), axis=1)
        assert [c.tolist() for c in seen] == [panel[:, t].tolist()
                                              for t in (0, 1, 3)]


class TestLaw:
    """The law of simulated Y_n against exact laws and moments."""

    PATHS = 20000

    @pytest.mark.parametrize("n", [16, 64])
    def test_iid_rademacher_binomial(self, n):
        y = simulate_discrete(iid_rademacher(), n, self.PATHS, 3).terminal_Y
        support = np.arange(-n, n + 1, 2)
        ecdf = np.searchsorted(np.sort(y[:, 0]), support, side="right")
        exact = binom.cdf((support + n) // 2, n, 0.5)
        assert np.max(np.abs(ecdf / self.PATHS - exact)) <= ecdf_se(self.PATHS)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_skewed_mixture_exact_cdf(self, n):
        y = simulate_discrete(fixtures.skewed_mixture(), n, self.PATHS,
                              4).terminal_Y[:, 0]
        dist = kolmogorov_distance(y, lambda a: skewed_mixture_exact_cdf(a, n))
        assert dist <= ecdf_se(self.PATHS)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_moments(self, seed, d):
        spec, n = random_mixed_spec(seed, d), 12
        Y = simulate_discrete(spec, n, self.PATHS, 5).terminal_Y
        for w in np.vstack([np.eye(d), np.ones((1, d))])[:2 * d - 1]:
            flat = projected_spec(spec, w)
            m1, m2, m3, m4 = (exact_moments(flat, n, k) for k in range(1, 5))
            var = m2 - m1 ** 2
            mu4 = m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4
            y = Y @ w
            assert abs(y.mean() - m1) <= 5 * np.sqrt(var / self.PATHS)
            assert (abs(y.var() - var)
                    <= 5 * np.sqrt((mu4 - var ** 2) / self.PATHS))


class TestHorizons:
    """One chain per path read at a list of horizons."""

    HORIZONS = [3, 8, 12]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_first_horizon_is_the_single_call(self, seed, d):
        spec = random_mixed_spec(seed, d)
        hs = self.HORIZONS
        first = simulate_discrete(spec, hs[-1], 300, 9, at=hs)[0]
        single = simulate_discrete(spec, hs[0], 300, 9)
        assert first.horizon == hs[0]
        assert np.array_equal(first.terminal_Y, single.terminal_Y)
        assert np.array_equal(first.terminal_X, single.terminal_X)

    @pytest.mark.parametrize("block", [1, 250, 700])
    def test_stepwise_oracle(self, monkeypatch, block):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        for spec in _oracle_specs()[::3]:
            for mu in _mu_list(spec.n_states):
                batches = simulate_discrete(spec, 12, 200, 6, mu=mu,
                                            at=[1, 5, 12])
                oracle = stepwise_sufficient_simulate(spec, [1, 5, 12], 200,
                                                      6, mu=mu)
                for batch, (Y, X) in zip(batches, oracle):
                    assert np.array_equal(batch.terminal_X, X)
                    assert np.all(np.abs(batch.terminal_Y - Y)
                                  <= 1e-12 * (1.0 + np.abs(Y)))

    def test_batches_are_frozen_snapshots(self):
        batches = simulate_discrete(fixtures.skewed_mixture(), 12, 50, 1,
                                    at=self.HORIZONS)
        assert [b.horizon for b in batches] == self.HORIZONS
        for b in batches:
            assert not b.terminal_Y.flags.writeable
        assert not np.array_equal(batches[0].terminal_Y,
                                  batches[-1].terminal_Y)

    def test_one_edge_decode_per_call(self, monkeypatch):
        # the segments of a call share its _row_decode edge table
        calls = []
        real = montecarlo._row_decode
        monkeypatch.setattr(montecarlo, "_row_decode",
                            lambda *a: calls.append(a) or real(*a))
        for spec in (two_state(), fixtures.skewed_mixture(),
                     random_mixed_spec(3, 1)):
            calls.clear()
            simulate_discrete(spec, 1024, 100, 3, at=[64, 256, 1024])
            assert len(calls) == 1

    def test_zero_step_segment(self):
        # a segment of no steps still draws its (zero-variance) Gaussian
        spec = fixtures.skewed_mixture()
        batches = simulate_discrete(spec, 12, 200, 6, at=[0, 5, 12])
        oracle = stepwise_sufficient_simulate(spec, [0, 5, 12], 200, 6)
        assert not batches[0].terminal_Y.any()
        for batch, (Y, X) in zip(batches, oracle):
            assert np.array_equal(batch.terminal_X, X)
            assert np.all(np.abs(batch.terminal_Y - Y)
                          <= 1e-12 * (1.0 + np.abs(Y)))

    @pytest.mark.parametrize("at", [[8, 3, 12], [3, 3, 12], [3, 8], [],
                                    [-1, 12], [3, 8, 13]])
    def test_rejects_bad_lists(self, at):
        with pytest.raises(ValueError, match="increase strictly"):
            simulate_discrete(two_state(), 12, 10, 0, at=at)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_moments_at_every_horizon(self, seed, d):
        spec, paths = random_mixed_spec(seed, d), 20000
        batches = simulate_discrete(spec, 12, paths, 5, at=self.HORIZONS)
        for batch in batches:
            n = batch.horizon
            for w in np.vstack([np.eye(d), np.ones((1, d))])[:2 * d - 1]:
                flat = projected_spec(spec, w)
                m1, m2, m3, m4 = (exact_moments(flat, n, k)
                                  for k in range(1, 5))
                var = m2 - m1 ** 2
                mu4 = m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4
                y = batch.terminal_Y @ w
                assert abs(y.mean() - m1) <= 5 * np.sqrt(var / paths)
                assert (abs(y.var() - var)
                        <= 5 * np.sqrt((mu4 - var ** 2) / paths))


def _sparse_kernel(rng, S, zeros=0.5):
    """Random kernel with about a fraction zeros of its entries 0, kept
    irreducible by a cycle x -> x + 1 of weight 0.5 before normalizing."""
    P = rng.uniform(0.05, 1.0, (S, S)) * (rng.random((S, S)) >= zeros)
    P[np.arange(S), (np.arange(S) + 1) % S] += 0.5
    return StochasticKernel(states=tuple(range(S)),
                            P=P / P.sum(axis=1, keepdims=True))


class TestPathLength:
    """B, the steps one move uniform draws, and its rule."""

    # ids in the C-N-0-B form (0 extra uniforms per step) that names these
    # cases across versions
    @pytest.mark.parametrize("C, N, B", [
        pytest.param(C, N, B, id=f"{C}-{N}-0-{B}") for C, N, B in [
            (1, 1, 8), (1, 0, 8), (1, 10 ** 6, 1), (2, 8192, 8),
            (2, 8193, 7), (2, 60000, 1), (3, 100, 6), (4, 100, 5),
            (5, 100, 4), (8, 100, 3), (10, 100, 3), (11, 100, 2),
            (32, 1000, 2), (33, 1, 1)]])
    def test_values(self, monkeypatch, C, N, B):
        assert montecarlo._path_length(C, N) == B
        monkeypatch.setattr(montecarlo, "_BLOCK", 1)
        assert montecarlo._path_length(C, N) == B

    @settings(max_examples=300, deadline=None)
    @given(C=st.integers(1, 40), N=st.integers(0, 10 ** 6))
    def test_rule(self, C, N):
        assert montecarlo._path_length(C, N) == path_length(C, N)


class TestSingleStepCase:
    """At B = 1 the block-path oracles are the single-step oracles, and the
    kernel's stream is the single-step kernel's, byte for byte."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_oracles_agree_at_b1(self, d):
        for seed in range(3):
            spec = random_mixed_spec(seed, d)
            Y, X, panel = per_kind_simulate(spec, 9, 60, 6, B=1)
            Y1, X1, panel1 = per_kind_simulate_b1(spec, 9, 60, 6)
            assert np.array_equal(X, X1) and np.array_equal(panel, panel1)
            assert np.all(np.abs(Y - Y1) <= 1e-12 * (1.0 + np.abs(Y1)))
            got = stepwise_sufficient_simulate(spec, [2, 9], 60, 6, B=1)
            want = stepwise_sufficient_simulate_b1(spec, [2, 9], 60, 6)
            for (Y, X), (Y1, X1) in zip(got, want):
                assert np.array_equal(X, X1)
                assert np.all(np.abs(Y - Y1) <= 1e-12 * (1.0 + np.abs(Y1)))
            assert np.array_equal(
                stepwise_edge_counts(spec.kernel, [2, 9], 60, seed, B=1),
                stepwise_edge_counts_b1(spec.kernel, [2, 9], 60, seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_is_single_step_at_b1(self, seed):
        N = 33000       # N B > 2^16 at B = 2
        spec = random_mixed_spec(seed, 1)
        S = spec.n_states
        assert montecarlo._path_length(S, N) == 1
        assert np.array_equal(
            simulate_edge_counts(spec.kernel, 5, N, seed, at=[2, 5]),
            stepwise_edge_counts_b1(spec.kernel, [2, 5], N, seed))
        batches = simulate_discrete(spec, 4, N, 6, at=[1, 4])
        for batch, (Y, X) in zip(batches, stepwise_sufficient_simulate_b1(
                spec, [1, 4], N, 6)):
            assert np.array_equal(batch.terminal_X, X)
            assert np.all(np.abs(batch.terminal_Y - Y)
                          <= 1e-12 * (1.0 + np.abs(Y)))
        assert np.array_equal(increment_panel(spec, 4, N, 6),
                              per_kind_simulate_b1(spec, 4, N, 6)[2])

    def test_wide_state_space_is_single_step(self):
        # S = 33: S^2 > 1024, so B = 1 at any path count
        kernel = _sparse_kernel(np.random.default_rng(3), 33, zeros=0.0)
        assert montecarlo._path_length(33, 10) == 1
        assert np.array_equal(
            simulate_edge_counts(kernel, 7, 10, 1, at=[3, 7]),
            stepwise_edge_counts_b1(kernel, [3, 7], 10, 1))


class TestZeroMassStates:
    """No uniform below 1 lands on a state, atom or path of probability 0,
    even where the cumulative sum stops short of 1."""

    ROW = np.array([0.39546199, 0.59301806, 0.01151995, 0.0])
    U = np.nextafter(1.0, 0.0)

    def test_precondition(self):
        assert self.U >= np.cumsum(self.ROW)[2]

    def test_cdf_table(self):
        cum = np.cumsum(self.ROW)[None]
        got = _search(_cdf_table(cum), np.zeros(1, dtype=np.intp),
                      np.array([self.U]))
        assert got.tolist() == [2]

    def test_initial_states(self):
        rng = SimpleNamespace(random=lambda n: np.full(n, self.U))
        spec = SimpleNamespace(pi=np.full(4, 0.25))
        X = montecarlo._initial_states(spec, self.ROW, 3, rng)
        assert X.tolist() == [2, 2, 2]

    @pytest.mark.parametrize("B", range(1, 6))
    def test_block_paths(self, B):
        P = np.array([self.ROW, self.ROW[[1, 0, 3, 2]], self.ROW[::-1],
                      [0.25] * 4])
        table = montecarlo._path_table(P, B)
        x = np.arange(4)
        row = _search(table, x, np.full(4, self.U))
        walk = np.vstack(np.unravel_index(row, (4,) * (B + 1)))
        assert (walk[0] == x).all()
        assert (P[walk[:-1], walk[1:]] > 0).all()

    def test_mixture_atoms(self):
        # the atoms are columns of the path table: its last positive path
        # takes every u up to 1, and each of its steps is on atom 2
        kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
        law = mixture([(p, [float(a)]) for a, p in enumerate(self.ROW)])
        spec = MapSpec(kernel=kernel, increments={(0, 0): law})
        Q, atom, *_ = montecarlo._atom_lookup(spec)
        for B in range(1, 6):
            table = montecarlo._path_table(Q, B)
            row = _search(table, np.zeros(1, dtype=np.intp),
                          np.array([self.U]))
            edges = montecarlo._row_decode(1, 4, B)[:, row]
            assert atom[edges].ravel().tolist() == [2] * B


class TestBlockPathLaw:
    """Edge counts of the block kernel against exact laws, not the stream:
    n not a multiple of B, horizon lists, sparse rows."""

    @pytest.mark.parametrize("S", [1, 2, 3, 5, 8, 33])
    def test_mean_counts(self, S):
        rng = np.random.default_rng(S)
        kernel, N = _sparse_kernel(rng, S), 4000
        P, B = kernel.P, montecarlo._path_length(S, N)
        n = 2 * B + 1
        hs = sorted({1, max(B - 1, 1), B, B + 1, n})
        mu = rng.dirichlet(np.ones(S))
        counts = simulate_edge_counts(kernel, n, N, S, mu=mu, at=hs)
        for h, c in zip(hs, counts):
            np.testing.assert_array_equal(c.sum(axis=(1, 2)), h)
            occupation = sum(mu @ np.linalg.matrix_power(P, t)
                             for t in range(h))
            exact = occupation[:, None] * P
            # the sample variance, floored at the mean count for rare cells
            se = np.sqrt(np.maximum(c.var(axis=0), exact) / N)
            assert np.all(np.abs(c.mean(axis=0) - exact) <= 5 * se)

    @pytest.mark.parametrize("S", [2, 3, 5, 8])
    def test_draw_boundary_edges(self, S):
        # the last edge of the first draw (B - 1 -> B) and the first of the
        # second (B -> B + 1) each have the stationary edge law pi_i P_ij
        rng = np.random.default_rng(10 + S)
        kernel, N = _sparse_kernel(rng, S), 8000
        B = montecarlo._path_length(S, N)
        assert B > 1
        counts = simulate_edge_counts(kernel, B + 1, N, S,
                                      at=[B - 1, B, B + 1])
        q = kernel.pi[:, None] * kernel.P
        for edge in np.diff(counts, axis=0):
            freq = edge.mean(axis=0)
            assert np.all(np.abs(freq - q) <= 5 * np.sqrt(q * (1 - q) / N))

    @settings(max_examples=60, deadline=None)
    @given(S=st.sampled_from([2, 3, 4, 5, 8]), zeros=st.floats(0.2, 0.8),
           n=st.integers(1, 30), N=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_no_count_on_zero_edges(self, S, zeros, n, N, seed):
        rng = np.random.default_rng(seed)
        kernel = _sparse_kernel(rng, S, zeros)
        hs = sorted({int(h) for h in rng.integers(1, n + 1, size=3)} | {n})
        counts = simulate_edge_counts(kernel, n, N, seed % 1000, at=hs)
        assert not counts[..., kernel.P == 0].any()
        for h, c in zip(hs, counts):
            np.testing.assert_array_equal(c.sum(axis=(1, 2)), h)

    @pytest.mark.parametrize("seed", range(4))
    def test_discrete_moments(self, seed):
        # Y at horizons off the draw grid, on a sparse kernel
        spec = random_mixed_spec(seed, 1)
        S, paths = spec.n_states, 8000
        kernel = _sparse_kernel(np.random.default_rng(seed), S)
        spec = MapSpec(kernel=kernel, increments=spec.increments)
        C = montecarlo._atom_lookup(spec)[0].shape[1]   # (successor, atom)
        B = montecarlo._path_length(C, paths)
        hs = [1, B + 1, 2 * B + 1]
        for batch in simulate_discrete(spec, hs[-1], paths, 5, at=hs):
            m1, m2, m3, m4 = (exact_moments(spec, batch.horizon, k)
                              for k in range(1, 5))
            var = m2 - m1 ** 2
            mu4 = m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4
            y = batch.terminal_Y[:, 0]
            assert abs(y.mean() - m1) <= 5 * np.sqrt(var / paths)
            assert abs(y.var() - var) <= 5 * np.sqrt((mu4 - var ** 2) / paths)


class TestLongAtomRun:
    """A 1000-atom mixture edge on 32 states: the path table's rows stay the
    S states, so it has S^2 A entries where a chain on (state, atom) pairs
    would step an (S A)^2 matrix."""

    @staticmethod
    def _spec():
        rng = np.random.default_rng(0)
        S = 32
        kernel = StochasticKernel(states=tuple(range(S)),
                                  P=random_kernel(rng, S))
        incs = {(i, j): deterministic(rng.normal(size=1))
                for i in range(S) for j in range(S)}
        incs[0, 1] = mixture(list(zip(rng.dirichlet(np.ones(1000)),
                                      rng.normal(size=(1000, 1)))))
        spec = MapSpec(kernel=kernel, increments=incs)
        spec.pi, spec.edge_table            # built before any trace
        return spec

    def test_memory_and_mean(self):
        spec = self._spec()
        tracemalloc.start()
        try:
            Y = simulate_discrete(spec, 64, 1000, 1).terminal_Y[:, 0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 << 20
        m1, m2 = (exact_moments(spec, 64, k) for k in (1, 2))
        assert abs(Y.mean() - m1) <= 5 * np.sqrt((m2 - m1 ** 2) / 1000)

    def test_nothing_held_after_call(self):
        # no table of the call stays resident once its batch is dropped
        spec = self._spec()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate_discrete(spec, 64, 1000, 1)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before <= 1 << 20
