import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maplab.errors import MomentUndefined
from maplab.fixtures import ct_two_state, skewed_mixture, two_state
from maplab.increments import deterministic
from maplab.io import (FormatError, ct_spec_from_dict, ct_spec_to_dict,
                       kernel_from_dict, kernel_to_dict, load_problem,
                       load_spec,
                       map_spec_from_dict, map_spec_to_dict, write_csv,
                       write_report, write_samples)
from maplab.map_model import exact_mean

from conftest import (OracleSpec, oracle_law_from_dict,
                      oracle_spec_from_dict, oracle_stationary_step_mean,
                      per_kind_mean, random_mixed_spec, random_spec_document)


class TestKernelFormat:
    def test_round_trip(self, two_state):
        doc = kernel_to_dict(two_state.kernel)
        back = kernel_from_dict(doc)
        np.testing.assert_allclose(back.P, two_state.P)
        assert back.states == two_state.kernel.states

    def test_pi_cross_check(self, two_state):
        doc = kernel_to_dict(two_state.kernel)
        doc["pi"] = [0.5, 0.5]
        with pytest.raises(FormatError):
            kernel_from_dict(doc)

    def test_missing_field(self):
        with pytest.raises(FormatError):
            kernel_from_dict({"states": [0, 1]})


class TestMapSpecFormat:
    def test_round_trip_deterministic(self, two_state):
        doc = map_spec_to_dict(two_state)
        back = map_spec_from_dict(doc)
        np.testing.assert_allclose(back.P, two_state.P)
        for e, law in two_state.increments.items():
            np.testing.assert_allclose(back.increments[e].mean, law.mean)
        # centered=True round-trips to an already-centered spec: re-centering
        # must be a no-op
        assert back.centered

    def test_round_trip_mixture_and_gaussian(self):
        spec = skewed_mixture()
        back = map_spec_from_dict(map_spec_to_dict(spec))
        for z in (0.0, 0.5, -1.3):
            for e in spec.increments:
                assert back.increments[e].cf(z) == pytest.approx(
                    spec.increments[e].cf(z))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
    def test_centered_must_be_boolean(self, two_state, ct_two_state, flag):
        for load, doc in ((map_spec_from_dict, map_spec_to_dict(two_state)),
                          (ct_spec_from_dict, ct_spec_to_dict(ct_two_state))):
            with pytest.raises(FormatError, match="centered"):
                load({**doc, "centered": flag})

    @pytest.mark.parametrize("state", [1.0, "1", None, 2 ** 70, [1]])
    def test_state_index_not_an_integer(self, two_state, state):
        doc = map_spec_to_dict(two_state)
        doc["increments"] = [{**e, "to": state} if e["to"] == 1 else e
                             for e in doc["increments"]]
        with pytest.raises(FormatError):
            map_spec_from_dict(doc)

    def test_unknown_kind(self, two_state):
        doc = map_spec_to_dict(two_state)
        doc["increments"][0]["kind"] = "levy"
        with pytest.raises(FormatError):
            map_spec_from_dict(doc)


class TestIncrementShapes:
    """A numeric increment field of the wrong shape is a FormatError."""

    @pytest.mark.parametrize("law, bad", [
        ({"kind": "deterministic", "value": [1.0, 2.0]}, "value"),
        ({"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0]]}, "mean"),
        ({"kind": "gaussian", "mean": [0.0], "cov": [1.0, 0.0]}, "cov"),
        ({"kind": "gaussian", "mean": [0.0], "cov": [["a"]]}, "cov"),
        ({"kind": "mixture", "atoms": [{"p": 0.5, "value": [1.0]},
                                       {"p": 0.5, "value": []}]}, "value"),
    ])
    def test_wrong_shape(self, two_state, law, bad):
        doc = map_spec_to_dict(two_state)
        doc["increments"][0] = {"from": 0, "to": 0, **law}
        with pytest.raises(FormatError, match=repr(bad)):
            map_spec_from_dict(doc)

    def test_d2_fields_round_trip(self):
        doc = {"kernel": {"states": [0], "P": [[1.0]]}, "d": 2,
               "increments": [{"from": 0, "to": 0, "kind": "gaussian",
                               "mean": [1.0, -1.0],
                               "cov": [[2.0, 0.5], [0.5, 1.0]]}]}
        law = map_spec_from_dict(doc).increments[(0, 0)]
        np.testing.assert_array_equal(law.cov[0], [[2.0, 0.5], [0.5, 1.0]])
        assert map_spec_to_dict(map_spec_from_dict(doc))["increments"] == \
            doc["increments"]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestAtomTableOracle:
    """A spec file parsed straight into the atom table, and a law mapping
    compiled into it, give the bytes of the per-law lifecycle (conftest's
    oracle_spec_from_dict): content hash, every edge_table array, the edge
    means, exact_mean, moment_matrices and the increments view."""

    @staticmethod
    def _check(spec, want, d):
        assert spec.content_hash == want.content_hash
        for key, arr in want.edge_table.items():
            assert _same(spec.edge_table[key], arr), key
        assert _same(exact_mean(spec), oracle_stationary_step_mean(
            want.kernel, want.increments, d))
        assert _same(spec.edge_mean_matrix(), want.edge_mean_matrix())
        if d == 1:
            assert _same(spec.moment_matrices, want.moment_matrices)
        else:
            for s in (spec, want):
                with pytest.raises(MomentUndefined):
                    s.moment_matrices
        assert list(spec.increments) == list(want.increments)
        for e, law in want.increments.items():
            got = spec.increments[e]
            assert got.kind == law.kind and got.d == law.d
            for name in ("prob", "mean", "cov"):
                assert _same(getattr(got, name), getattr(law, name)), name

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 8, 32]),
           st.integers(1, 2), st.booleans())
    def test_equal_per_law_lifecycle(self, seed, S, d, centered):
        from maplab.map_model import MapSpec
        doc = random_spec_document(seed, S, d, centered)
        want = oracle_spec_from_dict(doc)
        self._check(map_spec_from_dict(doc), want, d)
        # a mapping may also hold laws for pairs off the support
        laws = {(e["from"], e["to"]): oracle_law_from_dict(e, d)
                for e in doc["increments"]}
        laws.update({(int(i), int(j)): deterministic([1.5] * d)
                     for i, j in zip(*np.nonzero(want.P == 0))})
        self._check(MapSpec(kernel=want.kernel, increments=laws, d=d,
                            centered=centered),
                    OracleSpec(kernel=want.kernel, increments=laws, d=d,
                               centered=centered), d)


class TestCtFormat:
    def test_round_trip(self, ct_two_state):
        back = ct_spec_from_dict(ct_spec_to_dict(ct_two_state))
        np.testing.assert_allclose(back.generator, ct_two_state.generator)
        np.testing.assert_allclose(back.reward, ct_two_state.reward)

    def test_jump_increments_preserved(self):
        from maplab.map_model import CtMapSpec
        ct = CtMapSpec(generator=np.array([[-1.0, 1.0], [2.0, -2.0]]),
                       reward=np.array([0.0, 0.0]),
                       jump_increments=np.array([[0.0, 1.0], [2.0, 0.0]]))
        back = ct_spec_from_dict(ct_spec_to_dict(ct))
        np.testing.assert_allclose(back.jump_increments, ct.jump_increments)


class TestLoadSpec:
    def test_dispatch(self, tmp_path, two_state, ct_two_state):
        from maplab.map_model import CtMapSpec, MapSpec
        from maplab.chain_core import StochasticKernel
        p1 = tmp_path / "map.json"
        p1.write_text(json.dumps(map_spec_to_dict(two_state)))
        p2 = tmp_path / "ct.json"
        p2.write_text(json.dumps(ct_spec_to_dict(ct_two_state)))
        p3 = tmp_path / "kernel.json"
        p3.write_text(json.dumps(kernel_to_dict(two_state.kernel)))
        assert isinstance(load_spec(str(p1)), MapSpec)
        assert isinstance(load_spec(str(p2)), CtMapSpec)
        assert isinstance(load_spec(str(p3)), StochasticKernel)

    @staticmethod
    def _count_laws(monkeypatch):
        from maplab.increments import IncrementLaw
        calls = []
        real = IncrementLaw.__init__
        monkeypatch.setattr(IncrementLaw, "__init__",
                            lambda law, *run: calls.append(1)
                            or real(law, *run))
        return calls

    def test_centered_file_builds_no_law(self, tmp_path, monkeypatch):
        # the file is parsed into the atom table and centred there; laws
        # are built only when the increments view is read
        spec = random_mixed_spec(0, d=1)
        assert {law.kind for law in spec.increments.values()} == {
            "deterministic", "gaussian", "mixture"}
        doc = map_spec_to_dict(spec)
        doc["centered"] = True
        path = tmp_path / "centered.json"
        path.write_text(json.dumps(doc))
        calls = self._count_laws(monkeypatch)
        loaded = load_spec(str(path))
        assert calls == []
        m = exact_mean(spec)
        assert abs(m[0]) > 1e-3 and abs(exact_mean(loaded)[0]) < 1e-12
        for e, law in loaded.increments.items():
            assert law.kind == spec.increments[e].kind
            np.testing.assert_allclose(per_kind_mean(law),
                                       per_kind_mean(spec.increments[e]) - m,
                                       rtol=0, atol=1e-14)
            assert not any(a.flags.writeable
                           for a in (law.prob, law.mean, law.cov))
        assert not any(a.flags.writeable
                       for a in loaded.edge_table.values())

    def test_sparse_s32_file_builds_no_law(self, tmp_path, monkeypatch):
        # a ring with self-loops and chords, 4 successors per state, every
        # law kind; loading, hashing and the spectral tables build no law
        from maplab.fourier import nonlattice_scan
        from maplab.map_model import variance_series
        rng = np.random.default_rng(32)
        S, incs = 32, []
        P = np.zeros((S, S))
        for i in range(S):
            cols = sorted({i, (i + 1) % S, *rng.choice(S, 2).tolist()})
            P[i, cols] = rng.dirichlet(np.ones(len(cols)))
            for j in cols:
                incs.append({"from": i, "to": j, **[
                    {"kind": "deterministic", "value": [float(j % 3)]},
                    {"kind": "gaussian", "mean": [rng.normal()],
                     "cov": [[1.0]]},
                    {"kind": "mixture", "atoms": [
                        {"p": 0.25, "value": [-1.0]},
                        {"p": 0.75, "value": [rng.normal()]}]}][j % 3]})
        path = tmp_path / "s32.json"
        path.write_text(json.dumps({
            "kernel": {"states": list(range(S)), "P": P.tolist()},
            "increments": incs, "centered": True}))
        calls = self._count_laws(monkeypatch)
        spec = load_spec(str(path))
        spec.content_hash, spec.moment_matrices
        variance_series(spec)
        nonlattice_scan(spec, np.linspace(0.1, 3.0, 5))
        assert calls == [] and abs(exact_mean(spec)[0]) < 1e-12
        assert len(spec.edge_table["rows"]) == len(incs)
        assert len(spec.increments) == len(incs) and len(calls) == len(incs)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"foo": 1}))
        with pytest.raises(FormatError):
            load_spec(str(p))


class TestLoadProblem:
    """Malformed problem files raise FormatError before any problem is built."""

    @staticmethod
    def _doc(**changes):
        from maplab.fixtures import mean_contrast_kernel
        doc = {"family": "mean_contrast", "xi": [[0.0, 1.0], [0.0, 1.0]],
               "kernels": {"1.0": kernel_to_dict(mean_contrast_kernel(1.0))}}
        doc.update(changes)
        return {k: v for k, v in doc.items() if v is not None}

    def test_valid_file(self, tmp_path):
        p = tmp_path / "problem.json"
        p.write_text(json.dumps(self._doc()))
        problem, doc = load_problem(str(p))
        assert problem.thetas == [1.0] and doc == self._doc()

    @pytest.mark.parametrize("case", ["missing xi", "theta key", "nan key",
                                      "xi shape", "kernel sizes",
                                      "kernels list", "family"])
    def test_malformed(self, tmp_path, case):
        kernel = self._doc()["kernels"]["1.0"]
        three = {"states": [0, 1, 2], "P": [[1 / 3] * 3] * 3}
        doc = {"missing xi": self._doc(xi=None),
               "theta key": self._doc(kernels={"abc": kernel}),
               "nan key": self._doc(kernels={"nan": kernel}),
               "xi shape": self._doc(xi=[[0.0, 1.0, 2.0]]),
               "kernel sizes": self._doc(kernels={"1.0": kernel,
                                                  "1.2": three}),
               "kernels list": self._doc(kernels=[kernel]),
               "family": self._doc(family="other")}[case]
        p = tmp_path / "problem.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_problem(str(p))


class TestReportWriting:
    def test_deterministic_bytes(self, tmp_path):
        report = {"b": 2, "a": np.float64(1.5), "arr": np.arange(3),
                  "flag": np.bool_(True)}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(str(p1), report)
        write_report(str(p2), report)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sorted_keys_and_valid_json(self, tmp_path):
        p = tmp_path / "r.json"
        write_report(str(p), {"z": 1, "a": 2})
        doc = json.loads(p.read_text())
        assert list(doc) == ["a", "z"]

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(str(p), ["x", "y"], [(1, 0.5), (2, 0.25)])
        lines = p.read_text().splitlines()
        assert lines[0] == "x,y"
        assert float(lines[1].split(",")[1]) == 0.5

    def test_samples_binary(self, tmp_path):
        p = tmp_path / "s.bin"
        values = np.array([1.0, -2.5, 3.25])
        write_samples(str(p), values, {"seed": 7})
        raw = np.frombuffer(p.read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw, values)
        meta = json.loads((tmp_path / "s.bin.json").read_text())
        assert meta["count"] == 3 and meta["seed"] == 7
