"""The linalg backend layer: registry, agreement and provenance.

Three contracts are locked down here:

* the **registry** — names, capability flags, and useful errors for
  unknown/unavailable backends;
* **scipy is the pre-backend code path** — factors and resistance
  sketches through ``backend="scipy"`` are bit-identical to calling
  the underlying :mod:`repro.linalg` routines directly, which is what
  the code did before the backend layer existed;
* **numpy agrees with scipy within numerical tolerance** — tight at
  the kernel level (solves, sketches), and at equal edge budget with
  comparable quality end to end (fp noise may flip borderline ranks,
  so masks are compared by overlap, not equality).
"""

import numpy as np
import pytest

from repro import evaluate_sparsifier, sparsify
from repro.backends import (
    BACKEND_CAPABILITY_FLAGS,
    DEFAULT_BACKEND,
    ScipyBackend,
    available_backends,
    backend_capabilities,
    check_backend,
    get_backend,
    list_backends,
)
from repro.core.er_sampling import approximate_effective_resistances
from repro.exceptions import BackendError
from repro.graph import regularization_shift, regularized_laplacian
from repro.graph.laplacian import incidence_matrix
from repro.linalg.cholesky import cholesky


class TestRegistry:
    def test_registered_names(self):
        assert list_backends() == ("cholmod", "numpy", "scipy")
        assert DEFAULT_BACKEND == "scipy"

    def test_scipy_and_numpy_always_available(self):
        assert {"numpy", "scipy"} <= set(available_backends())

    def test_get_backend_returns_cached_instance(self):
        assert get_backend("scipy") is get_backend("scipy")
        assert get_backend() is get_backend("scipy")

    def test_unknown_backend_raises_backend_error(self):
        with pytest.raises(BackendError, match="unknown linalg backend"):
            check_backend("blas9000")
        # BackendError doubles as ValueError for generic option handling.
        with pytest.raises(ValueError):
            get_backend("blas9000")

    def test_unknown_backend_rejected_at_sparsify(self, small_grid):
        with pytest.raises(BackendError, match="blas9000"):
            sparsify(small_grid, method="er_sampling", backend="blas9000")

    def test_unavailable_backend_raises_with_alternatives(self):
        if "cholmod" in available_backends():
            pytest.skip("scikit-sparse installed; cholmod is available")
        with pytest.raises(BackendError, match="not available"):
            get_backend("cholmod")

    def test_capability_flags_complete(self):
        capabilities = backend_capabilities()
        assert set(capabilities) == set(list_backends())
        for flags in capabilities.values():
            assert set(flags) == set(BACKEND_CAPABILITY_FLAGS)
            assert all(isinstance(v, bool) for v in flags.values())

    def test_scipy_compiled_numpy_persistent(self):
        capabilities = backend_capabilities()
        assert capabilities["scipy"]["compiled_factorization"]
        assert not capabilities["scipy"]["persistent_factors"]
        assert not capabilities["numpy"]["compiled_factorization"]
        assert capabilities["numpy"]["persistent_factors"]


@pytest.fixture(scope="module")
def regularized(small_grid_module):
    graph = small_grid_module
    shift = regularization_shift(graph, 1e-6)
    return graph, regularized_laplacian(graph, shift)


@pytest.fixture(scope="module")
def small_grid_module():
    from repro.graph import grid2d

    return grid2d(14, 14, weights="uniform", seed=21)


class TestScipyIsPrePRPath:
    """backend="scipy" must equal the direct repro.linalg calls bitwise."""

    def test_factor_bits_match_direct_cholesky(self, regularized):
        _, laplacian = regularized
        direct = cholesky(laplacian)
        via_backend = ScipyBackend().factorize(laplacian)
        np.testing.assert_array_equal(direct.perm, via_backend.perm)
        np.testing.assert_array_equal(
            direct.L.toarray(), via_backend.L.toarray()
        )

    def test_solve_bits_match_direct_cholesky(self, regularized):
        graph, laplacian = regularized
        b = np.random.default_rng(5).standard_normal(graph.n)
        direct = cholesky(laplacian).solve(b)
        via_backend = ScipyBackend().factorize(laplacian).solve(b)
        np.testing.assert_array_equal(direct, via_backend)

    def test_er_sketch_bits_match_pre_backend_loop(self, regularized):
        """The Spielman-Srivastava sketch through the backend replays
        the pre-backend inline loop exactly: same RNG draws, same
        solve per row, same resistances bit for bit."""
        graph, laplacian = regularized
        sketch_size = 32
        via_backend = approximate_effective_resistances(
            graph, sketch_size=sketch_size, seed=7,
            backend=get_backend("scipy"),
        )
        # The loop exactly as er_sampling.py had it before the layer.
        rng = np.random.default_rng(7)
        factor = cholesky(laplacian)
        incidence = incidence_matrix(graph, weighted=True)
        sketch = np.empty((sketch_size, graph.n))
        scale = 1.0 / np.sqrt(sketch_size)
        for i in range(sketch_size):
            q = rng.choice((-scale, scale), size=graph.edge_count)
            sketch[i] = factor.solve(incidence.T @ q)
        diffs = sketch[:, graph.u] - sketch[:, graph.v]
        pre_backend = np.sum(diffs * diffs, axis=0)
        np.testing.assert_array_equal(via_backend, pre_backend)

    def test_default_config_equals_explicit_scipy(self, small_grid_module):
        default = sparsify(
            small_grid_module, method="proposed",
            edge_fraction=0.10, rounds=2,
        )
        explicit = sparsify(
            small_grid_module, method="proposed",
            edge_fraction=0.10, rounds=2, backend="scipy",
        )
        np.testing.assert_array_equal(default.edge_mask, explicit.edge_mask)


class TestNumpyAgreesWithScipy:
    def test_factor_solves_agree(self, regularized):
        graph, laplacian = regularized
        b = np.random.default_rng(9).standard_normal(graph.n)
        x_scipy = get_backend("scipy").factorize(laplacian).solve(b)
        x_numpy = get_backend("numpy").factorize(laplacian).solve(b)
        np.testing.assert_allclose(x_numpy, x_scipy, rtol=0, atol=1e-8)

    def test_effective_resistances_agree(self, small_grid_module):
        r_scipy = approximate_effective_resistances(
            small_grid_module, seed=3, backend=get_backend("scipy")
        )
        r_numpy = approximate_effective_resistances(
            small_grid_module, seed=3, backend=get_backend("numpy")
        )
        np.testing.assert_allclose(r_numpy, r_scipy, rtol=1e-9)

    def test_sketch_consumes_identical_rng_stream(self, regularized):
        """Both backends must draw the same probes in the same order —
        the warm-cache RNG-state contract depends on it."""
        graph, laplacian = regularized
        states = []
        for name in ("scipy", "numpy"):
            backend = get_backend(name)
            rng = np.random.default_rng(13)
            backend.sketch_matvecs(
                backend.factorize(laplacian),
                incidence_matrix(graph, weighted=True), 8, rng,
            )
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

    @pytest.mark.parametrize("method", ["proposed", "grass"])
    def test_end_to_end_quality_parity(self, small_grid_module, method):
        """Same edge budget, nearly the same selection, and kappa in
        the same ballpark — fp noise may flip borderline ranks, so the
        masks are compared by overlap rather than equality."""
        graph = small_grid_module
        options = {"edge_fraction": 0.10, "rounds": 3}
        result = {
            name: sparsify(graph, method=method, backend=name, **options)
            for name in ("scipy", "numpy")
        }
        assert result["scipy"].edge_count == result["numpy"].edge_count
        overlap = (
            result["scipy"].edge_mask & result["numpy"].edge_mask
        ).sum() / result["scipy"].edge_mask.sum()
        assert overlap >= 0.90
        kappa = {
            name: evaluate_sparsifier(graph, r.sparsifier, seed=2).kappa
            for name, r in result.items()
        }
        ratio = kappa["scipy"] / kappa["numpy"]
        assert 0.75 <= ratio <= 1.33, kappa


class TestProvenance:
    def test_run_record_environment_names_backend(self, small_grid_module):
        from repro.api import SparsifierSession

        session = SparsifierSession(small_grid_module, label="grid")
        record = session.run(
            "er_sampling", evaluate=False, backend="numpy",
        )
        assert record.environment["backend"] == "numpy"
        flags = record.environment["backend_capabilities"]
        assert flags["persistent_factors"] is True

    def test_methods_registry_surfaces_backend_option(self):
        from repro.api.registry import get_method, list_methods

        for name in list_methods():
            assert "backend" in get_method(name).options()
