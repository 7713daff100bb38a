"""Unit tests for the publication models."""

import numpy as np
import pytest

from repro.workload import (
    GaussianMixture1D,
    MixturePublicationModel,
    PreliminaryPublicationModel,
    UniformLattice,
    four_mode_mixture,
    nine_mode_mixture,
    single_mode_mixture,
)


class TestMixtureDefinitions:
    def test_single_mode_parameters(self):
        mix = single_mode_mixture()
        assert len(mix) == 4
        assert mix[0].mus[0] == 1 and mix[0].sigmas[0] == 1
        assert mix[1].mus[0] == 10 and mix[1].sigmas[0] == 6
        assert mix[2].mus[0] == 9 and mix[2].sigmas[0] == 2
        assert mix[3].mus[0] == 9 and mix[3].sigmas[0] == 6

    def test_four_mode_structure(self):
        mix = four_mode_mixture()
        assert mix[1].n_components == 2
        assert mix[2].n_components == 2
        assert mix[0].n_components == 1
        assert mix[3].n_components == 1

    def test_nine_mode_structure(self):
        mix = nine_mode_mixture()
        assert mix[1].n_components == 3
        assert mix[2].n_components == 3
        np.testing.assert_allclose(mix[1].weights, [0.3, 0.4, 0.3])


class TestMixturePublicationModel:
    @pytest.fixture(scope="class")
    def model(self, small_topology):
        return MixturePublicationModel(small_topology, single_mode_mixture())

    def test_events_on_lattice(self, model, rng):
        events = model.sample(rng, 200)
        assert len(events) == 200
        for event in events:
            assert len(event.point) == 4
            for dim, value in zip(model.space.dimensions, event.point):
                assert dim.lo <= value <= dim.hi
                assert float(value).is_integer()

    def test_publishers_are_stub_nodes(self, model, small_topology, rng):
        stub_nodes = set(small_topology.stub_nodes())
        for event in model.sample(rng, 100):
            assert event.publisher in stub_nodes

    def test_cell_pmf_normalised(self, model):
        pmf = model.cell_pmf()
        assert pmf.shape == (model.space.n_cells,)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    def test_cell_pmf_matches_empirical(self, small_topology):
        model = MixturePublicationModel(small_topology, single_mode_mixture())
        pmf = model.cell_pmf()
        rng = np.random.default_rng(11)
        events = model.sample(rng, 100000)
        cells = model.space.locate_batch([event.point for event in events])
        counts = np.bincount(cells, minlength=model.space.n_cells).astype(float)
        empirical = counts / counts.sum()
        # compare on the cells holding the bulk of the mass
        heavy = pmf > 1e-3
        np.testing.assert_allclose(pmf[heavy], empirical[heavy], atol=4e-3)

    def test_four_mode_is_multimodal(self, small_topology, rng):
        model = MixturePublicationModel(small_topology, four_mode_mixture())
        events = model.sample(rng, 5000)
        dim2 = np.array([e.point[2] for e in events])
        low = (dim2 <= 8).mean()
        high = (dim2 > 8).mean()
        assert 0.3 < low < 0.7 and 0.3 < high < 0.7

    def test_mixture_count_validation(self, small_topology):
        with pytest.raises(ValueError):
            MixturePublicationModel(
                small_topology, single_mode_mixture()[:2]
            )


class TestPreliminaryPublicationModel:
    @pytest.fixture(scope="class")
    def model(self, small_topology):
        return PreliminaryPublicationModel(
            small_topology, [UniformLattice()] * 3
        )

    def test_regional_attribute_is_publisher_stub(
        self, model, small_topology, rng
    ):
        for event in model.sample(rng, 200):
            assert event.point[0] == small_topology.stub_of[event.publisher]

    def test_space_has_region_dimension(self, model, small_topology):
        assert model.space.dimensions[0].n_cells == small_topology.n_stubs

    def test_cell_pmf_region_marginal(self, model, small_topology):
        """Region marginal proportional to stub sizes."""
        pmf = model.cell_pmf().reshape(model.space.shape)
        marginal = pmf.sum(axis=(1, 2, 3))
        sizes = np.array([len(s) for s in small_topology.stubs], float)
        np.testing.assert_allclose(marginal, sizes / sizes.sum(), atol=1e-12)

    def test_gaussian_attributes(self, small_topology, rng):
        model = PreliminaryPublicationModel(
            small_topology, [GaussianMixture1D.single(10, 4)] * 3
        )
        events = model.sample(rng, 3000)
        values = np.array([e.point[1] for e in events])
        assert values.mean() == pytest.approx(10.0, abs=0.3)
        assert np.all((values >= 0) & (values <= 20))

    def test_distribution_count_validation(self, small_topology):
        with pytest.raises(ValueError):
            PreliminaryPublicationModel(small_topology, [UniformLattice()])
