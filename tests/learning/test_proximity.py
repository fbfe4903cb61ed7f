"""Tests for MGP (Def. 3) and Theorem 1's properties, incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.parallel import build_index
from repro.learning.model import ProximityModel
from repro.learning.proximity import batch_mgp, batch_mgp_gradient
from repro.metagraph.catalog import MetagraphCatalog
from tests.oracles import mgp, mgp_from_vectors, mgp_gradient_from_vectors


def both_paths(vectors, w):
    """pi(x, y) from the dict-walking oracle and from the compiled model."""
    model = ProximityModel(w, vectors)
    return [lambda x, y: mgp(vectors, x, y, w), model.proximity]


@pytest.fixture
def toy_vectors(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    vectors, _ = build_index(toy_graph, catalog)
    return catalog, vectors


# strategy: consistent (m_xy, m_x, m_y, w) quadruples with m_xy <= min(m_x, m_y)
@st.composite
def vector_quadruple(draw, dim=4):
    m_x = np.array(draw(st.lists(st.integers(0, 10), min_size=dim, max_size=dim)), float)
    m_y = np.array(draw(st.lists(st.integers(0, 10), min_size=dim, max_size=dim)), float)
    caps = np.minimum(m_x, m_y).astype(int)
    m_xy = np.array(
        [draw(st.integers(0, int(c))) for c in caps], dtype=float
    )
    w = np.array(
        draw(
            st.lists(
                # subnormal weights underflow to exactly 0.0 under the
                # scale-invariance test's c*w, which breaks Theorem 1 at
                # the float boundary rather than in the implementation
                st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
                min_size=dim,
                max_size=dim,
            )
        )
    )
    return m_xy, m_x, m_y, w


class TestTheorem1:
    @given(vector_quadruple())
    @settings(max_examples=100, deadline=None)
    def test_range(self, quad):
        m_xy, m_x, m_y, w = quad
        pi = mgp_from_vectors(m_xy, m_x, m_y, w)
        assert 0.0 <= pi <= 1.0 + 1e-12

    @given(vector_quadruple())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, quad):
        m_xy, m_x, m_y, w = quad
        assert mgp_from_vectors(m_xy, m_x, m_y, w) == pytest.approx(
            mgp_from_vectors(m_xy, m_y, m_x, w)
        )

    @given(vector_quadruple(), st.floats(0.1, 100.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, quad, c):
        m_xy, m_x, m_y, w = quad
        assert mgp_from_vectors(m_xy, m_x, m_y, w) == pytest.approx(
            mgp_from_vectors(m_xy, m_x, m_y, c * w)
        )

    @given(vector_quadruple())
    @settings(max_examples=60, deadline=None)
    def test_self_maximum(self, quad):
        # pi(x, x) with m_xx == m_x is exactly 1 when m_x . w > 0
        _m_xy, m_x, _m_y, w = quad
        if m_x @ w > 0:
            assert mgp_from_vectors(m_x, m_x, m_x, w) == pytest.approx(1.0)

    def test_zero_denominator_defined_as_zero(self):
        z = np.zeros(3)
        assert mgp_from_vectors(z, z, z, np.ones(3)) == 0.0

    def test_self_proximity_via_store(self, toy_vectors):
        _catalog, vectors = toy_vectors
        for pi in both_paths(vectors, np.ones(4)):
            assert pi("Alice", "Alice") == 1.0

    def test_partial_transitivity_constructed(self):
        # classic witness: x close to y and z via the same structure
        m = np.array([4.0])
        m_pair_high = np.array([3.9])
        w = np.ones(1)
        pi_xy = mgp_from_vectors(m_pair_high, m, m, w)
        pi_xz = mgp_from_vectors(m_pair_high, m, m, w)
        assert pi_xy > 0.9 and pi_xz > 0.9


class TestToyGraphProximities:
    def test_family_weights_rank_family_first(self, toy_vectors):
        catalog, vectors = toy_vectors
        # weight only M4 (family square)
        from tests.conftest import fig2_metagraphs

        m4_id = catalog.id_of(fig2_metagraphs()["M4"])
        w = np.zeros(4)
        w[m4_id] = 1.0
        for pi in both_paths(vectors, w):
            assert pi("Bob", "Alice") > 0
            assert pi("Bob", "Tom") == 0.0

    def test_classmate_weights(self, toy_vectors):
        catalog, vectors = toy_vectors
        from tests.conftest import fig2_metagraphs

        m1_id = catalog.id_of(fig2_metagraphs()["M1"])
        w = np.zeros(4)
        w[m1_id] = 1.0
        for pi in both_paths(vectors, w):
            assert pi("Bob", "Tom") > 0
            assert pi("Kate", "Jay") > 0
            assert pi("Bob", "Alice") == 0.0


class TestGradients:
    @given(vector_quadruple())
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_finite_difference(self, quad):
        m_xy, m_x, m_y, w = quad
        w = w + 0.05  # keep away from the boundary / zero denominator
        if (m_x + m_y) @ w <= 0:
            return
        grad = mgp_gradient_from_vectors(m_xy, m_x, m_y, w)
        eps = 1e-6
        for i in range(len(w)):
            w_hi, w_lo = w.copy(), w.copy()
            w_hi[i] += eps
            w_lo[i] -= eps
            numeric = (
                mgp_from_vectors(m_xy, m_x, m_y, w_hi)
                - mgp_from_vectors(m_xy, m_x, m_y, w_lo)
            ) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, abs=1e-4)

    def test_zero_denominator_gradient_is_zero(self):
        z = np.zeros(3)
        grad = mgp_gradient_from_vectors(z, z, z, np.ones(3))
        assert np.array_equal(grad, np.zeros(3))

    def test_batch_consistency(self):
        rng = np.random.default_rng(0)
        n, d = 8, 5
        m_x = rng.integers(0, 6, (n, d)).astype(float)
        m_y = rng.integers(0, 6, (n, d)).astype(float)
        m_xy = np.minimum(m_x, m_y) * rng.uniform(0, 1, (n, d))
        w = rng.uniform(0.1, 1.0, d)
        batch = batch_mgp(m_xy, m_x, m_y, w)
        grads = batch_mgp_gradient(m_xy, m_x, m_y, w)
        for row in range(n):
            assert batch[row] == pytest.approx(
                mgp_from_vectors(m_xy[row], m_x[row], m_y[row], w)
            )
            assert grads[row] == pytest.approx(
                mgp_gradient_from_vectors(m_xy[row], m_x[row], m_y[row], w)
            )
