import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import cset

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def three_class_row():
    # One row already in sorted order, the workhorse hand fixture.
    return cset.ScoreMatrix(
        np.array([[0.5, 0.3, 0.2]]), np.array([0]), "probabilities"
    )


@pytest.fixture
def three_class_sorted(three_class_row):
    return cset.sort_scores(three_class_row, seed=0)


def dirichlet_matrix(n, k, seed, concentration=None):
    """Small synthetic probability matrix for tests that need realistic rows."""
    spec = cset.SynthSpec(
        n=n,
        n_classes=k,
        concentration=0.0 if concentration is None else concentration,
        seed=seed,
    )
    _, observed = cset.generate(spec)
    return observed


LOGIT_SHAPES = ("gaussian", "row_shifted", "underflow")


@st.composite
def logit_matrices(draw):
    """Logits with n 1-300 and K 2-50: Gaussian, shifted by a constant per
    row, or with every non-max entry underflowing to 0 at T=0.05."""
    shape = draw(st.sampled_from(LOGIT_SHAPES))
    n = draw(st.integers(1, 300))
    k = draw(st.integers(2, 50))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = g.normal(0.0, draw(st.sampled_from([0.5, 3.0, 10.0])), size=(n, k))
    if shape == "row_shifted":
        z += g.uniform(-500.0, 500.0, size=(n, 1))
    elif shape == "underflow":
        # a gap of at least 60 makes every non-max entry exp(<= -1200) = 0.0
        # at T=0.05
        z[np.arange(n), g.integers(0, k, n)] = z.max(axis=1) + 60.0
    return cset.ScoreMatrix(z, g.integers(0, k, n), "logits")
