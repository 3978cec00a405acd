import pytest


@pytest.fixture
def refuse_polar_rules(monkeypatch):
    """Make every sphere-rule polar factor raise, so an over-budget request
    that reaches allocation fails the test instead of allocating."""
    import biaxial.quadrature as quadrature

    real = quadrature.gauss_jacobi_rule

    def guarded(n, alpha):
        # alpha = 0 is the hemisphere theta rule, which stays small.
        assert alpha == 0.0, f"sphere_rule reached gauss_jacobi_rule({n}, {alpha})"
        return real(n, alpha)

    monkeypatch.setattr(quadrature, "gauss_jacobi_rule", guarded)
