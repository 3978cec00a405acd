import pytest

from tracing import LAYERS, Tracer


def test_self_time_on_nested_spans():
    # cauchy [0, 100] calls special [10, 40] which calls quadrature [15, 25];
    # cauchy then calls itself [50, 90], and that call uses algebra [60, 70].
    t = Tracer()
    outer = t.add_span("cauchy.reconstruct_ab_variants", 0, 100)
    special = t.add_span("special.hyp2f1_symmetric", 10, 40, outer)
    t.add_span("quadrature.gauss_jacobi_rule", 15, 25, special)
    inner = t.add_span("cauchy.kernel_phi", 50, 90, outer)
    t.add_span("algebra.Multivector.__mul__", 60, 70, inner)

    times = t.layer_times(items_only=False)
    ns = 1e-9
    calls = {layer: c for layer, (c, _, _) in times.items()}
    assert calls == {"algebra": 1, "special": 1, "quadrature": 1, "fields": 0,
                     "planewave": 0, "cauchy": 2, "cli": 0}
    # Total time counts the outermost cauchy span only; self time is total
    # minus the spans of other layers below it: 100 - 30 - 10.
    assert times["cauchy"][1] == pytest.approx(100 * ns)
    assert times["cauchy"][2] == pytest.approx(60 * ns)
    assert times["special"][1:] == pytest.approx((30 * ns, 20 * ns))
    assert times["quadrature"][1:] == pytest.approx((10 * ns, 10 * ns))
    assert times["algebra"][1:] == pytest.approx((10 * ns, 10 * ns))
    # Self times partition the traced wall time.
    assert sum(s for _, _, s in times.values()) == pytest.approx(100 * ns)


def test_layer_reentry_counts_total_once():
    # fields -> algebra -> fields: the inner fields span is not outermost.
    t = Tracer()
    a = t.add_span("fields.AxialField.value_at", 0, 50)
    b = t.add_span("algebra.embed_vector", 5, 45, a)
    t.add_span("fields.ExpLinear.value", 10, 30, b)
    times = t.layer_times(items_only=False)
    assert times["fields"][1] == pytest.approx(50e-9)
    assert times["fields"][2] == pytest.approx(30e-9)
    assert times["algebra"][1:] == pytest.approx((40e-9, 20e-9))


def test_items_only_excludes_setup_spans():
    t = Tracer()
    t.add_span("quadrature.sphere_rule", 0, 10)
    t.item = 0
    t.add_span("quadrature.sphere_rule", 20, 25)
    assert t.layer_times(items_only=True)["quadrature"] == pytest.approx((1, 5e-9, 5e-9))
    assert t.layer_times(items_only=False)["quadrature"][0] == 2


def test_span_names_must_name_a_layer():
    with pytest.raises(ValueError):
        Tracer().intern("rng.SplitMix64.uniform")
    assert "rng" not in LAYERS


def test_install_rebinds_copies_and_uninstall_restores():
    import numpy as np

    import biaxial
    import biaxial.cauchy as cauchy
    import biaxial.quadrature as quadrature
    import biaxial.special as special

    originals = (special.hyp2f1_symmetric, cauchy.hyp2f1_symmetric,
                 quadrature.gauss_jacobi_rule, biaxial.sphere_rule,
                 biaxial.Multivector.__mul__)
    t = Tracer()
    t.install()
    try:
        assert cauchy.hyp2f1_symmetric is special.hyp2f1_symmetric
        assert cauchy.hyp2f1_symmetric is not originals[0]
        assert biaxial.sphere_rule is quadrature.sphere_rule
        t.item = 0
        special.hyp2f1_symmetric(2.0, 0.5, np.array([0.2, 0.7, 0.9]))
    finally:
        t.uninstall()
    assert (special.hyp2f1_symmetric, cauchy.hyp2f1_symmetric,
            quadrature.gauss_jacobi_rule, biaxial.sphere_rule,
            biaxial.Multivector.__mul__) == originals

    names = [t.names[i] for i in t.span_name]
    assert names == ["special.hyp2f1_symmetric", "quadrature.gauss_jacobi_rule"]
    assert list(t.span_parent) == [-1, 0]
    items = t.counts["items"]
    assert items["special.hyp2f1.calls"] == 1
    assert items["special.hyp2f1.z"] == 3
    assert items["special.hyp2f1.euler_z"] == 2
    assert items["special.hyp2f1.euler_rules"] == 1


def test_traced_fields_route_boundary_values_through_a_and_b():
    import numpy as np

    import biaxial.fields as fields

    t = Tracer()
    t.install()
    try:
        field = fields.constant_field(2, 2)
        t.item = 0
        field.boundary_value(np.array([0.6, 0.0, 0.8, 0.0]))
    finally:
        t.uninstall()
    items = t.counts["items"]
    assert items["fields.boundary_samples"] == 1
    assert items["fields.ab_calls"] == 2
    assert items["fields.ab_points"] == 2
