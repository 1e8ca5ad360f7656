import contextlib
import io

import numpy as np

import tracing

import duffing_qubit.cli as cli
import duffing_qubit.rates as rates


def test_self_time_on_synthetic_tree():
    # 0 root [0, 10]; 1 child [1, 3]; 2 child [4, 8] with 3 grandchild [5, 6];
    # 4 child [9, 12] runs past its parent and is clipped to [9, 10]
    start = np.array([0.0, 1.0, 4.0, 5.0, 9.0])
    end = np.array([10.0, 3.0, 8.0, 6.0, 12.0])
    parent = np.array([-1, 0, 0, 2, 0])
    np.testing.assert_allclose(tracing.self_times(start, end, parent),
                               [3.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_sum_to_root_duration():
    start = np.array([0.0, 0.5, 0.6, 2.0, 2.5])
    end = np.array([4.0, 1.5, 1.0, 3.0, 2.75])
    parent = np.array([-1, 0, 1, 0, 3])
    assert np.isclose(tracing.self_times(start, end, parent).sum(), 4.0)


def test_install_wraps_import_time_bindings_and_uninstall_restores():
    original = rates.stationary_covariance
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert rates.stationary_covariance is not original
        assert cli.solve_attractors is not cli.solve_attractors.__wrapped__
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["spectrum", "--beta", "0.12", "--kappa-scaled", "0.3",
                             "--grid=-1:1:11"])
    finally:
        tracing.uninstall(undo)
    assert code == 0
    assert rates.stationary_covariance is original
    assert cli.solve_attractors is cli.__dict__["solve_attractors"]
    assert not hasattr(cli.solve_attractors, "__wrapped__")

    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names[0] == "cli.main" and a["parent"][0] == -1
    assert names.count("attractors.solve_attractors") == 1
    assert names.count("fluctuations.spectrum_matrix") == 22  # both routes, 11 points
    assert {"cli.build_parser", "cli.parse_args", "cli.emit_table"} <= set(names)
    assert np.all(a["end"] >= a["start"])

    m = tracing.layer_metrics(tracer, np.array([11.0]), [""])
    assert m["fluctuations.closed_form.points"] == 22
    assert m["cli.rows"] == 11 and m["cli.invocations"] == 1
    assert set(m) | {"cli.bytes_out", "trace.overhead_ratio"} == set(tracing.UNITS)
    own = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert np.isclose(own, a["end"][0] - a["start"][0])
