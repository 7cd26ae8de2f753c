"""Self-tests of the benchmark: the closed forms, the checks, the spans.

Each check is fed a report corrupted in one way and must fail on it, so a
passing benchmark run says something about the program's output.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json

import numpy as np
import pytest

import hodgeheat.cli
import hodgeheat.decomposition
import hodgeheat.interpolation
import hodgeheat.io

import checks
import spans
import torus

NX, NY = 4, 4


def _report(tmp_path, full):
    path = tmp_path / f"torus-{full}.json"
    doc = torus.input_document(NX, NY, seed=7)
    path.write_text(json.dumps(doc))
    config = hodgeheat.cli.RunConfig(input_path=str(path))
    if not full:
        config.p_list = ()
    report, code = hodgeheat.cli.run_pipeline(config)
    assert code == 0
    # The checks read the emitted JSON, so round-trip through it.
    return json.loads(hodgeheat.io.report_to_json(report)), doc["cochain"]["values"]


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("full"), True)


@pytest.fixture(scope="module")
def interval_report(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("interval"), False)


@pytest.mark.parametrize("nx, ny", [(4, 4), (5, 3), (6, 4)])
def test_closed_form_spectrum_matches_incidence_matrices(nx, ny):
    verts, edges, tris = torus.simplices(nx, ny)
    d0 = np.array(torus.incidence(verts, edges))
    d1 = np.array(torus.incidence(edges, tris))
    assert not np.any(d1 @ d0)
    lap = d0 @ d0.T + d1.T @ d1
    assert np.allclose(np.linalg.eigvalsh(lap), torus.degree1_spectrum(nx, ny), atol=1e-12)


def test_input_depends_on_seed_only():
    assert torus.input_document(4, 4, 3) == torus.input_document(4, 4, 3)
    assert torus.seeded_cochain(48, 3) != torus.seeded_cochain(48, 4)


def test_valid_reports_pass(full_report, interval_report):
    for (report, cochain), full in ((full_report, True), (interval_report, False)):
        assert checks.check_report(report, NX, NY, cochain, full) == []


def _harmonic_unit():
    verts, edges, tris = torus.simplices(NX, NY)
    d0 = np.array(torus.incidence(verts, edges))
    d1 = np.array(torus.incidence(edges, tris))
    _, _, vt = np.linalg.svd(np.vstack([d1, d0.T]))
    return vt[-1], d1  # a unit vector of the kernel, which is 2-dimensional


def _shift_harmonic(r):
    k, _ = _harmonic_unit()
    r["decomposition"]["omega3"] = list(np.add(r["decomposition"]["omega3"], 1e-3 * k))


def _non_closed_harmonic(r):
    """omega3 += delta y and omega2 -= y: parts still sum, omega3 is not closed."""
    _, d1 = _harmonic_unit()
    y = np.zeros(d1.shape[0])
    y[0] = 1e-3
    dec = r["decomposition"]
    dec["omega3"] = list(np.add(dec["omega3"], d1.T @ y))
    dec["omega2"] = list(np.subtract(dec["omega2"], y))


def _set(path, value):
    def corrupt(r):
        *head, last = path
        for key in head:
            r = r[key]
        r[last] = value(r[last]) if callable(value) else value
    return corrupt


def _bump(index, by):
    return lambda values: [v + by if i == index else v for i, v in enumerate(values)]


def _conjugate_p1(r):
    r["interval"]["p1"], r["interval"]["p2"] = 2.5, 2.5 / 1.5


def _gamma2(r):
    r["interval"]["gamma_of_p"] = [[p, g * (1 + 1e-6) if p == 2.0 else g]
                                   for p, g in r["interval"]["gamma_of_p"]]


def _bracket(r):
    row = r["interval"]["profile"][0]
    row["lower"] = row["upper"] * (1 + 1e-9) + 1e-12


CORRUPTIONS = {
    "harmonic part shifted along a kernel direction": (_shift_harmonic, "hodge: |parts - omega|"),
    "harmonic part not closed": (_non_closed_harmonic, "hodge: |d omega3|"),
    "exact part not d omega1": (_set(("decomposition", "omega1"), _bump(0, 1e-3)),
                                "hodge: |exact_part - d omega1|"),
    "coexact part not delta omega2": (_set(("decomposition", "coexact_part"), _bump(5, 1e-3)),
                                      "hodge: |coexact_part - delta omega2|"),
    "one eigenvalue moved by 1e-6": (_set(("spectrum", "eigenvalues"), _bump(20, 1e-6)),
                                     "spectrum: off the closed form"),
    "kernel dimension off by one": (_set(("spectrum", "kernel_dim"), 3), "spectrum: kernel_dim"),
    "gap moved": (_set(("spectrum", "gap"), lambda g: g * (1 + 1e-6)), "spectrum: gap"),
    "betti numbers off by one": (_set(("betti",), [1, 3, 1]), "topology: betti"),
    "simplex counts off": (_set(("complex", "counts"), _bump(2, 1)),
                           "topology: Euler characteristic"),
    "routes disagree": (_set(("uniqueness", "max_rel_diff"), 2e-6), "routes: A and B differ"),
    "tail bound above target": (_set(("uniqueness", "quadrature", "tail_bound"), 1.0),
                                "routes: tail bound"),
    "interval misses 2": (_conjugate_p1, "interval: ("),
    "p1 and p2 not conjugate": (_set(("interval", "p2"), lambda p: p * 1.001),
                                "interval: 1/p1 + 1/p2"),
    "tau off the gap": (_set(("interval", "tau"), lambda t: t * (1 + 1e-6)), "interval: tau"),
    "gamma(2) off tau": (_gamma2, "interval: gamma(2)"),
    "bracket lower above upper": (_bracket, "interval: lower > upper"),
    "report not ok": (_set(("ok",), False), "report: ok"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_report(name, full_report):
    corrupt, expected = CORRUPTIONS[name]
    report, cochain = copy.deepcopy(full_report[0]), full_report[1]
    corrupt(report)
    failures = checks.check_report(report, NX, NY, cochain, True)
    assert any(f.startswith(expected) for f in failures), failures


def test_interval_workload_must_not_decompose(full_report, interval_report):
    report = copy.deepcopy(interval_report[0])
    report["decomposition"] = full_report[0]["decomposition"]
    failures = checks.check_report(report, NX, NY, interval_report[1], False)
    assert any(f.startswith("report: decomposition ran") for f in failures)


def test_spans_cover_every_layer_and_are_removed(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus.input_document(NX, NY, seed=1)))
    originals = (hodgeheat.cli.verify_uniqueness, hodgeheat.interpolation.kernel_decay_fit)
    recorder = spans.SpanRecorder()
    with spans.traced(recorder), recorder.span(spans.ROOT):
        report, _ = hodgeheat.cli.run_pipeline(hodgeheat.cli.RunConfig(input_path=str(path)))
        hodgeheat.io.emit_report(report, str(tmp_path / "report.json"))
    assert (hodgeheat.cli.verify_uniqueness, hodgeheat.interpolation.kernel_decay_fit) == originals
    assert hodgeheat.decomposition.decompose is hodgeheat.cli.decompose

    self_times = recorder.self_times(0)
    assert all(self_times[name] > 0 for name in spans.LAYERS), self_times
    root = recorder.spans[0]
    assert root[0] == spans.ROOT
    assert 0 < recorder.top_level_time(0) <= root[2] - root[1]
    assert sum(self_times.values()) <= root[2] - root[1]
