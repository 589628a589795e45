"""The benchmark's traced run still hooks the program's module-level names.

``bench/tracing.py`` wraps functions by name and binds some of their
arguments by name, so a refactor that renames one silently zeroes a
per-layer metric.  Each test runs one traced job and checks its counts.
"""

from pathlib import Path

from goldengasket import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def traced_metrics(monkeypatch, capsys, argv, exit_code=cli.EXIT_OK):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_job(cli.main, argv)
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == exit_code
    return tracer.layer_metrics()


def test_traced_area_job_counts_layers(monkeypatch, capsys):
    metrics = traced_metrics(
        monkeypatch, capsys,
        ["area", "--lambda", "omega:2", "-n", "2", "--resolution", "64"],
    )
    assert metrics["attractor.regions"] == 9
    assert metrics["attractor.grid_cells"] == 4096
    assert metrics["attractor.words"] == 9
    # The bound images settle every ceiling; only exact fallbacks count.
    assert metrics["exact.ceil_calls"] == 0


def test_traced_rational_area_job_counts_every_word(monkeypatch, capsys):
    metrics = traced_metrics(
        monkeypatch, capsys,
        ["area", "--lambda", "rational:59/100", "-n", "4", "--resolution", "64"],
    )
    assert metrics["attractor.regions"] == metrics["attractor.words"] == 3**4
    assert metrics["exact.ceil_calls"] == 0


def test_traced_holes_job_counts_hole_tests(monkeypatch, capsys, swept_pairs):
    metrics = traced_metrics(
        monkeypatch, capsys, ["holes", "--lambda", "omega:2", "-n", "2"]
    )
    # The hook sees each candidate's full test at the root; the rank
    # compares below it are the other pairs of the sweep.
    assert metrics["geometry.hole_tests"] == metrics["attractor.candidates"] == 9
    assert len(swept_pairs) == len(set(swept_pairs)) == 87


def test_traced_rational_holes_job_counts_hole_tests(monkeypatch, capsys, swept_pairs):
    metrics = traced_metrics(
        monkeypatch, capsys, ["holes", "--lambda", "rational:59/100", "-n", "3"],
        exit_code=cli.EXIT_VERDICT,
    )
    assert metrics["geometry.hole_tests"] == metrics["attractor.candidates"] == 27
    assert len(swept_pairs) == len(set(swept_pairs)) == 405
    assert metrics["attractor.violations"] == 6


def test_traced_ell_job_counts_leaves(monkeypatch, capsys):
    metrics = traced_metrics(
        monkeypatch, capsys, ["ell", "--theta", "golden", "--degree", "8"]
    )
    # One sign per distinct nonzero leaf vector the walk reaches other than
    # the incumbent's up to sign, and one compare per value after the first:
    # a leaf equal to the incumbent's vector or its negation is a tie
    # decided by the tie rule alone.
    assert metrics["separation.leaf_evals"] == 2
    assert metrics["separation.leaf_compares"] == 1
