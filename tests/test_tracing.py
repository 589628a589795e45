"""The benchmark's traced run still hooks the program's module-level names.

``bench/tracing.py`` wraps functions by name and binds some of their
arguments by name, so a refactor that renames one silently zeroes a
per-layer metric.  This runs one traced job and checks two counts.
"""

from pathlib import Path

from goldengasket import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_area_job_counts_layers(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_job(
            cli.main,
            ["area", "--lambda", "omega:2", "-n", "2", "--resolution", "64"],
        )
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == cli.EXIT_OK
    metrics = tracer.layer_metrics()
    assert metrics["attractor.regions"] == 9
    assert metrics["attractor.grid_cells"] == 4096
    assert metrics["attractor.words"] == 9
    assert metrics["exact.ceil_calls"] > 0
