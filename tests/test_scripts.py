"""The table and figure scripts write what the CLI and the renderer give."""

from pathlib import Path

from goldengasket import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TABLES = {
    "dimension_table.csv": ["table1"],
    "dimension_grid.csv": ["table2"],
    "unique_addresses_m2.csv": ["uniq", "--m", "2", "-n", "15"],
    "unique_addresses_m3.csv": ["uniq", "--m", "3", "-n", "15"],
}
for _m in (3, 4, 5):
    for _which in ("h", "p"):
        TABLES["seq_%s_m%d.csv" % (_which, _m)] = [
            "seq", "--which", _which, "--m", str(_m), "-n", "20"]

FIGURES = (
    "golden_level6.svg",
    "golden_overlays.svg",
    "index3_level6.svg",
    "index4_level5.svg",
    "radial_065_level6.svg",
    "half_level6.svg",
)


def test_make_tables_match_cli(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import make_tables

    assert make_tables.run(tmp_path) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / n) for n in TABLES]
    for name, argv in TABLES.items():
        assert cli.main(argv) == cli.EXIT_OK
        written = (tmp_path / name).read_bytes().decode("ascii")
        assert written == capsys.readouterr().out, name


def test_make_figures_write_the_gallery(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import make_figures

    assert make_figures.run(tmp_path, 64) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / n) for n in FIGURES]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIGURES)
    for name in FIGURES:
        assert (tmp_path / name).read_text().startswith("<svg")
