"""Smoke tests: every script under ``examples/`` runs and prints its table.

Each test imports the script from its path, shrinks a module-level size
constant where the script has one, runs ``main()`` in-process and checks
the title line of the table it prints, so an API change that breaks an
example fails here instead of rotting silently.
"""

from dataclasses import replace
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load(name: str):
    spec = spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(module, capsys) -> list[str]:
    module.main()
    return capsys.readouterr().out.splitlines()


def test_every_example_has_a_smoke_test():
    tested = {name.removeprefix("test_") for name in globals()
              if name.startswith("test_")}
    scripts = {path.stem for path in EXAMPLES.glob("*.py")}
    assert scripts and scripts <= tested


def test_quickstart(monkeypatch, capsys):
    module = _load("quickstart")
    monkeypatch.setattr(module, "RECORDS", 1_000)
    monkeypatch.setattr(module, "OPERATIONS", 200)
    lines = _run(module, capsys)
    assert "read_mostly (95/5 zipfian), RF=3, 15 servers + 1 client" in lines


def test_consistency_levels(monkeypatch, capsys):
    module = _load("consistency_levels")
    monkeypatch.setattr(module, "RECORDS", 200)
    monkeypatch.setattr(module, "PROBES", 30)
    lines = _run(module, capsys)
    assert "Latency per consistency level (RF=3)" in lines
    assert "Read-your-writes staleness probe" in lines


def test_read_repair_demo(capsys):
    lines = _run(_load("read_repair_demo"), capsys)
    assert ("Cost of read repair (RF=3, concurrent writers + readers)"
            in lines)


def test_geo_replication(capsys):
    lines = _run(_load("geo_replication"), capsys)
    assert "2. Partition test (ap-southeast cut off)" in lines


def test_energy_cost(monkeypatch, capsys):
    module = _load("energy_cost")
    monkeypatch.setattr(module, "SCALE", replace(module.SCALE,
                                                 duration_s=1.0))
    lines = _run(module, capsys)
    assert "Energy decomposition and bill per power-management cell" in lines


def test_flash_crowd(monkeypatch, capsys):
    module = _load("flash_crowd")
    scale = module.SCALE
    monkeypatch.setattr(module, "SCALE", replace(
        scale, record_count=500,
        arrivals=replace(scale.arrivals, max_arrivals=1_500)))
    lines = _run(module, capsys)
    assert "Flash crowd: naive client vs full defense stack" in lines
