"""End-to-end runs of the sample configs shipped in configs/."""

import pathlib

import pytest

from hjgen.cli import main
from hjgen.fields import read_field_csv

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _run(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # field/report paths in the configs are relative
    code = main(["solve", str(CONFIG_DIR / name)])
    return code


def test_free_particle_config_passes_and_matches_oracle(tmp_path, monkeypatch):
    assert _run("free_particle.cfg", tmp_path, monkeypatch) == 0
    field = read_field_csv(str(tmp_path / "free_particle_field.csv"))
    assert field.resolved_fraction() == 1.0
    assert main(
        [
            "oracle",
            "free_particle",
            str(tmp_path / "free_particle_field.csv"),
            "--param", "a=1",
            "--param", "C=1",
        ]
    ) == 0


def test_harmonic_config_passes(tmp_path, monkeypatch):
    assert _run("harmonic.cfg", tmp_path, monkeypatch) == 0
    assert main(
        [
            "oracle",
            "harmonic",
            str(tmp_path / "harmonic_field.csv"),
            "--param", "G=q^2/2",
        ]
    ) == 0


def test_linear_pq_config_passes(tmp_path, monkeypatch):
    assert _run("linear_pq.cfg", tmp_path, monkeypatch) == 0
    field = read_field_csv(str(tmp_path / "linear_pq_field.csv"))
    worst = max(
        abs(field.q[i][j] - (2.0 * x + y))
        for i, x in enumerate(field.axis1)
        for j, y in enumerate(field.axis2)
    )
    assert worst <= 1e-10


def test_power_pq_config_passes_and_verifies(tmp_path, monkeypatch):
    assert _run("power_pq.cfg", tmp_path, monkeypatch) == 0
    assert main(
        ["verify", str(CONFIG_DIR / "power_pq.cfg"), str(tmp_path / "power_pq_field.csv")]
    ) == 0


def test_scaled_x_config_passes_and_verifies(tmp_path, monkeypatch):
    assert _run("scaled_x.cfg", tmp_path, monkeypatch) == 0
    field = read_field_csv(str(tmp_path / "scaled_x_field.csv"))
    assert field.resolved_fraction() == 1.0
    assert main(
        ["verify", str(CONFIG_DIR / "scaled_x.cfg"), str(tmp_path / "scaled_x_field.csv")]
    ) == 0


def test_scaled_y_config_passes_and_matches_closed_form(tmp_path, monkeypatch):
    assert _run("scaled_y.cfg", tmp_path, monkeypatch) == 0
    field = read_field_csv(str(tmp_path / "scaled_y_field.csv"))
    worst = max(
        abs(field.q[i][j] - x / (1.0 - 2.0 * y))
        for i, x in enumerate(field.axis1)
        for j, y in enumerate(field.axis2)
    )
    assert worst <= 1e-10
    assert main(
        ["verify", str(CONFIG_DIR / "scaled_y.cfg"), str(tmp_path / "scaled_y_field.csv")]
    ) == 0
