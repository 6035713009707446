"""End-to-end runs of the sample configs shipped in configs/."""

import pathlib

import pytest

from hjgen import hj, pq
from hjgen.cli import _solve_field, main
from hjgen.config import load_config
from hjgen.fields import read_field_csv
from hjgen.numerics import SolverConfig, SolveStats
from hjgen.pq import PQProblem

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


def test_free_particle_is_the_pq_family_of_sqrt_q():
    # a = 1, V = 0, G = q puts S = sqrt(q) x + q t - q at the root of
    # x / (2 sqrt(q)) + t - 1 = 0, the explicit pq family with f = sqrt(q)
    # and phi = q; both families solve the same grid, range and solver
    cfg = load_config(str(CONFIG_DIR / "free_particle.cfg"))
    hj_field = hj.solve_grid(cfg.problem, cfg.axis1, cfg.axis2, cfg.q_range, cfg.solver)
    prob = PQProblem.explicit("sqrt(q)", "q")
    pq_field = pq.solve_grid(prob, cfg.axis1, cfg.axis2, cfg.q_range, cfg.solver)
    assert pq_field.status == hj_field.status
    cells = [(i, j) for i in range(len(cfg.axis1)) for j in range(len(cfg.axis2))
             if hj_field.q[i][j] is not None]
    assert cells
    assert max(abs(pq_field.q[i][j] - hj_field.q[i][j]) for i, j in cells) <= 1e-11
    assert max(abs(pq_field.value[i][j] - hj_field.value[i][j]) for i, j in cells) <= 1e-13


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


def test_scaled_y_roots_on_the_column_y_0_are_exact():
    # on the column y = 0 the root field p = x/(1 - 2y) is x itself; the
    # roots are polished by their own evaluation's slope, so continuation
    # along the column carries no drift from roots accepted at resid_tol
    field = _solve_field(load_config(str(CONFIG_DIR / "scaled_y.cfg")), None)
    assert field.axis2[0] == 0.0
    assert max(abs(row[0] - x) for x, row in zip(field.axis1, field.q)) <= 1e-14


# Level evaluations per grid point (scan + probes + Brent) of each shipped
# solve.  The counts are deterministic; each ceiling is the measured mean
# plus about 3%, so a predictor or probe rule that aims worse shows here.
EVALUATIONS = {
    "free_particle": 2.46,
    "harmonic": 1.62,
    "linear_pq": 1.03,
    "power_pq": 2.12,
    "scaled_x": 1.56,
    "scaled_y": 1.07,
}


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_shipped_solve_level_evaluations_per_point(name):
    stats = SolveStats()
    _solve_field(load_config(str(CONFIG_DIR / f"{name}.cfg")), stats)
    assert (stats.scan + stats.probes + stats.brent) / stats.points <= EVALUATIONS[name]


# The SolveStats record of each shipped solve, every count exact: a change
# meant to leave the numerics alone must leave the work alone too, and one
# that adds or drops a level evaluation, a bracket, a quadrature, a merged
# table term or a point of some status fails here.
SOLVE_STATS = {
    "free_particle": {
        "points": 3111, "targets": 3111, "scan": 1525,
        "probes": 5767, "landed": 453, "brent": 139, "refined": 3111,
        "dpdq_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 7431, 0],
        "p_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 3111, 0],
        "dpdq_cc_terms": 7431, "p_cc_terms": 3111,
        "dpdq_terms": 0, "p_terms": 0,
        "statuses": {"resolved": 3111, "no_root": 0, "multi_root": 0, "domain_fail": 0},
    },
    "harmonic": {
        "points": 1681, "targets": 1681, "scan": 697,
        "probes": 1842, "landed": 1518, "brent": 93, "refined": 1681,
        "dpdq_quads": [0, 0, 0, 0, 32, 0, 0, 0, 0, 2241, 359],
        "p_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1646, 35],
        "dpdq_cc_terms": 56097, "p_cc_terms": 29732,
        "dpdq_terms": 3552, "p_terms": 0,
        "statuses": {"resolved": 1681, "no_root": 0, "multi_root": 0, "domain_fail": 0},
    },
    "linear_pq": {
        "points": 1681, "targets": 1681, "scan": 25,
        "probes": 1617, "landed": 1613, "brent": 33, "refined": 1681,
        "dpdq_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "p_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "dpdq_cc_terms": 0, "p_cc_terms": 0,
        "dpdq_terms": 0, "p_terms": 0,
        "statuses": {"resolved": 1681, "no_root": 0, "multi_root": 0, "domain_fail": 0},
    },
    "power_pq": {
        "points": 1681, "targets": 1681, "scan": 25,
        "probes": 3322, "landed": 38, "brent": 99, "refined": 1681,
        "dpdq_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "p_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "dpdq_cc_terms": 0, "p_cc_terms": 0,
        "dpdq_terms": 0, "p_terms": 0,
        "statuses": {"resolved": 1681, "no_root": 0, "multi_root": 0, "domain_fail": 0},
    },
    "scaled_x": {
        "points": 1681, "targets": 1681, "scan": 25,
        "probes": 2395, "landed": 963, "brent": 126, "refined": 1681,
        "dpdq_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "p_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "dpdq_cc_terms": 0, "p_cc_terms": 0,
        "dpdq_terms": 0, "p_terms": 0,
        "statuses": {"resolved": 1681, "no_root": 0, "multi_root": 0, "domain_fail": 0},
    },
    "scaled_y": {
        "points": 1681, "targets": 1681, "scan": 25,
        "probes": 1707, "landed": 1627, "brent": 7, "refined": 1681,
        "dpdq_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "p_quads": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "dpdq_cc_terms": 0, "p_cc_terms": 0,
        "dpdq_terms": 0, "p_terms": 0,
        "statuses": {"resolved": 1681, "no_root": 0, "multi_root": 0, "domain_fail": 0},
    },
}


@pytest.mark.parametrize("name", sorted(SOLVE_STATS))
def test_shipped_solve_stats_are_pinned(name):
    stats = SolveStats()
    _solve_field(load_config(str(CONFIG_DIR / f"{name}.cfg")), stats)
    assert {key: getattr(stats, key) for key in SolveStats.__slots__} == SOLVE_STATS[name]


def test_separated_field_work_is_pinned():
    # the criterion-06 separated field (a = 1, V = x^2, E = 1 on 81 x 41
    # points, t looping inside x), read after each x through the row table
    # its calls shared: every quadrature stops on the Clenshaw-Curtis table
    osc = hj.HJProblem("1", "x^2", "0", sigma=1, x0=0.0)
    solver = SolverConfig(quad_tol=1e-10)
    stats = SolveStats()
    for i in range(81):
        x = 0.1 + 0.7 * i / 80
        for j in range(41):
            hj.separation_action(osc, 1.0, x, 0.4 * j / 40, solver)
        hj._row_table(osc, x, solver.quad_tol).add_counts(stats)
    assert stats.p_quads == [0] * 9 + [58, 23]
    assert (stats.p_cc_terms, stats.p_terms) == (2136, 0)
    assert stats.dpdq_quads == [0] * 11 and stats.dpdq_cc_terms == stats.dpdq_terms == 0
