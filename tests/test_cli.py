import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

import spinsurf.cli as cli
from spinsurf.cli import compare, main
from spinsurf.dynamics import BentCylinderSetup, force_equality_report
from spinsurf.errors import ConfigError


def _run_cli(args):
    return main(args)


def test_bare_cylinder_config_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = cylinder\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    rows = [l for l in (out / "spectrum.csv").read_text().splitlines()
            if not l.startswith("#")]
    # first four rows share cluster 0 at E = 0
    for line in rows[:4]:
        idx, e, cid, mult = line.split(",")
        assert cid == "0" and mult == "4"
        assert abs(float(e)) < 1e-3


def test_readme_config_example_runs(tmp_path):
    # the README's ini block, inline comments included, as a run config
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                      re.S).group(1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block)
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "forces.json").exists()


def test_flux_experiment_json(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = sphere\nr = 1.0\n"
                   "[run]\nexperiment = flux\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "flux.json").read_text())
    assert payload["phi_over_phi0"] == pytest.approx(2.0, rel=1e-6)
    assert payload["genus"] == 0


def test_malformed_config_error_json(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[surface]\nkind = torus\nrho = 2\nR = 1\n")
    code = _run_cli(["--config", str(cfg), "--out", str(tmp_path)])
    assert code != 0
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["type"] == "SurfaceParameterError"
    assert "R > rho" in payload["error"]["message"]


def test_bad_key_named_in_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[surface]\nkind = sphere\nr = long\n")
    code = _run_cli(["--config", str(cfg), "--out", str(tmp_path)])
    assert code != 0
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["key"] == "r"


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = cylinder\nrho = 1.0\n"
                   "[run]\nexperiment = conductance\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run_cli(["--config", str(cfg), "--out", str(out1),
                     "--seed", "7"]) == 0
    assert _run_cli(["--config", str(cfg), "--out", str(out2),
                     "--seed", "7"]) == 0
    for name in ("conductance_with.csv", "conductance_without.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_identical_and_perturbed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = cylinder\n[run]\nexperiment = conductance\n")
    out = tmp_path / "out"
    _run_cli(["--config", str(cfg), "--out", str(out)])
    a = out / "conductance_with.csv"
    rep = compare(str(a), str(a))
    assert rep["passed"]

    # with- vs without-connection curves: step positions differ
    b = out / "conductance_without.csv"
    rep2 = compare(str(a), str(b), tol=1e-9)
    assert not rep2["passed"]
    assert any(d["field"] in ("N", "G_over_e2h") for d in rep2["diffs"])

    # a perturbed value beyond tolerance fails listing the row
    text = a.read_text().splitlines()
    for i, line in enumerate(text):
        if not line.startswith("#"):
            parts = line.split(",")
            parts[1] = f"{float(parts[1]) + 1.0:.12e}"
            text[i] = ",".join(parts)
            break
    c = tmp_path / "perturbed.csv"
    c.write_text("\n".join(text) + "\n")
    rep3 = compare(str(a), str(c), tol=1e-9)
    assert not rep3["passed"]
    assert "row" in rep3["diffs"][0]["where"]


def test_compare_type_mismatch(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = cylinder\n")
    out = tmp_path / "out"
    _run_cli(["--config", str(cfg), "--out", str(out)])
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("kind = cylinder\n[run]\nexperiment = conductance\n")
    _run_cli(["--config", str(cfg2), "--out", str(out)])
    code = _run_cli(["--compare", str(out / "spectrum.csv"),
                     str(out / "conductance_with.csv")])
    assert code != 0


def test_field_map_si_column(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = sphere\nr = 1.0\n"
                   "[run]\nexperiment = field-map\n"
                   "[scale]\nlength_nm = 1.0\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out), "--si"]) == 0
    lines = (out / "field_map.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("# columns")][0]
    assert header.strip().endswith("B_tesla")
    row = [l for l in lines if not l.startswith("#")][0].split(",")
    # B = K/2 = 0.5 natural -> ~329 T at 1 nm
    assert float(row[-1]) == pytest.approx(329.0, rel=0.01)


def test_forces_and_expansions_experiments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = torus\nrho = 1.0\nR = 20.0\n"
                   "[run]\nexperiment = expansions\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "expansions.json").read_text())
    assert payload["passed"]
    assert payload["tetrad_max_residual"] < 1e-8


@pytest.mark.parametrize("key, value", [("q1", 1.0), ("q2", 2.0)])
def test_expansions_point_defaults_only_the_unset_coordinate(key, value,
                                                            tmp_path):
    # sphere domain (0, pi) x (0, 2 pi): an unset q1 is 0.37 of its range,
    # an unset q2 0.53 of its range
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = sphere\nr = 1.0\n"
                   f"[run]\nexperiment = expansions\n"
                   f"[expansions]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    point = json.loads((out / "expansions.json").read_text())["point"]
    expected = {"q1": 0.37 * math.pi, "q2": 0.53 * 2 * math.pi, key: value}
    assert point == pytest.approx([expected["q1"], expected["q2"]],
                                  rel=1e-15)


def test_spectrum_k_at_the_dimension_names_it(tmp_path, capsys):
    # the ring of n = 8 nodes has dimension 16
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = cylinder\n[spectrum]\nn = 8\nk = 16\n")
    assert _run_cli(["--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "[spectrum] k" in message and "dimension 16" in message


def test_geometry_report_and_experiment_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = torus\nrho = 1.0\nR = 3.0\n"
                   "[grid]\nn1 = 12\nn2 = 12\n")
    out = tmp_path / "out"
    # --experiment overrides the config default (spectrum)
    assert _run_cli(["--config", str(cfg), "--out", str(out),
                     "--experiment", "geometry-report"]) == 0
    payload = json.loads((out / "geometry_report.json").read_text())
    assert payload["kind"] == "torus"
    # K spans negative (inner) to positive (outer) values
    assert payload["K_min"] < 0 < payload["K_max"]


def test_unknown_experiment_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = cylinder\n[run]\nexperiment = teleport\n")
    code = _run_cli(["--config", str(cfg), "--out", str(tmp_path)])
    assert code != 0
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["type"] == "ConfigError"


def test_compare_json_honours_tol(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = sphere\nr = 1.0\n"
                   "[run]\nexperiment = flux\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    a = out / "flux.json"
    payload = json.loads(a.read_text())
    payload["phi_over_phi0"] *= 1.0 + 1e-6
    b = tmp_path / "flux.json"
    b.write_text(json.dumps(payload))
    assert compare(str(a), str(b), tol=1e-3)["passed"]
    failed = compare(str(a), str(b))
    assert not failed["passed"]
    assert failed["diffs"][0]["field"] == "phi_over_phi0"
    assert _run_cli(["--compare", str(a), str(b), "--tol", "1e-3"]) == 0
    assert _run_cli(["--compare", str(a), str(b)]) != 0


def test_with_connection_rejected_off_cylinder(tmp_path, capsys):
    # the grid route always includes the connection, so the key would be
    # echoed into spectrum.json without taking effect
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = torus\nrho = 1.0\nR = 3.0\n"
                   "[spectrum]\nwith_connection = false\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["key"] == "with_connection"
    assert not (out / "spectrum.json").exists()


# Each config once exited 0 and ran something other than what it asked
# for; now each exits 2 with the offending key named.
_DEFECT_CONFIGS = {
    "unknown flux key": (
        "[surface]\nkind = sphere\nr = 1.0\n[run]\nexperiment = flux\n"
        "[flux]\nn_2 = 64\n", "n_2"),
    "unknown section": ("kind = cylinder\n[grids]\nn1 = 8\n", "grids"),
    "ring size off the cylinder": (
        "[surface]\nkind = torus\nrho = 1.0\nR = 3.0\n"
        "[grid]\nn1 = 8\nn2 = 8\n[spectrum]\nn = 64\n", "n"),
    "sphere radius on a torus": (
        "[surface]\nkind = torus\nr = 2.0\n[run]\nexperiment = flux\n", "r"),
    "tube radius on a plane": (
        "[surface]\nkind = plane\nrho = 3\n"
        "[run]\nexperiment = geometry-report\n", "rho"),
    "badly typed key of another experiment": (
        "[surface]\nkind = sphere\nr = 1.0\n[run]\nexperiment = flux\n"
        "[forces]\nn_s = abc\n", "n_s"),
    # forces/evolve run the [forces] bent cylinder, R = 20 by default
    "torus radius forces would not run": (
        "[surface]\nkind = torus\nrho = 1.0\nR = 10.0\n"
        "[run]\nexperiment = forces\n", "R"),
    "tube radius evolve would not run": (
        "[surface]\nkind = torus\nrho = 0.5\nR = 20.0\n"
        "[run]\nexperiment = evolve\n", "rho"),
    "cylinder length on forces": (
        "[surface]\nkind = cylinder\nlength = 30.0\n"
        "[run]\nexperiment = forces\n", "length"),
    # numeric values below their least, each of which once exited 0 or
    # exited 1 with a raw traceback
    "flux resolution below 16": (
        "[surface]\nkind = torus\n[run]\nexperiment = flux\n"
        "[flux]\nn1 = 8\n", "n1"),
    "negative flux resolution": (
        "[surface]\nkind = torus\n[run]\nexperiment = flux\n"
        "[flux]\nn2 = -5\n", "n2"),
    "zero eigenpairs": ("kind = cylinder\n[spectrum]\nk = 0\n", "k"),
    # k at or above the operator's dimension once exited 1 with a raw
    # traceback; the bound depends on the grid, so the experiment checks it
    "eigenpairs beyond the ring": (
        "kind = cylinder\n[spectrum]\nn = 8\nk = 20\n", "k"),
    "eigenpairs beyond the grid": (
        "[surface]\nkind = torus\n[grid]\nn1 = 8\nn2 = 8\n"
        "[spectrum]\nk = 128\n", "k"),
    "ring below 8 nodes": ("kind = cylinder\n[spectrum]\nn = 4\n", "n"),
    "grid below 8 nodes": (
        "[surface]\nkind = torus\n[run]\nexperiment = geometry-report\n"
        "[grid]\nn1 = 4\nn2 = 8\n", "n1"),
    "empty conductance grid": (
        "kind = cylinder\n[run]\nexperiment = conductance\n"
        "[conductance]\nn_points = 0\n", "n_points"),
    "negative conductance range": (
        "kind = cylinder\n[run]\nexperiment = conductance\n"
        "[conductance]\ne_max = -1.0\n", "e_max"),
    "forces grid below 8 nodes": (
        "kind = cylinder\n[forces]\nn_theta = 4\n", "n_theta"),
    "forces s grid of zero nodes": (
        "kind = cylinder\n[forces]\nn_s = 0\n", "n_s"),
    "negative evolve steps": (
        "kind = cylinder\n[evolve]\nsteps = -3\n", "steps"),
    "zero time step": ("kind = cylinder\n[evolve]\ndt = 0.0\n", "dt"),
    "zero recording interval": (
        "kind = cylinder\n[evolve]\nrecord_every = 0\n", "record_every"),
    "zero length scale": (
        "kind = cylinder\n[scale]\nlength_nm = 0.0\n", "length_nm"),
    "negative mass ratio": (
        "kind = cylinder\n[scale]\nmass_ratio = -1.0\n", "mass_ratio"),
}


@pytest.mark.parametrize("name", sorted(_DEFECT_CONFIGS))
def test_defect_config_exits_2_naming_the_key(name, tmp_path, capsys):
    text, key = _DEFECT_CONFIGS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["key"] == key
    assert not out.exists()


def test_one_line_config_without_newline_is_text(tmp_path):
    # the file's content is parsed, never taken for another path
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind: cylinder")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "spectrum.csv").exists()


def test_readme_lists_every_config_key():
    # README "Command line" table rows:
    # | `[section]` | `key` | type | default | valid |
    from spinsurf.cli import _SCHEMA, _range
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(
        r"^\| `\[(\w+)\]` \| `(\w+)` \| (\w+) \| (.*?) \| (.*?) \|$",
        readme.read_text(encoding="utf-8"), re.M)
    listed = {(sec, key): (typ, default, valid)
              for sec, key, typ, default, valid in rows}
    assert len(listed) == len(rows)
    table = {(sec, key): (cast, default, least)
             for sec, keys in _SCHEMA.items()
             for key, (cast, default, least) in keys.items()}
    assert set(listed) == set(table)
    for entry, (cast, default, least) in table.items():
        assert listed[entry][0] == cast.__name__, entry
        if default is not None:
            assert listed[entry][1] == f"`{default}`", entry
        assert listed[entry][2] == ("-" if least is None
                                    else f"`{_range(cast, least)}`"), entry


def test_spectrum_cluster_columns_follow_the_clusters(tmp_path):
    # the per-row loop the cluster columns came from, kept as the oracle
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[surface]\nkind = torus\nrho = 1.0\nR = 3.0\n"
                   "[grid]\nn1 = 8\nn2 = 8\n")
    out = tmp_path / "out"
    assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    rows = [l.split(",") for l in (out / "spectrum.csv").read_text()
            .splitlines() if not l.startswith("#")]
    clusters = json.loads((out / "spectrum.json").read_text())["clusters"]
    expected, cid, count = [], 0, 0
    for _ in rows:
        if count >= clusters[cid][1]:
            cid += 1
            count = 0
        expected.append((str(cid), str(clusters[cid][1])))
        count += 1
    assert len(clusters) > 1
    assert [(row[2], row[3]) for row in rows] == expected


def _fmt(x):
    """One CSV value as the writer formats it: the per-value oracle."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12e}"


def test_csv_rows_match_per_value_format(tmp_path, monkeypatch):
    import spinsurf.cli as cli
    written = []
    original = cli._write_csv

    def capture(path, cfg, columns, units, rows):
        rows = [tuple(row) for row in rows]
        written.append((path, rows))
        original(path, cfg, columns, units, rows)

    monkeypatch.setattr(cli, "_write_csv", capture)
    for kind in ("cylinder", "torus", "sphere"):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(f"kind = {kind}\n[grid]\nn1 = 12\nn2 = 12\n"
                       "[conductance]\nn_points = 50\n")
        for exp in ("geometry-report", "field-map", "spectrum",
                    "conductance"):
            assert _run_cli(["--config", str(cfg), "--out",
                             str(tmp_path / kind / exp),
                             "--experiment", exp]) == 0
    # the spectrum's index, cluster_id and multiplicity are integers
    assert any(isinstance(row[2], (int, np.integer))
               for path, rows in written if path.endswith("spectrum.csv")
               for row in rows)
    mixed = [(3, np.int64(-4), 0.5, np.float64(-0.0), float("nan"),
              np.float32(0.1), True, math.inf)]
    path = str(tmp_path / "mixed.csv")
    cli._write_csv(path, cli.load_config(str(tmp_path / "torus.cfg")),
                   list("abcdefgh"), "none", mixed)
    written.append((path, mixed))
    for path, rows in written:
        text = pathlib.Path(path).read_text(encoding="utf-8")
        body = [line for line in text.splitlines(keepends=True)
                if not line.startswith("#")]
        assert body == [",".join(map(_fmt, row)) + "\n" for row in rows]


def _artifact_pair(tmp_path, name, text_a, text_b):
    a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
    a.write_text(text_a)
    b.write_text(text_b)
    return str(a), str(b)


@pytest.mark.parametrize("x,y", [("NaN", "1.5"), ("1.5", "NaN"),
                                 ("Infinity", "-Infinity"),
                                 ("NaN", "Infinity")])
def test_compare_json_nonfinite_mismatch_fails(tmp_path, x, y):
    a, b = _artifact_pair(tmp_path, "flux.json",
                           '{"genus": 0, "phi_over_phi0": %s}' % x,
                           '{"genus": 0, "phi_over_phi0": %s}' % y)
    rep = compare(a, b)
    assert not rep["passed"]
    assert rep["diffs"] == [{"field": "phi_over_phi0",
                             "rel_diff": math.inf, "where": "value"}]
    assert _run_cli(["--compare", a, b]) == 1


def test_compare_reports_the_largest_difference_within_tol(tmp_path):
    # values 1e-14 apart (relative) pass, and the report still says how far
    head = "# spinsurf field-map\n# columns: q1,B\n"
    csv_a = head + "0.0,2.0\n1.0,3.0\n"
    csv_b = head + "0.0,2.0\n1.0,%r\n" % (3.0 * (1.0 + 1e-14))
    json_a = '{"genus": 0, "phi_over_phi0": [2.0, 3.0]}'
    json_b = '{"genus": 0, "phi_over_phi0": [2.0, %r]}' % (3.0 * (1.0 + 1e-14))
    for name, text_a, text_b in (("field_map.csv", csv_a, csv_b),
                                 ("flux.json", json_a, json_b)):
        a, b = _artifact_pair(tmp_path, name, text_a, text_b)
        rep = compare(a, b)
        assert rep["passed"] and rep["diffs"] == []
        assert rep["max_rel_diff"] == pytest.approx(1e-14, rel=0.01)
        assert compare(a, a)["max_rel_diff"] == 0.0
        failed = compare(a, b, tol=1e-15)
        assert not failed["passed"]
        assert failed["max_rel_diff"] == rep["max_rel_diff"]


def test_compare_is_relative_below_one(tmp_path):
    # two evolve deflections 1.8 % apart; an absolute measure below 1
    # would read 3.8e-8 and pass --tol 1e-7
    a, b = _artifact_pair(
        tmp_path, "evolve.json",
        '{"deflection": {"down": -2.050049e-06, "up": 2.050049e-06}}',
        '{"deflection": {"down": -2.012188e-06, "up": 2.012188e-06}}')
    rep = compare(a, b, tol=1e-7)
    assert not rep["passed"]
    assert rep["max_rel_diff"] == pytest.approx(0.018469, rel=1e-4)
    assert _run_cli(["--compare", a, b, "--tol", "1e-7"]) == 1
    # a CSV column is scaled by its largest magnitude, so a value near
    # zero in a column of larger ones is not blown up
    head = "# spinsurf spectrum\n# columns: index,energy\n"
    a, b = _artifact_pair(tmp_path, "spectrum.csv",
                           head + "0,1.0e-15\n1,2.0\n",
                           head + "0,3.0e-15\n1,2.0\n")
    assert compare(a, b, tol=2e-15)["passed"]
    assert compare(a, b)["max_rel_diff"] == pytest.approx(1e-15)
    assert not compare(a, b, tol=5e-16)["passed"]


def test_compare_scales_a_json_list_by_its_largest_number(tmp_path):
    # the cylinder spectrum.json first cluster without the connection: its
    # mean is a round-off zero that moved -5.06e-14 -> -7.20e-14 beside
    # its multiplicity 2
    a, b = _artifact_pair(
        tmp_path, "spectrum.json",
        '{"clusters": [[-5.06e-14, 2], [0.4999749008019706, 4]], '
        '"with_connection": false}',
        '{"clusters": [[-7.20e-14, 2], [0.4999749008019706, 4]], '
        '"with_connection": false}')
    rep = compare(a, b)
    assert rep["passed"]
    assert rep["max_rel_diff"] == pytest.approx(2.14e-14 / 2)
    # a real move of a list's largest entry still fails
    a, b = _artifact_pair(
        tmp_path, "spectrum.json",
        '{"clusters": [[-5.06e-14, 2], [0.4999749008019706, 4]]}',
        '{"clusters": [[-5.06e-14, 2], [0.4999749008019706, 4.4]]}')
    failed = compare(a, b, tol=1e-3)
    assert failed["diffs"] == [{"field": "clusters.1.1",
                                "rel_diff": pytest.approx(0.4 / 4.4),
                                "where": "value"}]
    assert _run_cli(["--compare", a, b]) == 1


def test_forces_json_passes_compare_when_the_forces_move_by_round_off(
        tmp_path):
    # |F_pm - F_so| / |F_pm| ~ 5e-5 is a difference of nearly equal
    # forces: a 1e-10 move of F_pm moves it ~2e-6, so forces.json keeps
    # the forces and leaves the ratio out
    rep = force_equality_report(BentCylinderSetup())
    f_pm = {s: f * (1.0 + 1e-10) for s, f in rep.f_pm.items()}
    moved = dataclasses.replace(rep, f_pm=f_pm, rel_pm_vs_so={
        s: abs(f_pm[s] - rep.f_so[s]) / abs(f_pm[s]) for s in f_pm})
    a, b = _artifact_pair(tmp_path, "forces.json",
                          *(json.dumps(r.as_dict()) for r in (rep, moved)))
    result = compare(a, b, tol=1e-9)
    assert result["passed"], result
    assert result["max_rel_diff"] == pytest.approx(1e-10, rel=1e-3)


def test_forces_json_passes_compare_when_mean_theta_moves_by_round_off(
        tmp_path):
    # <theta> at theta_c = 0 is a round-off zero (2.7e-18, then -7.7e-19
    # after an unrelated change), so forces.json leaves it out
    rep = force_equality_report(BentCylinderSetup())
    moved = dataclasses.replace(rep, mean_theta={
        s: th + 1e-18 for s, th in rep.mean_theta.items()})
    a, b = _artifact_pair(tmp_path, "forces.json",
                          *(json.dumps(r.as_dict()) for r in (rep, moved)))
    result = compare(a, b, tol=1e-9)
    assert result["passed"], result


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-0.5"])
def test_compare_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    # every d > nan is False, so a NaN tolerance would pass anything
    a, b = _artifact_pair(tmp_path, "flux.json", '{"phi_over_phi0": 1.0}',
                           '{"phi_over_phi0": 5.0}')
    assert _run_cli(["--compare", a, b, f"--tol={tol}"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["key"] == "tol"
    with pytest.raises(ConfigError, match="tolerance"):
        compare(a, b, tol=float(tol))


@pytest.mark.parametrize("x,y", [("nan", "1.5"), ("1.5", "nan"),
                                 ("inf", "-inf"), ("nan", "inf")])
def test_compare_csv_nonfinite_mismatch_fails(tmp_path, x, y):
    head = "# spinsurf field-map\n# columns: q1,B\n"
    a, b = _artifact_pair(tmp_path, "field_map.csv",
                           head + f"0.0,2.0\n1.0,{x}\n",
                           head + f"0.0,2.0\n1.0,{y}\n")
    rep = compare(a, b)
    assert not rep["passed"]
    assert rep["diffs"] == [{"field": "B", "rel_diff": math.inf,
                             "where": "row 1"}]
    assert _run_cli(["--compare", a, b]) == 1


def test_compare_identical_nonfinite_passes(tmp_path):
    head = "# spinsurf field-map\n# columns: q1,B\n"
    csv = head + "nan,2.0\n1.0,inf\n-inf,nan\n"
    text = '{"a": NaN, "b": [Infinity, -Infinity, 1.0]}'
    for name, body in (("field_map.csv", csv), ("flux.json", text)):
        a, b = _artifact_pair(tmp_path, name, body, body)
        rep = compare(a, b)
        assert rep["passed"] and rep["max_rel_diff"] == 0.0
        assert _run_cli(["--compare", a, b]) == 0


def test_evolve_experiment_artifacts_and_compare(tmp_path):
    cfg = tmp_path / "run.cfg"
    # a [surface] rho equal to the [forces] one is accepted
    cfg.write_text("kind = cylinder\nrho = 1.0\n[run]\nexperiment = evolve\n"
                   "[forces]\nn_theta = 20\nn_s = 160\n"
                   "[evolve]\nsteps = 20\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert _run_cli(["--config", str(cfg), "--out", str(out)]) == 0
    lines = (outs[0] / "evolve.csv").read_text().splitlines()
    assert "# columns: t,mean_theta_up,mean_theta_down,mean_ps," \
           "sigma3_up,sigma3_down" in lines
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 20 // 5 + 1
    assert all(len(l.split(",")) == 6 for l in rows)
    payload = json.loads((outs[0] / "evolve.json").read_text())
    # the asymmetry is printed, not written: see the next test
    assert sorted(payload) == ["deflection", "opposite_sign"]
    assert sorted(payload["deflection"]) == ["down", "up"]
    for name in ("evolve.csv", "evolve.json"):
        assert _run_cli(["--compare", str(outs[0] / name),
                         str(outs[1] / name)]) == 0


def test_evolve_json_passes_compare_when_a_deflection_moves_by_round_off(
        tmp_path, monkeypatch):
    # |d_up + d_dn| / |d_up| ~ 1e-10 is the remainder of nearly cancelling
    # deflections: a 1e-10 move of d_dn moves it by its own size, so
    # evolve.json keeps the deflections and leaves it out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = cylinder\n[run]\nexperiment = evolve\n"
                   "[forces]\nn_theta = 20\nn_s = 160\n"
                   "[evolve]\nsteps = 20\n")
    run = cli.spin_hall_run

    def moved(*args, **kwargs):
        out = run(*args, **kwargs)
        up = out["deflection"]["up"]
        down = out["deflection"]["down"] * (1.0 + 1e-10)
        return {**out, "deflection": {"up": up, "down": down},
                "asymmetry": abs(up + down) / abs(up)}

    assert _run_cli(["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(cli, "spin_hall_run", moved)
    assert _run_cli(["--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    result = compare(str(tmp_path / "a" / "evolve.json"),
                     str(tmp_path / "b" / "evolve.json"), tol=1e-9)
    assert result["passed"], result
    assert result["max_rel_diff"] == pytest.approx(1e-10, rel=1e-3)


_COMPARE_MISMATCHES = {
    "csv shape": ("field_map.csv",
                  "# spinsurf field-map\n# columns: q1,B\n0.0,2.0\n1.0,3.0\n",
                  "# spinsurf field-map\n# columns: q1,B\n0.0,2.0\n",
                  "shape"),
    "json missing key": ("flux.json", '{"genus": 0, "phi_over_phi0": 1.0}',
                         '{"genus": 0}', "phi_over_phi0"),
    "json list length": ("spectrum.json", '{"clusters": [[0.5, 4], [2.0, 8]]}',
                         '{"clusters": [[0.5, 4]]}', "clusters"),
    "json string": ("conductance.json", '{"with": {"variant": "spin"}}',
                    '{"with": {"variant": "scalar"}}', "with.variant"),
}


@pytest.mark.parametrize("name", sorted(_COMPARE_MISMATCHES))
def test_compare_structural_mismatch_fails(name, tmp_path):
    file_name, text_a, text_b, field = _COMPARE_MISMATCHES[name]
    a, b = _artifact_pair(tmp_path, file_name, text_a, text_b)
    rep = compare(a, b)
    assert not rep["passed"]
    assert rep["max_rel_diff"] == math.inf
    assert [(d["field"], d["rel_diff"]) for d in rep["diffs"]] == [
        (field, math.inf)]
    assert _run_cli(["--compare", a, b]) == 1
