import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmtrefftz import cli, harness, polyspace
from helmtrefftz.cli import main
from helmtrefftz.dg_assembly import FormParameters
from helmtrefftz.error_analysis import (
    ErrorReport,
    dg_error,
    dofs_per_wavelength,
    l2_error,
)
from helmtrefftz.exact_solutions import plane_wave_case, sinsin_case
from helmtrefftz.harness import (
    CSV_HEADER,
    METHOD_TAGS,
    PLANEWAVE_RINGS_LADDER,
    RunConfig,
    emit_csv,
    parse_csv,
    run_experiment,
    solve,
    summarize,
)
from helmtrefftz.mesh import build_unit_disk_mesh, build_unit_square_mesh
from helmtrefftz.polyspace import (
    _data_order,
    _gram_order,
    edge_quadrature_rule,
    quadrature_rule,
)


def small_hankel_config(**kwargs):
    defaults = dict(experiment="hankel", degrees=(3,), levels=2)
    defaults.update(kwargs)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def hankel_reports():
    return run_experiment(small_hankel_config())


def test_row_count(hankel_reports):
    # 1 degree x 2 levels x 2 methods
    assert len(hankel_reports) == 4
    assert {r.method for r in hankel_reports} == set(METHOD_TAGS.values())


def test_reports_well_formed(hankel_reports):
    for r in hankel_reports:
        assert r.l2error > 0.0 and np.isfinite(r.l2error)
        assert r.dgerror > 0.0 and np.isfinite(r.dgerror)
        assert r.dgerror >= 10.0 * r.l2error * 0.0  # nonnegative sanity
        assert r.dofs > 0 and r.h > 0.0


def test_embedded_dofs_smaller(hankel_reports):
    by_key = {(r.method, r.hnr): r for r in hankel_reports}
    for hnr in (0, 1):
        assert by_key[("etvol", hnr)].dofs < by_key[("dgvol", hnr)].dofs


def test_determinism_byte_identical(tmp_path, hankel_reports):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_csv(hankel_reports, p1)
    emit_csv(run_experiment(small_hankel_config()), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "empty.csv")


def test_emit_single_row(tmp_path):
    report = ErrorReport("etvol", 3, 0.25, 0, 100, 1e-3, 1e-2, 10.0, 5.0)
    path = emit_csv([report], tmp_path / "one.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "method,p,h,hnr,dofs,l2error,dgerror,omega,dofspwl"


def test_csv_round_trip(tmp_path, hankel_reports):
    path = emit_csv(hankel_reports, tmp_path / "rt.csv")
    assert parse_csv(path) == hankel_reports


def test_csv_round_trip_with_omega_label(tmp_path):
    report = ErrorReport("etvol", 3, 0.25, 0, 100, 1e-3, 1e-2, "5+sin(x)+y^2", 5.0)
    path = emit_csv([report], tmp_path / "lbl.csv")
    assert parse_csv(path) == [report]


@pytest.mark.parametrize(
    "row", ["etvol,3,0.25", "etvol,3,0.25,0,100,1e-3,1e-2,10.0,5.0,7"]
)
def test_parse_csv_rejects_wrong_field_count(tmp_path, row):
    path = tmp_path / "short.csv"
    path.write_text(CSV_HEADER + "\n" + row + "\n")
    with pytest.raises(ValueError, match=rf"short\.csv, line 2: expected 9 fields"):
        parse_csv(path)


def test_parse_csv_names_the_line_of_a_bad_value(tmp_path):
    path = tmp_path / "bad.csv"
    good = "etvol,3,0.25,0,100,1e-3,1e-2,10.0,5.0"
    path.write_text(CSV_HEADER + "\n" + good + "\n" + good.replace("100", "x") + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: "):
        parse_csv(path)


def test_cli_summarize_rejects_short_row(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text(CSV_HEADER + "\netvol,3,0.25\n")
    assert main(["summarize", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2" in err


def test_summarize_single_level():
    report = ErrorReport("etvol", 3, 0.25, 0, 100, 1e-3, 1e-2, 10.0, 5.0)
    table = summarize([report])
    row = table.splitlines()[2]
    assert row.split()[-1] == "-" and row.split()[-2] == "-"


def test_summarize_synthetic_first_order():
    reports = [
        ErrorReport("dgvol", 1, 0.2, 0, 10, 4e-2, 4e-1, 1.0, 1.0),
        ErrorReport("dgvol", 1, 0.1, 1, 20, 2e-2, 2e-1, 1.0, 2.0),
    ]
    table = summarize(reports)
    assert "1.00" in table.splitlines()[3]


def test_summarize_hankel_rates(hankel_reports):
    table = summarize(hankel_reports)
    assert "etvol" in table and "dgvol" in table


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(experiment="unknown")
    with pytest.raises(ValueError):
        RunConfig(experiment="hankel", methods=("spectral",))
    with pytest.raises(ValueError):
        RunConfig(experiment="hankel", degrees=(0,))
    with pytest.raises(ValueError):
        RunConfig(experiment="hankel", alpha=-1.0)
    for omegas in ((float("nan"),), (-3.0,), (10.0, float("inf"))):
        with pytest.raises(ValueError, match="omegas"):
            RunConfig(experiment="planewave", omegas=omegas)
    with pytest.raises(ValueError, match="alpha"):
        RunConfig(experiment="hankel", alpha=float("nan"))


@pytest.mark.parametrize(
    "field,value",
    [
        ("dof_cap", 0),
        ("dof_cap", -1),
        ("degrees", (3, 3)),
        ("omegas", (100, 100)),
        ("dof_cap", 2.5),
        ("dof_cap", True),
        ("omegas", (True,)),
        ("omegas", ("a",)),
        ("omegas", (1 + 2j,)),
        ("alpha", True),
        ("alpha", 1j),
    ],
)
def test_config_rejects_bad_bump_and_cap(field, value):
    # rejected before any rung is solved, naming the field; a repeated
    # degree or wavenumber used to write its rows twice, dof_cap=True
    # used to be read as a cap of one dof, a bool wavenumber or penalty
    # as 1, and omegas=("a",) raised a ValueError that did not name omegas
    with pytest.raises(ValueError, match=field):
        RunConfig(**{"experiment": "planewave", "degrees": (2,), field: value})


@pytest.mark.parametrize("levels", [0, -1, 2.0, True])
def test_config_rejects_levels_below_one_or_not_integer(levels):
    # levels=0 used to mean the default ladder; None is the default now
    with pytest.raises(ValueError, match="levels"):
        RunConfig(experiment="hankel", levels=levels)
    assert RunConfig(experiment="hankel").levels == 4
    assert RunConfig(experiment="hankel", levels=None).levels == 4


@pytest.mark.parametrize("degree", [2.5, 3.0, True, "3"])
def test_config_rejects_degrees_that_are_not_integers(degree):
    # a float degree used to be kept, and a bool read as 1
    with pytest.raises(ValueError, match="degrees"):
        RunConfig(experiment="sinsin", degrees=[degree])
    config = RunConfig(experiment="sinsin", degrees=[np.int64(3)])
    assert config.degrees == (3,) and type(config.degrees[0]) is int


def test_config_rejects_levels_for_sinsin():
    # sinsin has one fixed mesh; a second level used to be dropped silently
    with pytest.raises(ValueError, match="levels"):
        RunConfig(experiment="sinsin", degrees=(2,), levels=3)
    assert RunConfig(experiment="sinsin", levels=1).levels == 1


def test_config_rejects_levels_beyond_the_planewave_ladder():
    # a run solves at most the ladder's meshes; more levels used to be
    # dropped silently
    ladder = len(PLANEWAVE_RINGS_LADDER)
    assert ladder == 14
    with pytest.raises(ValueError, match="levels=15"):
        RunConfig(experiment="planewave", levels=ladder + 1)
    assert RunConfig(experiment="planewave", levels=ladder).levels == ladder


@pytest.mark.parametrize("experiment", ["hankel", "sinsin", "varomega"])
def test_config_rejects_omegas_outside_planewave(experiment):
    # these experiments fix their wavenumber; omegas used to be ignored
    with pytest.raises(ValueError, match="omegas"):
        RunConfig(experiment=experiment, omegas=(55.0,))
    assert RunConfig(experiment=experiment).omegas == ()


def test_config_planewave_omegas_default():
    assert RunConfig(experiment="planewave").omegas == (100.0,)
    assert RunConfig(experiment="planewave", omegas=(40, 80)).omegas == (40.0, 80.0)


def test_config_rejects_repeated_methods():
    with pytest.raises(ValueError, match="methods"):
        RunConfig(experiment="hankel", methods=("embedded", "embedded"))


def test_config_accepts_smallest_bump_and_cap():
    config = RunConfig(experiment="sinsin", dof_cap=1)
    assert config.dof_cap == 1
    config = RunConfig(experiment="sinsin", dof_cap=np.int64(7))
    assert config.dof_cap == 7 and type(config.dof_cap) is int


def test_dof_budget_refusal():
    with pytest.raises(ValueError, match="cap"):
        run_experiment(
            RunConfig(experiment="hankel", degrees=(5,), levels=6, dof_cap=10_000)
        )


def test_planewave_ladder_trimmed_by_cap():
    config = RunConfig(
        experiment="planewave",
        degrees=(2,),
        levels=3,
        omegas=(40.0,),
        dof_cap=1_000,
    )
    reports = run_experiment(config)
    # only rings=4 (576 dofs) fits under the cap, once per method
    assert {r.hnr for r in reports} == {0}
    assert len(reports) == 2


def test_planewave_cap_can_exclude_everything():
    with pytest.raises(ValueError, match="cap"):
        run_experiment(
            RunConfig(
                experiment="planewave",
                degrees=(4,),
                levels=2,
                omegas=(40.0,),
                dof_cap=100,
            )
        )


def test_cli_run_and_summarize(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(
        [
            "run",
            "--experiment",
            "hankel",
            "--p",
            "3",
            "--levels",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "wrote 2 rows" in captured.out

    code = main(["summarize", "--in", str(out)])
    assert code == 0
    assert "etvol" in capsys.readouterr().out


def test_cli_takes_its_defaults_from_run_config(tmp_path, monkeypatch):
    # every option left out keeps RunConfig's default, stated there alone
    out = str(tmp_path / "x.csv")
    built = []
    monkeypatch.setattr(
        cli, "run_experiment", lambda config: built.append(config) or []
    )
    assert main(["run", "--experiment", "hankel", "--out", out]) == 0
    assert built == [RunConfig(experiment="hankel", out=out)]


def test_cli_rejects_bad_config(tmp_path, capsys):
    code = main(
        [
            "run",
            "--experiment",
            "hankel",
            "--p",
            "9",
            "--levels",
            "6",
            "--dof-cap",
            "1000",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,value,field",
    [
        ("--omega", "nan", "omegas"),
        ("--omega", "-3", "omegas"),
        ("--alpha", "nan", "alpha"),
        ("--dof-cap", "-1", "dof_cap"),
        ("--p", "3,3", "degrees"),
        ("--omega", "100,100", "omegas"),
    ],
)
def test_cli_rejects_bad_parameters(tmp_path, capsys, option, value, field):
    out = tmp_path / "x.csv"
    code = main(
        ["run", "--experiment", "planewave", f"{option}={value}", "--out", str(out)]
    )
    assert code == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment,option,value,field",
    [
        ("hankel", "--omega", "55", "omegas"),
        ("sinsin", "--levels", "2", "levels"),
        ("planewave", "--levels", "15", "levels"),
        ("hankel", "--levels", "0", "levels"),
    ],
)
def test_cli_rejects_ignored_settings(
    tmp_path, capsys, experiment, option, value, field
):
    out = tmp_path / "x.csv"
    code = main(
        ["run", "--experiment", experiment, f"{option}={value}", "--out", str(out)]
    )
    assert code == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_cli_accepts_the_whole_planewave_ladder(tmp_path):
    # all 14 levels are accepted; the dof cap keeps only the 4-ring mesh
    out = tmp_path / "x.csv"
    argv = ["run", "--experiment", "planewave", "--levels", "14", "--p", "1"]
    argv += ["--methods", "standard", "--dof-cap", "288", "--out", str(out)]
    assert main(argv) == 0
    assert [r.hnr for r in parse_csv(out)] == [0]


def test_cli_solver_failure_names_the_rung_once(tmp_path, capsys):
    # sinsin beyond p=12 exhausts double precision on the coarse mesh
    out = tmp_path / "x.csv"
    code = main(
        [
            "run",
            "--experiment",
            "sinsin",
            "--p",
            "14",
            "--methods",
            "standard",
            "--out",
            str(out),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("solver failure: near-singular matrix")
    assert err.count("p=14") == 1
    assert "(sinsin, p=14, hnr=0, standard)" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_refuses_an_unwritable_out_before_solving(
    where, tmp_path, capsys, monkeypatch
):
    # a missing directory used to run the whole sweep, then end in a
    # FileNotFoundError traceback
    rungs = []
    monkeypatch.setattr(harness, "_rung", lambda *args: rungs.append(args) or [])
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    argv = ["run", "--experiment", "sinsin", "--p", "2", "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: out must name a file") and str(out) in err
    assert "Traceback" not in err
    assert rungs == []


def test_cli_reports_a_failed_write(tmp_path, capsys, monkeypatch):
    def refuse(reports, path):
        raise PermissionError(f"cannot write {path}")

    monkeypatch.setattr(harness, "emit_csv", refuse)
    out = tmp_path / "x.csv"
    argv = ["run", "--experiment", "hankel", "--p", "3", "--levels", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}\n"


def test_cli_missing_file(capsys):
    assert main(["summarize", "--in", "/nonexistent/file.csv"]) == 1


@pytest.mark.parametrize("p", [3, 6])
def test_one_rung_builds_each_table_once_per_scope(p, monkeypatch):
    # one sinsin rung, both methods: the load vector, the particular field
    # and both norms of both fields read one set of data-rule volume and
    # boundary tables; solve builds the Gram-rule volume set once, and the
    # SIPDG assembly its own, with only the data-rule scope open
    builds = []  # (inside the assembly, orders of the open scopes, inputs)
    assembling = []
    build, assemble = polyspace._monomial_tables, harness.assemble_sipdg

    def spy(centers, scales, q, points):
        inputs = (q, points.shape, centers.tobytes(), points.tobytes())
        builds.append((bool(assembling), tuple(polyspace._shared.get()), inputs))
        return build(centers, scales, q, points)

    def assembly(*args):
        assembling.append(True)
        try:
            return assemble(*args)
        finally:
            assembling.clear()

    monkeypatch.setattr(polyspace, "_monomial_tables", spy)
    monkeypatch.setattr(harness, "assemble_sipdg", assembly)
    reports = run_experiment(RunConfig(experiment="sinsin", degrees=(p,)))
    assert [r.method for r in reports] == ["etvol", "dgvol"]
    assert polyspace._shared.get() == {}  # nothing shared after the rung

    mesh = build_unit_square_mesh(4)
    n_boundary = len(mesh.boundary_faces["element"])
    gram_volume = (mesh.n_elements, quadrature_rule(_gram_order(p)).weights.size, 2)
    data_volume = (mesh.n_elements, quadrature_rule(_data_order(p)).weights.size, 2)
    data_boundary = (n_boundary, edge_quadrature_rule(_data_order(p)).nodes.size, 2)

    def of_shape(shape):
        return [(inside, orders) for inside, orders, (_, s, *_) in builds if s == shape]

    assert of_shape(data_volume) == [(False, (_data_order(p),))]
    assert len(of_shape(data_boundary)) == 1
    assert of_shape(gram_volume) == [
        (True, (_data_order(p),)),
        (False, (_data_order(p), _gram_order(p))),
    ]
    # volume, plus, minus and boundary faces, each built by the assembly
    assembly_builds = [orders for inside, orders, _ in builds if inside]
    assert assembly_builds == [(_data_order(p),)] * 4
    repeats = Counter(inputs for _, _, inputs in builds)
    assert [inputs[1] for inputs, n in repeats.items() if n > 1] == [gram_volume]


def test_assembly_shares_tables_only_at_its_own_rule(monkeypatch):
    # below p = 14 the Gram rule is of lower order than the data rule: the
    # assembly neither reads nor fills an open data-rule set.  From p = 14
    # on both rules are of the largest order, so a rung's data-rule set
    # is also the assembly's, and its matrix is bitwise the one built
    # outside any scope
    assert _gram_order(13) < _data_order(13)
    assert _gram_order(14) == _data_order(14)
    mesh = build_unit_square_mesh(1)
    builds = []
    build = polyspace._monomial_tables

    def spy(*args):
        builds.append(args[2])
        return build(*args)

    def held():
        shared = polyspace._shared.get()[_data_order(p)]
        return {key: [id(item) for item in entry] for key, entry in shared.items()}

    monkeypatch.setattr(polyspace, "_monomial_tables", spy)
    for p in (3, 13):
        params = FormParameters(omega=1.0, p=p)
        with polyspace._shared_tables(_data_order(p)):
            polyspace._volume_tables(mesh, p, _data_order(p))
            before = held()
            builds.clear()
            harness.assemble_sipdg(mesh, params)
            assert held() == before and list(before) == [(id(mesh), "volume")]
        # volume, plus, minus and boundary faces, all built afresh
        assert builds == [p] * 4

    params = FormParameters(omega=1.0, p=14)
    alone = harness.assemble_sipdg(mesh, params)
    with polyspace._shared_tables(_data_order(14)):
        shared = harness.assemble_sipdg(mesh, params)
        filled = polyspace._shared.get()[_data_order(14)]
        assert sorted(where for _, where in filled) == [
            "element", "minus", "plus", "volume",
        ]
    for name in ("data", "indices", "indptr"):
        assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes()
    assert shared.shape == alone.shape


@pytest.mark.parametrize(
    "case,mesh",
    [
        (sinsin_case(1.0), build_unit_square_mesh(4)),
        (plane_wave_case(100.0), build_unit_disk_mesh(4)),
    ],
    ids=["sinsin", "planewave-w100"],
)
def test_rung_rows_bitwise_those_of_solve_and_the_norms(case, mesh):
    # the rung's shared tables change no bit: at p=3 its rows equal solve
    # and the two norms run with no scope open (sinsin shares the load,
    # the particular field and both norms; the plane wave has no source)
    p = 3
    params = FormParameters(omega=case.omega, p=p)
    methods = ("embedded", "standard")
    rows = harness._rung(case, params, mesh, 0, "rung", methods)
    assert polyspace._shared.get() == {}
    solved = solve(mesh, params, case.f, case.g, methods, "rung")
    expected = [
        ErrorReport(
            METHOD_TAGS[method],
            p,
            mesh.max_diameter,
            0,
            fld.dofs,
            l2_error(fld, case),
            dg_error(fld, case),
            case.omega_report,
            dofs_per_wavelength(fld.dofs, case.omega_representative, mesh.domain_area),
        )
        for method, fld in solved.items()
    ]
    assert [r.method for r in rows] == ["etvol", "dgvol"]
    for got, want in zip(rows, expected, strict=True):
        assert [repr(v) for v in vars(got).values()] == [
            repr(v) for v in vars(want).values()
        ]


@pytest.mark.parametrize("methods", [("embedded", "standard"), ("standard", "embedded")])
@pytest.mark.parametrize("p", [3, 6])
def test_nothing_dead_alive_at_the_first_factorization(p, methods, monkeypatch):
    # the first LU sets the peak memory: by then solve has built both
    # bases and dropped the local data, the raw kernel embedding and the
    # mass Grams
    refs = {}

    def keep(name):
        fn = getattr(harness, name)

        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            refs[name] = weakref.ref(out)
            return out

        monkeypatch.setattr(harness, name, kept)

    keep("all_local_trefftz")
    keep("_element_mass_grams")
    keep("build_global_embedding")
    alive = []
    splu = spla.splu

    def spy(*args, **kwargs):
        alive.append({name: ref() is not None for name, ref in refs.items()})
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    case = sinsin_case(1.0)
    params = FormParameters(omega=case.omega, p=p)
    solve(build_unit_square_mesh(2), params, case.f, case.g, methods)
    assert alive[0] == {
        "all_local_trefftz": False,
        "_element_mass_grams": False,
        "build_global_embedding": False,
    }


def test_run_experiment_leaves_nothing_shared(hankel_reports):
    assert polyspace._shared.get() == {}
