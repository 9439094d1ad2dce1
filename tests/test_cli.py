import csv
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

import sovlab
from sovlab.cli import parse_scalar, resolve_config, run
from sovlab.commands import main
from sovlab.errors import ConfigError


def test_parse_scalar_forms():
    assert parse_scalar("1/2") == 0.5
    assert parse_scalar(2) == 2.0 + 0j
    assert parse_scalar([1, -2]) == 1 - 2j
    assert parse_scalar(["3/4", "1/4"]) == 0.75 + 0.25j
    with pytest.raises(ConfigError):
        parse_scalar([1, 2, 3])
    with pytest.raises(ConfigError):
        parse_scalar(object())


def test_config_duplicate_twist_forms(tmp_path):
    cfg = {
        "sites": 2,
        "twist": {"matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "eigenvalues": [1, 2, 3]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        resolve_config(path)


def test_config_unknown_and_inapplicable_tasks():
    with pytest.raises(ConfigError):
        resolve_config(None, {"tasks": ["nonsense"]})
    with pytest.raises(ConfigError):
        resolve_config(None, {"algebra": "gl2", "tasks": ["ttcharges"]})


def test_config_explicit_values_roundtrip(tmp_path):
    cfg = {
        "sites": 1,
        "eta": [0, "1/2"],
        "xi": [[1, 0]],
        "twist": {"eigenvalues": [[1, 0], [2, 0], [3, 0]]},
        "reference": [[1, 0], [1, 0], [1, 0]],
        "tasks": ["yangbaxter"],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    resolved = resolve_config(path)
    assert resolved["eta"] == 0.5j
    assert resolved["twist"].case == "i"


def test_verify_cli_end_to_end(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["verify", "--suite", "yangbaxter,gram,measure", "-N", "2", "--seed", "7",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is True
    assert [r["task"] for r in report["results"]] == ["yangbaxter", "gram", "measure"]
    assert report["version"]
    assert report["config"]["seed"] == 7


def test_gl2_measure_csv_cells(tmp_path):
    """Two gl2 sites give a 4x4 coupling grid: 16 complex cells."""
    cfg = resolve_config(
        None,
        {"algebra": "gl2", "sites": 2, "seed": 3, "tasks": ["measure"], "out": str(tmp_path)},
    )
    report = run(cfg, echo=lambda *a, **k: None)
    assert report["all_passed"]
    rows = list(csv.reader(open(tmp_path / "gram.csv")))
    assert rows[0] == ["h\\k", "0", "1", "2", "3"]
    cells = [c for row in rows[1:] for c in row[1:]]
    assert len(cells) == 16
    for c in cells:
        re, im = (float(t) for t in c.split(","))


@pytest.mark.parametrize(
    "command, csv_files",
    [("gram", ["gram.csv", "measure.csv"]), ("measure", ["gram.csv", "measure.csv"]),
     ("scalar-product", [])],
)
def test_task_commands_write_outputs(tmp_path, command, csv_files):
    result = CliRunner().invoke(main, [command, "-N", "2", "--seed", "7", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "report.json").exists()
    for name in csv_files:
        assert (tmp_path / name).exists()


def test_default_run_caps_blas_threads(monkeypatch):
    monkeypatch.delenv("SOVLAB_THREADS", raising=False)
    cfg = resolve_config(None, {"sites": 1, "seed": 2, "tasks": ["yangbaxter"]})
    assert run(cfg, echo=lambda *a, **k: None)["thread_cap"] == 1


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
@pytest.mark.parametrize("command", [["verify", "-N", "1"],
                                     ["bench", "--n-min", "1", "--n-max", "1"]])
def test_malformed_thread_cap_exits_with_a_diagnostic(tmp_path, monkeypatch, value, command):
    """A SOVLAB_THREADS that is not an integer >= 1 is rejected before any
    pool is looked up or output written: exit status 1 and one line."""
    from sovlab import cli

    def no_pools():
        raise AssertionError("a pool was looked up")
    monkeypatch.setattr(cli, "_openblas_pools", no_pools)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, command + ["--out", str(out)],
                                env={"SOVLAB_THREADS": value})
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    line = f"Error: config error: SOVLAB_THREADS must be an integer >= 1, got {value!r}"
    assert result.output == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [None, ""])
def test_unset_or_empty_thread_cap_keeps_the_default(monkeypatch, value):
    """Unset or empty, SOVLAB_THREADS leaves one thread by default and no cap
    under --parallel."""
    from sovlab.cli import _thread_limit

    if value is None:
        monkeypatch.delenv("SOVLAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("SOVLAB_THREADS", value)
    assert (_thread_limit(), _thread_limit(parallel=True)) == (1, None)
    cfg = resolve_config(None, {"sites": 1, "seed": 2, "tasks": ["yangbaxter"]})
    assert run(cfg, echo=lambda *a, **k: None)["thread_cap"] == 1


def test_fresh_import_loads_no_scipy():
    """numpy is the library's only runtime dependency, and click that of the
    command line alone: a fresh process importing ``sovlab.cli`` and running
    a task loads neither scipy nor click, and the default run still caps the
    OpenBLAS pool numpy brings."""
    code = (
        "import sys\n"
        "import sovlab.cli as cli\n"
        "assert 'scipy' not in sys.modules, 'import loaded scipy'\n"
        "assert 'click' not in sys.modules, 'import loaded click'\n"
        "cfg = cli.resolve_config(None, {'sites': 1, 'seed': 2, 'tasks': ['yangbaxter']})\n"
        "print(cli.run(cfg, echo=lambda *a, **k: None)['thread_cap'])\n"
        "assert 'scipy' not in sys.modules, 'run loaded scipy'\n"
        "assert 'click' not in sys.modules, 'run loaded click'\n"
    )
    env = dict(os.environ)
    env.pop("SOVLAB_THREADS", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sovlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_report_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        cfg = resolve_config(
            None,
            {"sites": 2, "seed": 5, "tasks": ["gram", "measure", "dual"], "out": str(out)},
        )
        run(cfg, echo=lambda *a, **k: None)
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    for r in (r1, r2):
        r.pop("timings")
        r["config"].pop("out")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_timings_block(monkeypatch):
    """The shared chain is built and timed before the first task; the timing
    block carries the transfer-cache counts: the dense assemblies are pinned,
    and the most node matrices held when a suite ends is the chain's 6
    (T_1 at its 2N nodes).  T_2 at a node is not stored, so fusion assembles
    again the 2N that building the chain read.  The assemblies' seconds per
    fusion order are part of the workspace and task times."""
    from sovlab import cli

    built = []
    original = cli.run_task

    def spy(name, ws, *args, **kwargs):
        built.append("gl3" in ws._cache)
        return original(name, ws, *args, **kwargs)

    monkeypatch.setattr(cli, "run_task", spy)
    cfg = resolve_config(None, {"sites": 3, "seed": 7, "tasks": ["fusion", "bases", "det0"]})
    timings = run(cfg, echo=lambda *a, **k: None)["timings"]
    assert built == [True, True, True]
    assert timings["workspace"] > 0
    assert list(timings["tasks"]) == ["fusion", "bases", "det0"]
    counts = timings["transfer_cache"]
    assert counts["misses"] == sum(counts["assemblies"].values()) == 64
    assert counts["assemblies"] == {"m1": 22, "m2": 34, "m3": 8}
    assert counts["peak_stored"] == 6
    seconds = counts["assembly_s"]
    assert list(seconds) == ["m1", "m2", "m3"] and min(seconds.values()) >= 0
    assert sum(seconds.values()) <= timings["workspace"] + sum(timings["tasks"].values())


def test_one_lapack_eig_per_decomposition(monkeypatch):
    """A full three-site run diagonalizes three matrices: the companion and
    invertible-twist T_1 at the probe point, with one LAPACK call per
    twist-weight sector (10 each for case-i twists at N = 3), and the gl(2)
    transfer matrix with one."""
    import numpy as np

    from sovlab import det0_spectrum, gl2_model, gl3_model, numkernel

    counts = {"eig": 0, "eig_general": 0}
    real_eig, real_eig_general = np.linalg.eig, numkernel.eig_general

    def eig(a):
        counts["eig"] += 1
        return real_eig(a)

    def eig_general(*args, **kwargs):
        counts["eig_general"] += 1
        return real_eig_general(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", eig)
    for module in (numkernel, det0_spectrum, gl2_model, gl3_model):
        monkeypatch.setattr(module, "eig_general", eig_general)
    report = run(resolve_config(None, {"sites": 3, "seed": 7}), echo=lambda *a, **k: None)
    assert len(report["results"]) == 12
    assert counts == {"eig": 10 + 10 + 1, "eig_general": 3}


def test_one_transfer_cache_per_chain(monkeypatch):
    """A full three-site run builds one transfer cache per chain: the chain,
    its K-hat companion, the other-twist chain of the twist-independence
    check, and the gl(2) chain.  The report counts every dense assembly of
    the four caches as a miss, and their number is pinned: the gl(2) chain's
    7 (T_1 at the three xi_a, the three xi_a - eta and the probe point) are
    among the m1 ones."""
    from sovlab import gl3_model

    built = Counter()
    cls = gl3_model.TransferCache

    def init(self, params, _init=cls.__init__):
        built[cls.__name__] += 1
        _init(self, params)
    monkeypatch.setattr(cls, "__init__", init)
    assembled = Counter()
    real_transfer = gl3_model.transfer

    def transfer(params, m, lam):
        assembled[f"m{m}"] += 1
        return real_transfer(params, m, lam)

    monkeypatch.setattr(gl3_model, "transfer", transfer)
    report = run(resolve_config(None, {"sites": 3, "seed": 7}), echo=lambda *a, **k: None)
    assert len(report["results"]) == 12
    assert not any(res["retries"] for res in report["results"])
    assert built == {"TransferCache": 4}
    counts = report["timings"]["transfer_cache"]
    assert counts["assemblies"] == assembled == {"m1": 52, "m2": 55, "m3": 8}
    assert counts["misses"] == sum(assembled.values()) == 115


def test_caches_keep_only_node_matrices(monkeypatch):
    """When each suite of a full three-site run ends, every transfer cache
    holds only T_1 at the nodes xi_a and xi_a - eta of its chain, at most 2N
    of them, and the report gives the largest total; after the run every
    store is empty."""
    from sovlab import gl3_model
    from sovlab.suites import Workspace

    caches = []
    cls = gl3_model.TransferCache

    def init(self, params, _init=cls.__init__):
        caches.append(self)
        _init(self, params)
    monkeypatch.setattr(cls, "__init__", init)
    held = []
    release = Workspace.release_nodes

    def check_then_release(ws):
        for cache in caches:
            params = cache.params
            nodes = {x - shift for x in params.xi for shift in (0, params.eta)}
            assert all(m == 1 and lam in nodes for m, lam in cache._store)
            assert len(cache._store) <= 2 * params.sites
        held.append(sum(len(cache._store) for cache in caches))
        release(ws)
    monkeypatch.setattr(Workspace, "release_nodes", check_then_release)
    report = run(resolve_config(None, {"sites": 3, "seed": 7}), echo=lambda *a, **k: None)
    assert len(caches) == 4 and len(held) == 12
    assert report["timings"]["transfer_cache"]["peak_stored"] == max(held) == 6
    assert not any(cache._store for cache in caches)


def test_other_twist_chain_is_counted_and_released():
    """The twist-independence check's chain stays in the workspace's counts
    but not in its memory: its matrices are dropped once read."""
    from sovlab.suites import Workspace, run_task

    ws = Workspace("gl3", 3, 7)
    assert run_task("measure", ws, {}).passed
    chain, other = ws.gl3()[0], ws.other_twist_chain()
    assert other.misses and not other._store
    assert ws.cache_counts()["misses"] == sum(chain.misses.values()) + sum(other.misses.values())


def test_node_matrices_live_for_one_suite():
    """Each suite of a full three-site run ends with every transfer cache's
    node store empty, while the hit and miss counts and the workspace's
    memos, its pairs among them, stay."""
    from sovlab.suites import SUITES, Workspace, run_task

    ws = Workspace("gl3", 3, 7)
    cache, _, pair = ws.build()
    assert cache.stored > 0
    seen = ws.cache_counts()
    for name in SUITES:
        run_task(name, ws, {})
        assert not any(c._store for c in ws._chains)
        counts = ws.cache_counts()
        assert counts["hits"] >= seen["hits"] and counts["misses"] >= seen["misses"]
        seen = counts
        assert ws.gl3()[2] is pair
    assert len(ws._chains) == 4


def test_a_run_builds_each_pair_once(monkeypatch):
    """A full three-site gl3 run builds three dressed pairs (the chain's, its
    K-hat companion's and the other twist's), one power pair and one set of
    gl(2) bases; every other reader takes the pair the workspace keeps."""
    from sovlab import gl2_model, suites

    built = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def build(*args):
            built[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, build)

    counted(suites, "dressed_pair")
    counted(suites, "power_pair")
    counted(gl2_model, "gl2_bases")
    run(resolve_config(None, {"sites": 3, "seed": 7}), echo=lambda *a, **k: None)
    assert built == {"dressed_pair": 3, "power_pair": 1, "gl2_bases": 1}


def test_a_resampled_chain_is_counted_and_dropped(monkeypatch):
    """At N = 4, seed 88 the first chain fails its rank check and is
    resampled.  The report's misses are every call of ``gl3_model.transfer``,
    the failed chain's 3N node assemblies included, and the failed chain's
    store is dropped when it fails, so the peak stays one chain's 2N."""
    from sovlab import gl3_model
    from sovlab.suites import Workspace

    assembled = Counter()
    real_transfer = gl3_model.transfer

    def transfer(params, m, lam):
        assembled[f"m{m}"] += 1
        return real_transfer(params, m, lam)

    monkeypatch.setattr(gl3_model, "transfer", transfer)
    report = run(resolve_config(None, {"sites": 4, "seed": 88}), echo=lambda *a, **k: None)
    assert [r["seed"] for r in report["results"][0]["retries"]] == [88]
    counts = report["timings"]["transfer_cache"]
    assert counts["assemblies"] == assembled
    assert counts["misses"] == sum(assembled.values()) == 151
    assert counts["peak_stored"] == 8

    ws = Workspace("gl3", 4, 88)
    cache = ws.gl3()[0]
    failed = ws._chains[0]
    assert failed is not cache and failed.misses == {1: 4, 2: 8}
    assert not failed._store


def test_inhomogeneities_two_eta_apart_resample_without_warnings():
    """Seed 193 at N = 3 samples xi_3 - xi_1 = 2 eta, where d(xi_3 - 2 eta),
    by which the reference vector and the measure divide, is zero.  The chain
    is resampled on that named error before any division; tier-1 turns a
    RuntimeWarning into an error, so a division by zero would fail here."""
    report = run(resolve_config(None, {"sites": 3, "seed": 193}), echo=lambda *a, **k: None)
    reason = "sites 3 and 1 have xi_3 - xi_1 = 2 eta, so d(xi_3 - 2 eta) = 0"
    for res in report["results"]:
        assert res["retries"] == [{"seed": 193, "reason": reason}]


def test_configured_inhomogeneities_two_eta_apart_fail_each_gl3_task():
    """A configured chain is not resampled: each gl(3) task fails with the
    one error line, and the gl(2) chain on the same eta and xi still runs."""
    cfg = resolve_config(None, {"sites": 2, "seed": 7, "eta": 1, "xi": [2, 0]})
    report = run(cfg, echo=lambda *a, **k: None)
    line = "DoubleShift: sites 1 and 2 have xi_1 - xi_2 = 2 eta, so d(xi_1 - 2 eta) = 0"
    errors = {res["task"]: res["details"].get("error") for res in report["results"]}
    assert errors.pop("gl2") is None
    assert set(errors.values()) == {line} and len(errors) == 11


def test_a_configured_chain_that_fails_is_built_once(monkeypatch):
    """N = 4, seed 88's first chain, given explicitly, fails its rank check
    and is not resampled.  The workspace keeps the error: the chain's 3N
    nodes are assembled and its two families rank-checked once, and each of
    the 11 gl(3) tasks reports the same SingularBasis line."""
    from sovlab import gl3_model, sov_bases
    from sovlab.sampling import ParameterSampler

    s = ParameterSampler(88)  # the draws of Workspace._sample_gl3, in its order
    eta = s.shift()
    eigs, w = s.distinct_eigenvalues(), s.invertible3()
    xi, xyz = s.inhomogeneities(4, eta), s.reference3()

    def pairs(values):
        return [[v.real, v.imag] for v in values]

    cfg = resolve_config(None, {
        "sites": 4, "seed": 88, "eta": [eta.real, eta.imag], "xi": pairs(xi),
        "twist": {"w": [pairs(row) for row in w],
                  "k_jordan": [pairs(row) for row in np.diag(eigs)]},
        "reference": pairs(xyz)})
    caches, checked = [], []
    cls = gl3_model.TransferCache

    def init(self, params, _init=cls.__init__):
        caches.append(self)
        _init(self, params)
    monkeypatch.setattr(cls, "__init__", init)
    rank_ratio = sov_bases.rank_ratio
    monkeypatch.setattr(sov_bases, "rank_ratio", lambda a: checked.append(a) or rank_ratio(a))
    report = run(cfg, echo=lambda *a, **k: None)
    errors = {res["task"]: res["details"].get("error") for res in report["results"]}
    assert errors.pop("gl2") is None
    assert len(errors) == 11 and len(set(errors.values())) == 1
    assert next(iter(errors.values())).startswith("SingularBasis: basis rank ratios")
    gl3_chains = [c for c in caches if isinstance(c.params.twist, gl3_model.TwistData)]
    assert len(gl3_chains) == 1 and gl3_chains[0].misses == {1: 4, 2: 8}
    assert len(checked) == 2


def test_a_node_reread_within_a_suite_is_a_hit():
    """After fusion has released the chain's nodes, bases assembles T_1 at
    its three nodes xi_a once each and reads them nine times more from the
    store."""
    from sovlab.suites import Workspace, run_task

    ws = Workspace("gl3", 3, 7)
    run_task("fusion", ws, {})
    cache = ws.gl3()[0]
    hits, misses = cache.hits.copy(), cache.misses.copy()
    assert run_task("bases", ws, {}).passed
    assert (cache.hits - hits, cache.misses - misses) == ({1: 9}, {1: 3})


def test_a_suite_failing_with_a_chain_error_still_releases(monkeypatch):
    """``run_task`` empties the node stores however the suite ends: after
    the chain error of xi one sampled eta apart, and after an error raised
    once the chain's nodes are stored."""
    from sovlab import suites
    from sovlab.errors import NonGeneric

    released = []
    release = suites.Workspace.release_nodes

    def spy(ws):
        released.append(ws)
        release(ws)
    monkeypatch.setattr(suites.Workspace, "release_nodes", spy)
    cfg = resolve_config(None, {"sites": 2, "seed": 7, "xi": [0, [1.375, 0.375]],
                                "tasks": ["fusion", "bases"]})
    report = run(cfg, echo=lambda *a, **k: None)
    assert all(res["details"]["error"].startswith("NonGeneric") for res in report["results"])
    assert len(released) == 2

    ws = suites.Workspace("gl3", 2, 7)
    cache = ws.build()[0]
    assert cache.stored > 0

    def fails(ws, tol):
        raise NonGeneric("raised with the nodes stored")
    monkeypatch.setitem(suites.SUITES, "fusion", fails)
    res = suites.run_task("fusion", ws, {})
    assert res.details["error"].startswith("NonGeneric")
    assert not cache._store and len(released) == 3


def test_ttcharges_forms_dense_charges_only_for_its_operator_checks(monkeypatch):
    """A three-site ttcharges run evaluates seven dense charges: three for
    the commutation check and N + 1 for the central zeros.  The bases and
    the fusion check read the companion eigenvalues instead."""
    from sovlab import tt_charges

    calls = []
    real_charge = tt_charges.ChargeFamily.charge

    def charge(self, tj):
        calls.append(tj)
        return real_charge(self, tj)

    monkeypatch.setattr(tt_charges.ChargeFamily, "charge", charge)
    report = run(resolve_config(None, {"sites": 3, "seed": 7, "tasks": ["ttcharges"]}),
                 echo=lambda *a, **k: None)
    assert report["results"][0]["task"] == "ttcharges"
    assert len(calls) == 7


def test_unbuildable_chain_is_reported_per_task():
    cfg = resolve_config(None, {"sites": 2, "seed": 7, "reference": [0, 1, 1],
                                "tasks": ["yangbaxter", "bases"]})
    report = run(cfg, echo=lambda *a, **k: None)
    assert not report["all_passed"]
    for res in report["results"]:
        assert res["details"]["error"].startswith("DegenerateReference")


def test_a_det_k_zero_twist_fails_bases_and_writes_the_report(tmp_path):
    """A configured twist with det K = 0 makes the transfer product behind
    the variant relation singular: `bases` fails on DetKZero, and the run
    still lists every default task and writes its report."""
    from sovlab.suites import SUITES

    config = tmp_path / "det0.json"
    config.write_text(json.dumps({"sites": 3, "twist": {"eigenvalues": [1, 2, 0]}}))
    result = CliRunner().invoke(
        main, ["verify", "--all", "--config", str(config), "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["task"] for r in report["results"]] == list(SUITES)
    results = {r["task"]: r for r in report["results"]}
    assert results["bases"]["details"]["error"].startswith("DetKZero")


def test_failing_task_sets_exit_code(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["verify", "--suite", "gram", "-N", "2", "--seed", "7", "--tol", "1e-30",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 1
    assert not json.loads((tmp_path / "report.json").read_text())["all_passed"]


def test_bench_records_size_cap(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["bench", "--n-min", "4", "--n-max", "4", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["dense_status"] == "ok"
    assert float(rows[0]["linearity_residual"]) <= 1e-12
    assert float(rows[0]["dense_residual"]) <= 1e-12

    result = runner.invoke(
        main, ["bench", "--n-min", "9", "--n-max", "9", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["dense_status"] == "SizeCap"
    assert rows[0]["dense_seconds"] == ""
    assert rows[0]["dense_residual"] == ""


def test_bench_rejects_an_empty_range(tmp_path):
    result = CliRunner().invoke(
        main, ["bench", "--n-min", "5", "--n-max", "4", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "--n-max 4 is below --n-min 5" in result.output
    assert not (tmp_path / "bench.csv").exists()


def test_bench_rejects_a_chain_without_sites(tmp_path):
    result = CliRunner().invoke(
        main, ["bench", "--n-min", "0", "--n-max", "1", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "--n-min" in result.output
    assert not (tmp_path / "bench.csv").exists()


def test_bench_linearity_sees_an_antilinear_term(tmp_path, monkeypatch):
    """The linearity column compares T(c v) with c T(v) for a non-real c, so
    an added 1e-3 conj(v), which commutes with real scalings, is seen."""
    import numpy as np

    from sovlab import commands

    exact = commands.fused_apply
    monkeypatch.setattr(commands, "fused_apply",
                        lambda params, m, lam, vec: exact(params, m, lam, vec) + 1e-3 * np.conj(vec))
    result = CliRunner().invoke(main, ["bench", "--n-min", "4", "--n-max", "4",
                                       "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["linearity_residual"]) >= 1e-6


def test_report_command(tmp_path):
    """`sovlab report` prints exactly the task lines `run` echoed."""
    cfg = resolve_config(None, {"sites": 2, "seed": 7, "tasks": ["yangbaxter", "gram"],
                                "tolerances": {"gram": 1e-30}, "out": str(tmp_path)})
    echoed = []
    run(cfg, echo=echoed.append)
    runner = CliRunner()
    result = runner.invoke(main, ["report", str(tmp_path / "report.json")])
    assert result.exit_code == 0
    assert result.output.splitlines()[1:] == echoed
    assert echoed[0].startswith("yangbaxter") and " pass " in echoed[0]
    assert echoed[1].startswith("gram") and " FAIL " in echoed[1]


def test_verify_all_lists_every_suite(tmp_path):
    from sovlab.suites import SUITES

    runner = CliRunner()
    result = runner.invoke(
        main, ["verify", "--all", "-N", "2", "--seed", "7", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["task"] for r in report["results"]] == list(SUITES)
    assert report["all_passed"] is True


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 14))
def test_four_site_suites_pass(seed):
    from sovlab.suites import SUITES

    report = run(resolve_config(None, {"sites": 4, "seed": seed}), echo=lambda *a, **k: None)
    assert [r["task"] for r in report["results"]] == list(SUITES)
    failed = [r["task"] for r in report["results"] if not r["passed"]]
    assert failed == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 14))
def test_gl2_suites_pass(seed):
    cfg = resolve_config(None, {"algebra": "gl2", "sites": 4, "seed": seed})
    report = run(cfg, echo=lambda *a, **k: None)
    assert [r["task"] for r in report["results"]] == ["gram", "measure", "gl2"]
    failed = [r["task"] for r in report["results"] if not r["passed"]]
    assert failed == []


@pytest.mark.parametrize("extra", [{"twist": {"eigenvalues": [1, 2, "3/2"]}},
                                   {"reference": [1, 2, 3]}], ids=["twist", "reference"])
def test_gl3_config_twist_and_reference_stay_off_the_gl2_chain(tmp_path, extra):
    """A gl3 config's twist and reference are gl(3) data: the gl2 suite of
    the run samples its own, and every suite is reported."""
    from sovlab.suites import SUITES

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sites": 2, "seed": 1, **extra}))
    result = CliRunner().invoke(
        main, ["verify", "--all", "--config", str(config), "--out", str(tmp_path)]
    )
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["task"] for r in report["results"]] == list(SUITES)
    gl2 = next(r for r in report["results"] if r["task"] == "gl2")
    assert "error" not in gl2["details"]


@pytest.mark.parametrize("extra", [
    {"twist": {"matrix": [[2, 1, 0], [0, "1/2", 0], [1, 0, [0, 1]]]}},
    {"twist": {"eigenvalues": [1, [0, 2], "3/2"]}},
    {"twist": {"w": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
               "k_jordan": [[2, 1, 0], [0, 2, 0], [0, 0, 3]]}},
    {"algebra": "gl2", "twist": {"matrix": [[1, "1/2"], [[0, 1], 2]]}},
    {},
], ids=["gl3-matrix", "gl3-eigenvalues", "gl3-jordan", "gl2-matrix", "no-twist"])
def test_report_config_block_is_the_config_field_by_field(extra):
    """The report's ``config`` is ``_encode`` of the resolved configuration,
    with the bytes of the field-by-field digest for every twist form."""
    from oracles import config_digest

    cfg = resolve_config(None, {"sites": 1, "seed": 3, "eta": [0, "1/2"], "xi": [[1, 0]],
                                "tasks": ["yangbaxter"], **extra})
    report = run(cfg, echo=lambda *a, **k: None)
    assert json.dumps(report["config"], sort_keys=True) == \
        json.dumps(config_digest(cfg), sort_keys=True)


MALFORMED = {
    "gl3-matrix-2x2": {"twist": {"matrix": [[1, 2], [3, 4]]}},
    "gl3-two-eigenvalues": {"twist": {"eigenvalues": [1, 2]}},
    "gl3-repeated-eigenvalues": {"twist": {"eigenvalues": [1, 1, 2]}},
    "gl3-matrix-repeated-spectrum": {"twist": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}},
    "gl2-matrix-3x3": {"algebra": "gl2",
                       "twist": {"matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}},
    "gl2-identity-twist": {"algebra": "gl2", "twist": {"matrix": [[1, 0], [0, 1]]}},
    "coinciding-xi": {"xi": [0, 0]},
    "zero-eta": {"eta": 0},
    "tolerance-not-a-number": {"tolerances": {"gram": "abc"}},
    "eta-divides-by-zero": {"eta": "1/0"},
    "sites-not-a-number": {"sites": "two"},
    "w-without-k-jordan": {"twist": {"w": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
    "sites-fractional": {"sites": 2.5},
    "sites-boolean": {"sites": True},
    "seed-fractional": {"seed": 7.9},
    "seed-negative": {"seed": -1},
    "parallel-not-a-boolean": {"parallel": "no"},
    "eta-boolean": {"eta": True},
    "reference-boolean": {"reference": [1, True, 1]},
    "tolerance-boolean": {"tolerances": {"gram": True}},
    "xi-mapping-typo": {"xi": {"sed": 3}},
    "xi-mapping-seed": {"xi": {"seed": 3}},
}


@pytest.mark.parametrize("extra", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_with_a_diagnostic(tmp_path, extra):
    """Config data that cannot build a chain is rejected before any task
    runs: exit status 1, one diagnostic line, no traceback, no output."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sites": 2, "seed": 7, **extra}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["verify", "--config", str(config), "--out", str(out)])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.output.startswith("Error: config error: ")
    assert len(result.output.strip().splitlines()) == 1, result.output
    assert not out.exists()


def test_configured_out_must_be_a_string(tmp_path, monkeypatch):
    """A configured ``out`` that is not a directory name is one diagnostic
    line and exit status 1; without ``--out`` the configured one is read."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sites": 1, "seed": 7, "tasks": ["fusion"], "out": 5}))
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["verify", "--config", str(config)])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.output == "Error: config error: out must be a directory name, got 5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_negative_seed_option_exits_with_a_diagnostic():
    result = CliRunner().invoke(main, ["verify", "-N", "2", "--seed", "-1"])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.output == "Error: config error: seed must be an integer >= 0, got -1\n"


def test_unknown_tolerance_key_is_rejected():
    with pytest.raises(ConfigError, match="known: .*'gram'"):
        resolve_config(None, {"tolerances": {"gram ": 1e-30}})


def test_inhomogeneities_generic_only_with_the_sampled_eta_fail_per_task():
    """Configured xi that are distinct but one sampled eta apart are a chain
    error of every task, not a crash (seed 7 samples eta = 11/8 + 3/8 i)."""
    cfg = resolve_config(None, {"sites": 2, "seed": 7, "xi": [0, [1.375, 0.375]],
                                "tasks": ["fusion", "bases"]})
    report = run(cfg, echo=lambda *a, **k: None)
    assert not report["all_passed"]
    for res in report["results"]:
        assert res["details"]["error"].startswith("NonGeneric")


def test_gl2_run_counts_its_transfer_assemblies():
    """A gl2 run's transfer cache is counted in its report: T_1 at the N
    nodes xi_a, the N nodes xi_a - eta and the probe point, and the 2N nodes
    again in the gl2 suite, as the workspace empties the store after gram."""
    report = run(resolve_config(None, {"algebra": "gl2", "sites": 4, "seed": 7}),
                 echo=lambda *a, **k: None)
    counts = report["timings"]["transfer_cache"]
    assert counts["assemblies"] == {"m1": 17, "m2": 0, "m3": 0}
    assert counts["misses"] == 17 and counts["hits"] > 0


BAD_TOLERANCES = {"nan": float("nan"), "negative": -1.0, "inf": float("inf")}


@pytest.mark.parametrize("via", ["config", "--tol"])
@pytest.mark.parametrize("tol", BAD_TOLERANCES.values(), ids=BAD_TOLERANCES.keys())
def test_tolerance_must_be_finite_and_not_negative(tmp_path, tol, via):
    """A NaN or negative tolerance fails a suite and an infinite one passes
    it, whatever the suite computes: each is rejected before any task runs."""
    config = {"sites": 1, "seed": 2, "tasks": ["yangbaxter"]}
    args = ["verify", "--out", str(tmp_path / "out")]
    if via == "config":
        config["tolerances"] = {"yangbaxter": tol}
    else:
        args += ["--tol", repr(tol)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = CliRunner().invoke(main, args + ["--config", str(path)])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.output.startswith("Error: config error: tolerances must be finite")
    assert len(result.output.strip().splitlines()) == 1, result.output
    assert not (tmp_path / "out").exists()
