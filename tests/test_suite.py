"""Tests for the suite runner: all-hold verification, fuzzing, report
determinism, and the quarantine/replay loop."""

import ast
import hashlib
import json
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oplab
import oplab.theorem_lab as theorem_lab
from oplab import THEOREM_IDS, DomainError, GenerationError, TheoremVerdict, replay_quarantine, run_suite
from oplab.generators import GenSpec
from oplab.matrix_core import matrix_from_json

from conftest import patch_everywhere


def strip_timestamp(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "generated_at"}, sort_keys=True)


def test_verify_suite_all_hold(tmp_path):
    report = run_suite("verify", seed=11, count=6, dims=(4, 3), quarantine_dir=tmp_path / "q")
    assert report["failures"] == 0
    assert set(report["theorems"]) == set(THEOREM_IDS)
    for summary in report["theorems"].values():
        assert summary["instances"] == 6
        assert summary["premises_met"] == 6
        assert summary["holds"] == 6
    assert not (tmp_path / "q").exists()


def test_fuzz_suite_no_counterexamples(tmp_path):
    report = run_suite("fuzz", seed=5, count=12, dims=(4, 3), quarantine_dir=tmp_path / "q")
    assert report["failures"] == 0
    # fuzzing is allowed (expected) to produce vacuous instances
    vacuous = sum(1 for row in report["rows"] if not row["premises_met"])
    assert vacuous > 0


def test_rows_sorted_and_carry_genspec(tmp_path):
    report = run_suite("verify", seed=3, count=4, dims=(3, 2), quarantine_dir=tmp_path / "q")
    keys = [(row["theorem_id"], row["stream"]) for row in report["rows"]]
    assert keys == sorted(keys)
    for row in report["rows"]:
        assert row["gen"], "every row embeds the generating spec"
        for gen in row["gen"]:
            assert {"seed", "stream", "family", "dims", "params"} <= set(gen)


def test_reports_are_deterministic(tmp_path):
    a = run_suite("verify", seed=7, count=5, dims=(4, 3), quarantine_dir=tmp_path / "qa")
    b = run_suite("verify", seed=7, count=5, dims=(4, 3), quarantine_dir=tmp_path / "qb")
    assert strip_timestamp(a) == strip_timestamp(b)
    c = run_suite("verify", seed=8, count=5, dims=(4, 3), quarantine_dir=tmp_path / "qc")
    assert strip_timestamp(a) != strip_timestamp(c)


def test_repeated_fuzz_run_is_identical(tmp_path):
    first = run_suite("fuzz", seed=9, count=8, dims=(4, 3), quarantine_dir=tmp_path / "qa")
    second = run_suite("fuzz", seed=9, count=8, dims=(4, 3), quarantine_dir=tmp_path / "qb")
    assert strip_timestamp(first) == strip_timestamp(second)


def test_single_suite_selection(tmp_path):
    report = run_suite("verify", seed=2, count=3, dims=(3, 2),
                       suites=["power_stability"], quarantine_dir=tmp_path / "q")
    assert set(report["theorems"]) == {"power_stability"}
    assert len(report["rows"]) == 3


def test_suites_run_once_each_in_sorted_order(tmp_path):
    report = run_suite("verify", seed=2, count=3, dims=(3, 2), quarantine_dir=tmp_path / "q",
                       suites=["transform_bundle", "power_stability", "transform_bundle"])
    keys = [(row["theorem_id"], row["stream"]) for row in report["rows"]]
    assert keys == [(theorem_id, stream) for theorem_id in ("power_stability", "transform_bundle")
                    for stream in range(3)]
    recount = {}
    for row in report["rows"]:
        tally = recount.setdefault(row["theorem_id"],
                                   {"instances": 0, "premises_met": 0, "holds": 0, "failures": 0})
        tally["instances"] += 1
        tally["premises_met"] += row["premises_met"]
        tally["holds"] += row["premises_met"] and row["holds"]
        tally["failures"] += row["premises_met"] and not row["holds"]
    assert report["theorems"] == recount


def test_every_verifier_returns_a_theorem_verdict():
    from oplab.suite import _THEOREMS, _draw

    memo = {}
    for theorem_id, theorem in _THEOREMS.items():
        verifier = getattr(theorem_lab, theorem.verifier)
        for stream in range(4):
            inputs, params = theorem.verify(partial(_draw, memo, [], 1, stream), 1, stream, (3, 2))
            verdict = verifier(**inputs, **params)
            assert isinstance(verdict, TheoremVerdict), (theorem_id, stream)
            assert verdict.theorem_id == theorem_id


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("verify", seed=1, count=1, suites=["not_a_theorem"])
    with pytest.raises(KeyError, match="not_a_theorem"):
        run_suite("verify", seed=1, count=1, suites="not_a_theorem")
    with pytest.raises(ValueError):
        run_suite("replay", seed=1, count=1)


def test_a_string_suite_is_one_theorem_id(tmp_path):
    report = run_suite("verify", seed=2, count=2, dims=(3, 2), suites="power_stability",
                       quarantine_dir=tmp_path / "q")
    assert set(report["theorems"]) == {"power_stability"}
    listed = run_suite("verify", seed=2, count=2, dims=(3, 2), suites=["power_stability"],
                       quarantine_dir=tmp_path / "q")
    assert strip_timestamp(report) == strip_timestamp(listed)
    every = run_suite("verify", seed=2, count=1, dims=(3, 2), suites="all", quarantine_dir=tmp_path / "q")
    assert tuple(every["theorems"]) == THEOREM_IDS


@pytest.mark.parametrize("suites", [[], (), set()])
def test_an_empty_suite_selection_is_rejected(suites):
    with pytest.raises(ValueError, match="no theorem"):
        run_suite("verify", seed=1, count=1, suites=suites)


def test_quarantine_write_and_replay(tmp_path, monkeypatch):
    # force one premises-met failure through a patched verifier, then replay
    # the quarantined instance against the real one
    real = theorem_lab.verify_power_stability

    def failing(**kwargs):
        verdict = real(**kwargs)
        return TheoremVerdict(
            theorem_id=verdict.theorem_id,
            premises_met=verdict.premises_met,
            holds=False,
            witness=dict(verdict.witness),
        )

    monkeypatch.setattr(theorem_lab, "verify_power_stability", failing)
    report = run_suite("verify", seed=4, count=2, dims=(3, 2),
                       suites=["power_stability"], quarantine_dir=tmp_path / "q")
    assert report["failures"] == 2
    assert len(report["quarantine"]) == 2

    path = report["quarantine"][0]
    payload = json.loads(open(path).read())
    assert payload["theorem_id"] == "power_stability"
    assert payload["tolerance"] == {"rel_eps": 1e-10, "abs_eps": 1e-12}
    assert set(payload["inputs"]) == {"t", "p"}

    monkeypatch.undo()
    replayed = replay_quarantine(path)
    assert replayed["premises_met"] is True
    assert replayed["holds"] is True  # the genuine verifier confirms the instance


@pytest.mark.parametrize(
    "theorem_id, param, value, message",
    [
        ("power_stability", "n_max", 2.5, "n_max must be an integer, got 2.5"),
        ("sandwich_isometry", "m", 2.0, "defect order must be an integer, got 2.0"),
    ],
)
def test_replay_of_a_hand_edited_float_param_is_typed(tmp_path, monkeypatch, theorem_id, param, value, message):
    # a quarantine file whose integer param was edited into a float replays
    # to DomainError, not to range()'s TypeError
    verifier = getattr(theorem_lab, oplab.suite._THEOREMS[theorem_id].verifier)

    def failing(**kwargs):
        verdict = verifier(**kwargs)
        return TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, verifier.__name__, failing)
    report = run_suite("verify", seed=4, count=1, dims=(3, 2), suites=[theorem_id], quarantine_dir=tmp_path / "q")
    monkeypatch.undo()
    path = Path(report["quarantine"][0])
    payload = json.loads(path.read_text())
    payload["params"][param] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(DomainError, match=f"^{message}$"):
        replay_quarantine(path)


def test_quarantine_inputs_round_trip_exactly(tmp_path, monkeypatch):
    captured = {}
    real = theorem_lab.verify_two_expansive_isometry

    def failing(t, p, tol):
        captured["t"] = np.array(t, copy=True)
        verdict = real(t, p, tol=tol)
        return TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, "verify_two_expansive_isometry", failing)
    report = run_suite("verify", seed=6, count=1, dims=(3, 2),
                       suites=["two_expansive_isometry"], quarantine_dir=tmp_path / "q")
    payload = json.loads(open(report["quarantine"][0]).read())
    stored = matrix_from_json(payload["inputs"]["t"])
    assert np.array_equal(stored, captured["t"])


def test_quarantine_file_is_stdlib_json_and_replays(tmp_path, monkeypatch):
    real = theorem_lab.verify_transform_bundle
    verdicts = []

    def failing(**kwargs):
        verdict = real(**kwargs)
        verdicts.append(verdict)
        return TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, "verify_transform_bundle", failing)
    report = run_suite("verify", seed=5, count=2, dims=(3, 2),
                       suites=["transform_bundle"], quarantine_dir=tmp_path / "q")
    assert report["failures"] == 2
    monkeypatch.undo()
    for path, verdict in zip(report["quarantine"], verdicts):
        text = open(path).read()
        payload = json.loads(text)
        with open(tmp_path / "stdlib.json", "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
        assert text == (tmp_path / "stdlib.json").read_text()
        replayed = replay_quarantine(path)
        assert replayed == {
            "theorem_id": "transform_bundle",
            "premises_met": verdict.premises_met,
            "holds": verdict.holds,
            "witness": verdict.witness,
        }


@pytest.mark.parametrize("inputs,witness,error", [
    ({"t": np.array([[np.inf, 0.0], [0.0, 1.0]])}, {}, DomainError),
    ({"t": np.eye(2, dtype=complex)}, {"x": object()}, TypeError),
])
@pytest.mark.parametrize("existing", [None, "earlier file\n"])
def test_a_rejected_quarantine_payload_leaves_the_file_as_it_was(tmp_path, inputs, witness, error, existing):
    # the payload is checked before the file is opened: no empty or cut-short file
    from oplab.matrix_core import DEFAULT_TOL
    from oplab.suite import write_quarantine

    row = {"theorem_id": "power_stability", "seed": 1, "stream": 2, "gen": {}, "params": {}, "witness": witness}
    path = tmp_path / "verify-power_stability-1-000002.json"
    if existing is not None:
        path.write_text(existing)
    with pytest.raises(error):
        write_quarantine(tmp_path, "verify", row, inputs, DEFAULT_TOL)
    assert (path.read_text() if path.exists() else None) == existing
    assert len(list(tmp_path.iterdir())) == (existing is not None)


def test_quarantine_files_of_different_runs_do_not_collide(tmp_path, monkeypatch):
    # a verify and a fuzz run at different seeds quarantine the same streams
    # of one theorem into one directory; every file survives and replays to
    # the row of the report that names it
    real = theorem_lab.verify_power_stability

    def failing(**kwargs):
        verdict = real(**kwargs)
        return TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, "verify_power_stability", failing)
    reports = [run_suite(mode, seed=seed, count=4, dims=(3, 2), suites="power_stability",
                         quarantine_dir=tmp_path / "q")
               for mode, seed in (("verify", 1), ("fuzz", 2))]
    monkeypatch.undo()
    assert [report["failures"] for report in reports] == [4, 2]
    paths = [Path(path) for report in reports for path in report["quarantine"]]
    assert sorted(path.name for path in paths) == sorted(path.name for path in (tmp_path / "q").iterdir())
    assert len(set(paths)) == 6
    for report in reports:
        for row in report["rows"]:
            if "quarantine" not in row:
                continue
            payload = json.loads(Path(row["quarantine"]).read_text())
            assert (payload["stream"], payload["gen"]) == (row["stream"], row["gen"])
            replayed = replay_quarantine(row["quarantine"])
            assert replayed["premises_met"] and replayed["witness"] == row["witness"]


@pytest.mark.parametrize("mode", ["verify", "fuzz"])
def test_reports_unchanged_by_the_spectral_norm_kernel(tmp_path, monkeypatch, mode):
    import oplab.matrix_core as matrix_core_mod

    def report_text(quarantine):
        report = run_suite(mode, seed=1, count=25, dims=(4, 3), quarantine_dir=tmp_path / quarantine)
        return matrix_core_mod.dumps_json({k: v for k, v in report.items() if k != "generated_at"})

    fast = report_text("fast")

    def reference_norm2(a):
        return float(np.linalg.norm(a, 2))

    patch_everywhere(monkeypatch, matrix_core_mod._norm2, reference_norm2)
    assert report_text("reference") == fast


def test_suite_defects_compute_on_checked_arrays(monkeypatch, tmp_path):
    # A DefectSpec is built where a caller's matrices enter, once per
    # instance of the four verifiers handed a weight, and each verifier gates
    # a weight once: 950 specs and 1,150 gates in verify, 650 and 850 in
    # fuzz, while every defect built its own spec.  Every other defect runs
    # the kernel on arrays oplab checked or built, with a weight that is
    # exactly self-adjoint.
    import oplab.expansivity as expansivity_mod
    import oplab.matrix_core as matrix_core_mod

    specs, gates, weights = [], [], []
    post_init = expansivity_mod.DefectSpec.__post_init__
    gate = matrix_core_mod._hermitian_gate
    kernel = expansivity_mod._defect_pass

    def counting_spec(spec):
        specs.append(None)
        post_init(spec)

    def counting_gate(a, tol):
        gates.append(None)
        return gate(a, tol)

    def recording_kernel(t, h, orders, tol):
        weights.append(np.array_equal(h, h.conj().T))
        return kernel(t, h, orders, tol)

    monkeypatch.setattr(expansivity_mod.DefectSpec, "__post_init__", counting_spec)
    patch_everywhere(monkeypatch, gate, counting_gate)
    patch_everywhere(monkeypatch, kernel, recording_kernel)
    for mode in ("verify", "fuzz"):
        for log in (specs, gates, weights):
            log.clear()
        run_suite(mode, seed=7, count=50, dims=(4, 3), quarantine_dir=tmp_path / mode)
        assert (len(specs), len(gates)) == (200, 250), mode
        assert weights and all(weights), mode


def test_verifiers_make_no_linalg_norm_call(monkeypatch):
    from oplab.matrix_core import DEFAULT_TOL
    from oplab.suite import _THEOREMS, _draw, _verdict

    # fixtures are drawn first: gen_haar_unitary's unitarity gate calls np.linalg.norm
    memo = {}
    instances = [
        (theorem_id, *_THEOREMS[theorem_id].verify(partial(_draw, memo, [], 1, stream), 1, stream, (4, 3)))
        for theorem_id in THEOREM_IDS
        for stream in range(25)
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.norm called by a verifier")

    monkeypatch.setattr(np.linalg, "norm", forbidden)
    for theorem_id, inputs, params in instances:
        assert _verdict(theorem_id, inputs, params, DEFAULT_TOL).holds


def test_fixture_streams_are_pinned(tmp_path):
    # A digest of the columns that name each instance and its outcome, taken
    # before the theorem table replaced three per-theorem tables.  The floats
    # in these columns are Philox draws and constants, none computed by BLAS,
    # so any change in which fixtures a seed names, or in the order of their
    # draws, changes the digest on every platform.
    columns = ("theorem_id", "stream", "gen", "params", "dims", "premises_met", "holds")
    rows = []
    for mode in ("verify", "fuzz"):
        report = run_suite(mode, seed=1, count=25, dims=(4, 3), quarantine_dir=tmp_path / mode)
        rows += [{name: row[name] for name in columns} for row in report["rows"]]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "5f5c3d4146c05ffd367c3283a58caaf12c8cd18171d3c441eaf50f6f71759fdd"


def _drawn(build, memo, seed, stream, dims) -> tuple:
    """The specs, params and input bits of one instance drawn through
    ``memo``, or the message of the GenerationError that stopped it."""
    from oplab.suite import _draw

    gens = []
    try:
        inputs, params = build(partial(_draw, memo, gens, seed, stream), seed, stream, dims)
    except GenerationError as exc:
        return gens, str(exc)
    return gens, params, {name: (a.dtype, a.shape, a.tobytes()) for name, a in inputs.items()}


@pytest.mark.parametrize("dims", [(4, 3), (3, 2), (16, 8)])
@pytest.mark.parametrize("mode", ["verify", "fuzz"])
def test_each_stream_draws_alone_what_the_whole_run_draws(mode, dims):
    # The CLI's split evaluates some streams in a child, each drawn with a
    # memo of its own: that gives the report's bits only while instance k
    # names fixtures of its own sub-streams k + j * 2**32 alone, and a
    # builder keeps no state across streams.  A builder that shares a
    # fixture across streams must fail here, not in a report.
    from oplab.suite import _THEOREMS

    count, seed = 8, 7
    run_memo = {}
    for theorem_id in THEOREM_IDS:
        build = getattr(_THEOREMS[theorem_id], mode)
        for stream in range(count):
            whole = _drawn(build, run_memo, seed, stream, dims)
            assert whole[0], (theorem_id, stream)
            assert all(gs.stream % 2**32 == stream for gs in whole[0]), (theorem_id, stream)
            assert _drawn(build, {}, seed, stream, dims) == whole, (theorem_id, stream)


def _without_floats(value):
    """``value`` with every float dropped, at any depth of dicts and lists."""
    if isinstance(value, dict):
        return {key: _without_floats(item) for key, item in value.items() if not isinstance(item, float)}
    if isinstance(value, list):
        return [_without_floats(item) for item in value if not isinstance(item, float)]
    return value


def test_weight_decomposition_verdicts_are_pinned_beyond_the_fixture_dims(tmp_path):
    # A digest of each instance's decision, taken before the verifier took
    # T^D = t1^-1 (+) 0 from its blocks instead of the rank-stabilization
    # formula on the composed T: the verdicts, the nilpotency index and every
    # non-float witness field, at dims where the Drazin index reaches 32.
    # Floats (eigenvalues, residual norms) may move in their last bits.
    columns = ("theorem_id", "stream", "premises_met", "holds", "witness")
    rows = []
    for mode, dims, seed, count in (("fuzz", (16, 8), 1, 40), ("verify", (64, 32), 7, 3)):
        report = run_suite(mode, seed=seed, count=count, dims=dims, suites="weight_decomposition",
                           quarantine_dir=tmp_path / mode)
        rows += [{name: _without_floats(row[name]) for name in columns} for row in report["rows"]]
    assert sum(row["premises_met"] for row in rows) == 25
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "ac9c55bf6b01be06db0f9418e3a9205947ae1c4dc169f9e59d451a9cb89213aa"


@pytest.fixture
def generate_calls(monkeypatch):
    """Counts the suite's ``generate`` calls per GenSpec."""
    import oplab.generators as generators_mod

    calls = Counter()
    real = generators_mod.generate

    def counting(spec):
        calls[spec] += 1
        return real(spec)

    monkeypatch.setattr(generators_mod, "generate", counting)
    return calls


def test_each_fixture_is_drawn_once_per_run(tmp_path, generate_calls):
    report = run_suite("fuzz", seed=5, count=25, dims=(4, 3), quarantine_dir=tmp_path / "q")
    specs = {GenSpec.from_json(gen) for row in report["rows"] for gen in row["gen"]}
    # fuzz recipes share each stream's operator, so specs repeat across rows
    assert sum(len(row["gen"]) for row in report["rows"]) > len(specs)
    assert generate_calls == Counter(dict.fromkeys(specs, 1))


def test_a_repeated_run_draws_every_fixture_again(tmp_path, generate_calls):
    first = run_suite("verify", seed=5, count=4, dims=(3, 2), quarantine_dir=tmp_path / "q")
    once = Counter(generate_calls)
    second = run_suite("verify", seed=5, count=4, dims=(3, 2), quarantine_dir=tmp_path / "q")
    assert strip_timestamp(first) == strip_timestamp(second)
    assert set(once.values()) == {1}
    assert generate_calls == once + once


def test_shared_fixtures_are_read_only(tmp_path, monkeypatch):
    from oplab.suite import _draw

    memo, gens = {}, []
    drawn = _draw(memo, gens, 1, 0, "drazin_pair", (3, 2), m=1)
    again = _draw(memo, gens, 1, 0, "drazin_pair", (3, 2), m=1)
    assert gens == [GenSpec(1, "drazin_pair", (3, 2), 0, {"m": 1})] * 2
    assert again is not drawn
    assert all(again[name] is drawn[name] for name in drawn)
    again["t"] = None  # each caller's dict is its own
    assert drawn["t"] is not None
    with pytest.raises(ValueError, match="read-only"):
        drawn["t"][0, 0] = 0.0

    # a verifier that writes into its input raises instead of corrupting
    # the fixture another theorem shares
    def scribbling(t, tol):
        t *= 2.0

    monkeypatch.setattr(theorem_lab, "verify_unitary_nilpotent_structure", scribbling)
    with pytest.raises(ValueError, match="read-only"):
        run_suite("fuzz", seed=1, count=1, dims=(3, 2), suites=["unitary_nilpotent_structure"],
                  quarantine_dir=tmp_path / "q")


class _Constructions(ast.NodeVisitor):
    """Every call of ``GenSpec``, ``generate`` or ``TheoremVerdict``, by name
    or attribute, as (enclosing function, name)."""

    names = {"GenSpec", "generate", "TheoremVerdict"}

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in self.names:
            self.found.append((self.scope[-1], name))
        self.generic_visit(node)


def test_specs_and_verdicts_are_built_in_one_place_each():
    # the run records every fixture an instance draws, so a spec is named
    # and drawn only in suite._draw; every verifier returns through
    # theorem_lab._conclude, the one place a vacuous verdict is marked
    found = set()
    for path in sorted(Path(oplab.__file__).parent.glob("*.py")):
        visitor = _Constructions()
        visitor.visit(ast.parse(path.read_text()))
        found |= {(path.name, scope, name) for scope, name in visitor.found}
    assert found == {
        ("suite.py", "_draw", "GenSpec"),
        ("suite.py", "_draw", "generate"),
        ("theorem_lab.py", "_conclude", "TheoremVerdict"),
    }
