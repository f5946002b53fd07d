"""Command-line interface: flag surface, output schemas, exit codes."""

import json
import os
import random
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import schubertcalc
from schubertcalc import (
    EngineMismatchError,
    NotDivisibleError,
    Polynomial,
    SchubertExpansion,
    poly_from_json,
    product_expansion,
    word_to_element,
)
from schubertcalc.cli import main, parse_element, load_group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_startup_leaves_dataclasses_and_inspect_unloaded():
    """A fresh process imports neither ``dataclasses`` nor what it pulls in."""
    src = os.path.dirname(os.path.dirname(schubertcalc.__file__))
    code = (
        "import sys, schubertcalc, schubertcalc.cli, schubertcalc.oracle; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_disk_cache_imports_load_only_with_the_cache():
    """Without SCHUBERTCALC_CACHE_DIR, importing the CLI loads neither ``hashlib`` nor ``tempfile``."""
    src = os.path.dirname(os.path.dirname(schubertcalc.__file__))
    code = "import sys, schubertcalc.cli; print(sorted({'hashlib', 'tempfile'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    # -S keeps the host's site hooks, which may load either module, out of the result
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_runtime_imports_only_the_standard_library():
    """Every import in the package is relative or names a standard-library module."""
    import ast

    src = os.path.dirname(schubertcalc.__file__)
    files = sorted(f for f in os.listdir(src) if f.endswith(".py"))
    assert "cli.py" in files
    for name in files:
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                roots = [] if node.level else [node.module.split(".")[0]]
            elif isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, (name, node.lineno, root)


# -- documented example invocations --------------------------------------------


def test_constant_worked_example_s4(capsys):
    code, out, _ = run(capsys, "constant", "--group", "A3", "--w", "1234", "--v", "2413", "--u", "2413")
    assert code == 0 and out.strip() == "1"


def test_constant_equivariant_y_basis(capsys):
    code, out, _ = run(capsys, "constant", "--group", "A2", "--w", "231", "--v", "213", "--u", "231", "--basis", "y")
    assert code == 0 and out.strip() == "y2 - y1"


def test_restrict_example(capsys):
    code, out, _ = run(capsys, "restrict", "--group", "A2", "--v", "213", "--w", "321", "--basis", "y")
    assert code == 0 and out.strip() == "y3 - y1"


def test_constant_big_ordinary_example(capsys):
    code, out, _ = run(capsys, "constant", "--group", "A5", "--w", "532164", "--v", "132546", "--u", "642153")
    assert code == 0 and out.strip() == "2"


def test_constant_engine_both(capsys):
    code, out, _ = run(
        capsys, "constant", "--group", "A2", "--w", "213", "--v", "213", "--u", "312",
        "--engine", "both",
    )
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ("constant", "--w", "2134567", "--v", "2134567", "--u", "2134567", "--engine", "oracle"),
        ("product", "--w", "2134567", "--v", "1324567", "--engine", "both"),
    ],
)
def test_oracle_refuses_a_group_past_its_limit(capsys, argv):
    # A6 is within MAX_GROUP, but its Schubert classes would not fit in memory
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--group", "A6", *argv[1:])
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: |W| = 5040 exceeds the oracle's limit 720; its classes would not fit in memory\n"


# -- output schemas --------------------------------------------------------------


def test_constant_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "constant", "--group", "A2", "--w", "231", "--v", "213", "--u", "231",
        "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["w"] == "231" and data["engine"] == "recurrence"
    value = poly_from_json(data["value"], 2)
    assert value == Polynomial.variable(2, 1)
    assert data["value_str"] == "y2 - y1"


def test_product_json(capsys):
    code, out, _ = run(capsys, "product", "--group", "A2", "--w", "213", "--v", "213", "--output", "json")
    assert code == 0
    data = json.loads(out)
    terms = {t["element"]: poly_from_json(t["coeff"], 2) for t in data["terms"]}
    assert terms == {
        "213": Polynomial.variable(2, 1),
        "312": Polynomial.one(2),
    }


def test_product_text(capsys):
    code, out, _ = run(capsys, "product", "--group", "A2", "--w", "213", "--v", "213")
    assert code == 0
    assert "S[213] : y2 - y1" in out
    assert "S[312] : 1" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "--group", "B2", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "label": "B2",
        "rank": 2,
        "cartan": [[2, -1], [-2, 2]],
        "positive_roots": 4,
        "order": 8,
        "w0": data["w0"],
    }
    assert data["w0"] in ("s1*s2*s1*s2", "s2*s1*s2*s1")


def test_trace_text_and_replay(capsys):
    code, out, _ = run(
        capsys, "trace", "--group", "A3", "--w", "1234", "--v", "2413", "--u", "2413",
        "--first-r", "2", "--replay",
    )
    assert code == 0
    assert "c_{12|34,24|13}^{24|13} -> dc-cycle-A r=(23)" in out
    assert "c_{1|324,2|143}^{2|413} -> recurrence r=(12)" in out
    assert "replay ok: root value = 1" in out


@pytest.mark.parametrize(
    "w,v,u,first_r",
    [("532164", "132546", "642153", "6"), ("654321", "123456", "654321", "9")],
)
def test_trace_first_r_outside_the_rank_is_a_usage_error(capsys, w, v, u, first_r):
    code, out, err = run(
        capsys, "trace", "--group", "A5", "--w", w, "--v", v, "--u", u, "--first-r", first_r,
    )
    assert code == 2 and out == ""
    assert err == f"error: first_r={first_r} is outside 1..5\n"


def test_trace_first_r_at_a_descent_of_a_fast_zero_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "trace", "--group", "A5", "--w", "213456", "--v", "123456", "--u", "654321",
        "--first-r", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: first_r=1 is not an ascent of <213456>\n"


def test_trace_json(capsys):
    code, out, _ = run(
        capsys, "trace", "--group", "A2", "--w", "231", "--v", "213", "--u", "231",
        "--output", "json",
    )
    assert code == 0
    node = json.loads(out)
    assert node["rule"] == "recurrence" and node["r"] == 1
    assert poly_from_json(node["value"], 2) == Polynomial.variable(2, 1)
    assert len(node["children"]) == 3


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--group", "A2", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["sweep"]["triples"] == 216 and data["sweep"]["mismatches"] == []
    assert data["cover"]["violations"] == []
    assert data["props"]["violations"] == []


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--group", "B2", "--suite", "sweep")
    assert code == 0
    assert "512 triples, 0 mismatches" in out


@pytest.mark.parametrize("group,triples", [("A3", 13_824), ("B3", 110_592)])
def test_verify_sweep_reproduces_the_golden_payload(capsys, group, triples):
    """Every triple of the group: the JSON report, less its elapsed time, equals
    the committed payload (triple count, max |coeff|, no mismatch or violation)."""
    code, out, err = run(capsys, "verify", "--group", group, "--suite", "sweep", "--output", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert isinstance(payload["sweep"].pop("elapsed_ms"), float)
    with open(os.path.join(os.path.dirname(__file__), "golden", f"verify_sweep_{group}.json")) as f:
        golden = json.load(f)
    assert golden["sweep"]["triples"] == triples
    assert payload == golden


@pytest.mark.parametrize("suite", ["cover", "props"])
def test_verify_refuses_every_suite_past_the_sweep_cap(capsys, suite):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--group", "A5", "--suite", suite)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: |W| = 720 exceeds the oracle sweep cap 120; pass force=True to override\n"


def test_verify_force_overrides_the_cap_for_cover(capsys, monkeypatch):
    from schubertcalc import oracle

    monkeypatch.setattr(oracle, "ORACLE_SWEEP_CAP", 4)  # below |W| = 6 of A2
    code, _, err = run(capsys, "verify", "--group", "A2", "--suite", "cover")
    assert code == 2 and "exceeds the oracle sweep cap 4" in err
    code, out, _ = run(capsys, "verify", "--group", "A2", "--suite", "cover", "--force")
    assert code == 0 and out.startswith("cover sweep A2: ") and "0 violations" in out


def test_verify_names_a_group_without_a_label_alike_on_every_line(tmp_path, capsys):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}))
    code, out, _ = run(capsys, "verify", "--group", str(path))
    assert code == 0
    assert re.sub(r"\d+ ms", "… ms", out).splitlines() == [
        "sweep rank2: 216 triples, 0 mismatches, max |coeff| 1, … ms",
        "cover sweep rank2: 8 covers, 10 reduced words, 0 violations, … ms",
        "props rank2: 0 violations",
    ]
    code, out, _ = run(capsys, "verify", "--group", str(path), "--suite", "props", "--output", "json")
    assert (code, json.loads(out)) == (0, {"props": {"violations": []}})


# -- element parsing ---------------------------------------------------------------


def test_parse_element_forms():
    rs = load_group("A3")
    assert parse_element(rs, "e").is_identity()
    assert parse_element(rs, "2413").one_line() == (2, 4, 1, 3)
    assert parse_element(rs, "2,4,1,3").one_line() == (2, 4, 1, 3)
    assert parse_element(rs, "s3 s1 s2").one_line() == (2, 4, 1, 3)
    assert parse_element(rs, "3 1 2").one_line() == (2, 4, 1, 3)
    b2 = load_group("B2")
    assert parse_element(b2, "s1 s2 s1").length == 3
    assert parse_element(b2, "1 2 1 2").length == 4


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D3", "D4", "G2", "F4"])
def test_every_element_label_is_accepted_back_as_input(label):
    rs = load_group(label)
    for w in rs.elements():
        assert parse_element(rs, w.describe()) is w


@pytest.mark.parametrize("group", ["A8", "B8", "E8", "A9"])
def test_seeded_element_labels_are_accepted_back_in_large_groups(tmp_path, group):
    """E8 and A9 come from Cartan files; A9 is type A past the one-line limit."""
    from conftest import e8_cartan

    cartan = {
        "E8": e8_cartan(),
        "A9": [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(9)] for i in range(9)],
    }
    if group in cartan:
        path = tmp_path / f"{group}.json"
        path.write_text(json.dumps({"cartan": cartan[group]}))
        group = str(path)
    rs = load_group(group)
    rng = random.Random(20)
    for _ in range(200):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 40))]
        w = word_to_element(rs, word)
        assert parse_element(rs, w.describe()) is w


def test_group_from_cartan_file(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-3, 2]], "label": "custom-G2"}))
    code, out, _ = run(capsys, "info", "--group", str(path))
    assert code == 0
    assert "|W|        : 12" in out
    label_file = tmp_path / "label.txt"
    label_file.write_text("A2\n")
    code, out, _ = run(capsys, "info", "--group", str(label_file))
    assert code == 0 and "|W|        : 6" in out


_NOT_ROWS = "Cartan data must be a list of rows of integers"


@pytest.mark.parametrize(
    "data,message",
    [
        ({"cartan": 5}, _NOT_ROWS),
        ({"cartan": [[2, None], [-1, 2]]}, _NOT_ROWS),
        ({"cartan": [[2, -1.5], [-1, 2]]}, _NOT_ROWS),
        ({"cartan": [[2, -1.0], [-1, 2]]}, _NOT_ROWS),
        ({"cartan": [[2, -1], [-1, True]]}, _NOT_ROWS),
        ({"cartan": [[2, -1], [-1, 2]], "label": ["x"]}, "group label ['x'] is not a string"),
        ({"cartan": []}, "Cartan matrix must be square and nonempty"),
        ({"cartan": [[2, -1]]}, "Cartan matrix must be square and nonempty"),
        ({"cartan": [[3]]}, "Cartan matrix must have 2 on the diagonal"),
        ({"cartan": [[2, 1], [1, 2]]}, "off-diagonal Cartan entries must be <= 0"),
        ({"cartan": [[2, 0], [-1, 2]]}, "Cartan zero pattern must be symmetric"),
    ],
    ids=[
        "not-rows", "null-entry", "float-entry", "integral-float-entry", "bool-entry", "list-label",
        "empty", "not-square", "bad-diagonal", "positive-off-diagonal", "asymmetric-zeros",
    ],
)
def test_bad_group_file_is_a_usage_error(tmp_path, capsys, data, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "info", "--group", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "contents,message",
    [
        ('{"label": "G2"}', "JSON group file must contain a 'cartan' key"),
        ("[[2, -1], [-1, 2]]", "unsupported group file contents"),
    ],
    ids=["no-cartan", "json-list"],
)
def test_group_file_of_another_shape_is_a_usage_error(tmp_path, capsys, contents, message):
    path = tmp_path / "group.json"
    path.write_text(contents)
    assert run(capsys, "info", "--group", str(path)) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "element,message",
    [
        ("", "empty element"),
        ("  ", "empty element"),
        ("s9", "simple index out of range in 's9'"),
        ("s1 s0", "simple index out of range in 's1 s0'"),
        ("x1", "cannot parse element 'x1'"),
        ("s1 2", "cannot parse element 's1 2'"),
    ],
)
def test_unparsable_element_is_a_usage_error(capsys, element, message):
    argv = ("constant", "--group", "A3", "--w", element, "--v", "2134", "--u", "2134")
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# -- exit codes ----------------------------------------------------------------------


def test_usage_exit_codes(capsys):
    assert run(capsys, "constant", "--group", "A2", "--w", "99", "--v", "213", "--u", "231")[0] == 2
    assert run(capsys, "constant", "--group", "Z9", "--w", "213", "--v", "213", "--u", "231")[0] == 2
    assert run(capsys, "restrict", "--group", "B2", "--v", "s1", "--w", "s1 s2", "--basis", "y")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_mismatch_exit_code(capsys, monkeypatch):
    import schubertcalc.cli as cli

    def fake_oracle(w, v, u):
        return Polynomial.integer(w.rs.rank, 99)

    monkeypatch.setattr(cli.oracle, "oracle_constant", fake_oracle)
    code, _, err = run(
        capsys, "constant", "--group", "A2", "--w", "213", "--v", "213", "--u", "312",
        "--engine", "both",
    )
    assert code == 3 and "engine mismatch" in err


def test_verify_props_violation_exits_4(capsys, monkeypatch):
    import schubertcalc.gkm

    monkeypatch.setattr(schubertcalc.gkm, "is_gkm", lambda cls: False)
    code, out, _ = run(capsys, "verify", "--group", "A2", "--suite", "props")
    assert code == 4
    assert "GKM fails for the Schubert class of 123" in out


def verify_both_outputs(capsys, suite):
    """``verify --group A2 --suite <suite>`` in text and JSON: (code, text lines, payload).

    Elapsed times are masked: ``elapsed_ms`` is dropped from each report
    and the trailing ``… ms`` of its header line reads ``# ms``.
    """
    code, text, err = run(capsys, "verify", "--group", "A2", "--suite", suite)
    assert err == ""
    json_code, out, err = run(capsys, "verify", "--group", "A2", "--suite", suite, "--output", "json")
    assert (json_code, err) == (code, "")
    payload = json.loads(out)
    for report in payload.values():
        assert isinstance(report.pop("elapsed_ms", 0.0), float)
    lines = text.splitlines()
    lines[0] = re.sub(r", \d+ ms$", ", # ms", lines[0])
    return code, lines, payload


def sweep_payload(**edits):
    return {"sweep": {
        "group": "A2", "triples": 216, "mismatches": [], "max_coeff": 1,
        "ordinary_violations": [], "coeff_violations": [], **edits,
    }}


def agreeing_engines(monkeypatch, edit):
    """Edit the sweep's engine constants and let its oracle agree with the edit."""
    from schubertcalc import oracle

    real = oracle.structure_constant

    def edited(w, v, u):
        return edit(w, v, u, real(w, v, u))

    monkeypatch.setattr(oracle, "structure_constant", edited)
    monkeypatch.setattr(oracle, "oracle_product", lambda w, v: SimpleNamespace(coeff=lambda u: edited(w, v, u)))


def test_verify_sweep_mismatch_exits_3(capsys, monkeypatch):
    from schubertcalc import oracle

    real = oracle.structure_constant

    def off_by_one_at_the_top(w, v, u):
        value = real(w, v, u)
        return value + Polynomial.one(2) if (w.length, v.length, u.length) == (0, 0, 3) else value

    monkeypatch.setattr(oracle, "structure_constant", off_by_one_at_the_top)
    assert verify_both_outputs(capsys, "sweep") == (3, [
        "sweep A2: 216 triples, 1 mismatches, max |coeff| 1, # ms",
        "  MISMATCH at (123, 123, 321): recurrence=1 oracle=0",
    ], sweep_payload(mismatches=[{"w": "123", "v": "123", "u": "321", "recurrence": "1", "oracle": "0"}]))


def test_verify_ordinary_positivity_violation_output(capsys, monkeypatch):
    # c_{e,e}^e = 1 read as a1: an ordinary constant of nonzero degree
    agreeing_engines(monkeypatch, lambda w, v, u, c: Polynomial.variable(2, 1) if u.length == 0 else c)
    assert verify_both_outputs(capsys, "sweep") == (4, [
        "sweep A2: 216 triples, 0 mismatches, max |coeff| 1, # ms",
        "  ordinary positivity violations: 1",
    ], sweep_payload(ordinary_violations=[{"w": "123", "v": "123", "u": "123", "value": "a1"}]))


def test_verify_coefficient_positivity_violation_output(capsys, monkeypatch):
    # c_{s,s}^s = S_s|_s negated at both simple reflections s
    agreeing_engines(monkeypatch, lambda w, v, u, c: -c if (w.length, v.length, u.length) == (1, 1, 1) else c)
    assert verify_both_outputs(capsys, "sweep") == (4, [
        "sweep A2: 216 triples, 0 mismatches, max |coeff| 1, # ms",
        "  coefficient positivity violations: 2",
    ], sweep_payload(coeff_violations=[
        {"w": "213", "v": "213", "u": "213", "value": "-a1"},
        {"w": "132", "v": "132", "u": "132", "value": "-a2"},
    ]))


def cover_payload(violations):
    return {"cover": {"group": "A2", "covers_checked": 8, "words_checked": 10, "violations": violations}}


def test_verify_cover_ratio_violation_output(capsys, monkeypatch):
    from schubertcalc import oracle

    real = oracle.bottom_restriction
    monkeypatch.setattr(oracle, "bottom_restriction", lambda w: real(w) * 2 if w.length == 3 else real(w))
    violations = ["cover ratio fails at 312 -> 321", "cover ratio fails at 231 -> 321"]
    assert verify_both_outputs(capsys, "cover") == (4, [
        "cover sweep A2: 8 covers, 10 reduced words, 2 violations, # ms",
        *(f"  {v}" for v in violations),
    ], cover_payload(violations))


def test_verify_removable_letter_violation_output(capsys, monkeypatch):
    from schubertcalc import oracle

    # 121 is not a word of 312: no letter of it can be removed to leave 213 or 132
    real = oracle.all_reduced_words
    monkeypatch.setattr(oracle, "all_reduced_words", lambda w: [(1, 2, 1)] if w.describe() == "312" else real(w))
    violations = [
        "removable letter count 0 for word (1, 2, 1) of 312 over 213",
        "removable letter count 0 for word (1, 2, 1) of 312 over 132",
    ]
    assert verify_both_outputs(capsys, "cover") == (4, [
        "cover sweep A2: 8 covers, 10 reduced words, 2 violations, # ms",
        *(f"  {v}" for v in violations),
    ], cover_payload(violations))


def test_verify_props_chern_and_leibniz_violations_output(capsys, monkeypatch):
    from schubertcalc import billey, gkm

    real_chern, real_leibniz = gkm.chern_times_schubert, gkm.leibniz_check

    def chern(rs, alpha, w):  # c_{-alpha_1} S_e answered with c_{-alpha_1} S_{w0}
        wrong = w is rs.identity and alpha == rs.simple_root(1)
        return real_chern(rs, alpha, rs.longest_element() if wrong else w)

    def leibniz(alpha, a, b):  # fails once: alpha_2 on S_e * S_e
        unit = billey.schubert_class(a.rs.identity)
        return not (alpha == a.rs.simple_root(2) and a is b is unit) and real_leibniz(alpha, a, b)

    monkeypatch.setattr(gkm, "chern_times_schubert", chern)
    monkeypatch.setattr(gkm, "leibniz_check", leibniz)
    violations = ["Chern expansion mismatch at alpha_1, 123", "Leibniz fails at alpha_2, (123, 123)"]
    assert verify_both_outputs(capsys, "props") == (4, [
        "props A2: 2 violations",
        *(f"  {v}" for v in violations),
    ], {"props": {"violations": violations}})


def test_invariant_exit_code(capsys, monkeypatch):
    import schubertcalc.cli as cli

    def explode(v, w, word=None):
        raise NotDivisibleError("synthetic corruption")

    monkeypatch.setattr(cli.billey, "restrict", explode)
    code, _, err = run(capsys, "restrict", "--group", "A2", "--v", "213", "--w", "321")
    assert code == 4 and "invariant" in err


@pytest.mark.parametrize("argv", [
    ("constant", "--group", "A2", "--w", "213", "--v", "213", "--u", "312"),
    ("product", "--group", "A2", "--w", "213", "--v", "213"),
])
def test_value_error_from_a_computation_exits_4(capsys, monkeypatch, argv):
    import schubertcalc.cli as cli

    def explode(w, v, u):
        raise ValueError("synthetic fault")

    monkeypatch.delenv("SCHUBERTCALC_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli.recurrence, "structure_constant", explode)
    assert run(capsys, *argv) == (4, "", "internal invariant failure: synthetic fault\n")


def test_value_error_from_a_trace_past_its_first_r_check_exits_4(capsys, monkeypatch):
    import schubertcalc.cli as cli

    def explode(w, v, u, **options):
        raise ValueError("synthetic fault")

    monkeypatch.setattr(cli.recurrence, "trace_constant", explode)
    argv = ("trace", "--group", "A2", "--w", "123", "--v", "213", "--u", "213", "--first-r", "1")
    assert run(capsys, *argv) == (4, "", "internal invariant failure: synthetic fault\n")
    # the check itself still reads the user's input
    assert run(capsys, *argv[:-1], "3") == (2, "", "error: first_r=3 is outside 1..2\n")


@pytest.mark.parametrize(
    "group,w,v,u,value",
    [("A3", "1234", "2413", "2413", "1"), ("A5", "532164", "132546", "642153", "2")],
)
def test_constant_engine_oracle_matches_recurrence(capsys, group, w, v, u, value):
    argv = ("constant", "--group", group, "--w", w, "--v", v, "--u", u)
    assert run(capsys, *argv, "--engine", "recurrence") == (0, value + "\n", "")
    assert run(capsys, *argv, "--engine", "oracle") == (0, value + "\n", "")


@pytest.mark.parametrize("output", ["text", "json"])
def test_product_engine_oracle_matches_recurrence(capsys, output):
    argv = ("product", "--group", "A3", "--w", "2143", "--v", "1324", "--output", output)
    code, rec, _ = run(capsys, *argv, "--engine", "recurrence")
    assert code == 0 and rec.count("S[") + rec.count('"element"') >= 2
    code, orc, err = run(capsys, *argv, "--engine", "oracle")
    assert (code, err) == (0, "")
    if output == "json":
        rec, orc = json.loads(rec), json.loads(orc)
        assert (rec.pop("engine"), orc.pop("engine")) == ("recurrence", "oracle")
    assert orc == rec


def test_restrict_json(capsys):
    from schubertcalc import named, restrict

    code, out, _ = run(capsys, "restrict", "--group", "A2", "--v", "213", "--w", "321", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"group", "v", "w", "value", "value_str"}
    assert (data["group"], data["v"], data["w"], data["value_str"]) == ("A2", "213", "321", "y3 - y1")
    s3 = named("A2")
    expected = restrict(parse_element(s3, "213"), parse_element(s3, "321"))
    assert poly_from_json(data["value"], 2) == expected


def _fake_expansion(monkeypatch, edit):
    """Make the oracle's cached expansion of every pair differ by ``edit``."""
    import schubertcalc.oracle as oracle

    real = oracle.oracle_product

    def fake(w, v):
        exp = real(w, v)
        coeffs = dict(exp.coeffs)
        edit(w.rs, coeffs)
        return SchubertExpansion(w.rs, coeffs)

    monkeypatch.setattr(oracle, "oracle_product", fake)


def _mismatch(w, u, rec, orc):
    """The stderr of ``product --engine both`` when S_w * S_w disagrees at u."""
    return f"engine mismatch: engines disagree at ({w!r}, {w!r}, {u!r}): recurrence={rec!r}, oracle={orc!r}\n"


def test_product_both_names_a_wrong_shared_coefficient(s3, capsys, monkeypatch):
    w = parse_element(s3, "213")
    u = parse_element(s3, "312")
    assert product_expansion(w, w).coeff(u) == 1

    def edit(rs, coeffs):  # rs is the group the command loads, not s3
        coeffs[parse_element(rs, "312")] = Polynomial.integer(rs.rank, 7)

    _fake_expansion(monkeypatch, edit)
    got = run(capsys, "product", "--group", "A2", "--w", "213", "--v", "213", "--engine", "both")
    assert got == (3, "", _mismatch(w, u, Polynomial.one(2), Polynomial.integer(2, 7)))


def test_product_both_names_a_term_only_the_oracle_has(s3, capsys, monkeypatch):
    w = parse_element(s3, "213")
    u = s3.longest_element()
    assert product_expansion(w, w).coeff(u).is_zero()

    def edit(rs, coeffs):  # rs is the group the command loads, not s3
        coeffs[rs.longest_element()] = Polynomial.one(rs.rank)

    _fake_expansion(monkeypatch, edit)
    got = run(capsys, "product", "--group", "A2", "--w", "213", "--v", "213", "--engine", "both")
    assert got == (3, "", _mismatch(w, u, Polynomial.zero(2), Polynomial.one(2)))


def test_product_engine_both_mismatch_exit_code(capsys, monkeypatch):
    def edit(rs, coeffs):
        coeffs[rs.longest_element()] = Polynomial.one(rs.rank)

    _fake_expansion(monkeypatch, edit)
    argv = ("product", "--group", "A2", "--w", "213", "--v", "213", "--engine", "both", "--output", "json")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith("engine mismatch: engines disagree at")


def test_engine_mismatch_error_carries_the_offender(s3):
    exc = EngineMismatchError("w", "v", "u", 1, 2)
    assert exc.u == "u" and exc.recurrence_value == 1 and exc.oracle_value == 2


def test_constant_result_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "constant", "--group", "A2", "--w", "231", "--v", "213", "--u", "231")
    assert code == 0 and out.strip() == "y2 - y1"
    cached = list(tmp_path.glob("constant-*.json"))
    assert len(cached) == 1

    # a second invocation must be served from the cache
    import schubertcalc.cli as cli

    def explode(*a, **k):
        raise AssertionError("engine must not run on a cache hit")

    monkeypatch.setattr(cli.recurrence, "structure_constant", explode)
    code, out, _ = run(capsys, "constant", "--group", "A2", "--w", "231", "--v", "213", "--u", "231")
    assert code == 0 and out.strip() == "y2 - y1"


def _cache_entry(tmp_path):
    (entry,) = tmp_path.glob("constant-*.json")
    return entry


def test_truncated_cache_entry_is_a_miss(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(tmp_path))
    argv = ("constant", "--group", "A2", "--w", "231", "--v", "213", "--u", "231", "--basis", "y")
    assert run(capsys, *argv)[:2] == (0, "y2 - y1\n")
    entry = _cache_entry(tmp_path)
    intact = entry.read_text()
    entry.write_text(intact[: len(intact) // 2])
    assert run(capsys, *argv)[:2] == (0, "y2 - y1\n")
    assert entry.read_text() == intact  # recomputed and written again
    assert list(tmp_path.iterdir()) == [entry]  # no temporary file left behind


def test_failed_cache_write_is_best_effort(tmp_path, capsys, monkeypatch):
    argv = ("constant", "--group", "A2", "--w", "231", "--v", "213", "--u", "231", "--basis", "y")
    first, blocked = tmp_path / "first", tmp_path / "blocked"
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(first))
    assert run(capsys, *argv) == (0, "y2 - y1\n", "")
    # a directory at the entry's path makes the final rename fail, even for root
    entry = blocked / _cache_entry(first).name
    entry.mkdir(parents=True)
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(blocked))
    assert run(capsys, *argv) == (0, "y2 - y1\n", "")
    assert list(blocked.iterdir()) == [entry] and entry.is_dir() and not any(entry.iterdir())


def test_edited_cache_entry_is_not_served(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(tmp_path))
    argv = ("constant", "--group", "A2", "--w", "231", "--v", "213", "--u", "231", "--basis", "y")
    assert run(capsys, *argv)[:2] == (0, "y2 - y1\n")
    entry = _cache_entry(tmp_path)
    data = json.loads(entry.read_text())
    data["value"] = [{"coeff": 7, "exp": [0, 0]}]
    entry.write_text(json.dumps(data))
    assert run(capsys, *argv)[:2] == (0, "y2 - y1\n")
    # an entry of another key or format is a miss too
    for field, bad in (("key", "[]"), ("format", 1)):
        data = json.loads(entry.read_text())
        data[field] = bad
        entry.write_text(json.dumps(data))
        assert run(capsys, *argv)[:2] == (0, "y2 - y1\n")
        assert json.loads(entry.read_text())[field] != bad


def test_cache_entry_with_out_of_range_exponent_is_a_miss(tmp_path, capsys, monkeypatch):
    from schubertcalc.cli import _entry_digest

    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(tmp_path))
    argv = ("constant", "--group", "A3", "--w", "1234", "--v", "2413", "--u", "2413")
    assert run(capsys, *argv)[:2] == (0, "1\n")
    entry = _cache_entry(tmp_path)
    for exp in ([70000, 0, 0], [-1, 0, 0]):
        # well formed and correctly digested, but not a polynomial we can hold
        data = json.loads(entry.read_text())
        data["value"] = [{"coeff": 1, "exp": exp}]
        data["sha256"] = _entry_digest(data["key"], data["value"])
        entry.write_text(json.dumps(data))
        assert run(capsys, *argv)[:2] == (0, "1\n")
        assert json.loads(entry.read_text())["value"] == [{"coeff": 1, "exp": [0, 0, 0]}]


GOLDEN_A3_ENTRY = (
    "constant-13f1c41050e7e49d12bf322d4fb882f4.json",
    '{"format": 2, "key": "[[[2, -1, 0], [-1, 2, -1], [0, -1, 2]], \\"3124\\", \\"4123\\", \\"4123\\", '
    '\\"recurrence\\"]", "value": [{"coeff": 1, "exp": [0, 0, 2]}, {"coeff": 2, "exp": [0, 1, 1]}, '
    '{"coeff": 1, "exp": [1, 0, 1]}, {"coeff": 1, "exp": [0, 2, 0]}, {"coeff": 1, "exp": [1, 1, 0]}], '
    '"sha256": "083f9b6eaac4760605213bbf36b8a556d87916787b2e47ebb35a9bf6cde7e498"}',
)


def test_cache_entry_is_byte_identical_to_the_format_2_golden_entry(tmp_path, capsys, monkeypatch):
    """Entries written under format 2 by earlier versions must keep hitting:
    the file name and every byte of the entry are fixed."""
    import schubertcalc.cli as cli

    assert cli.CACHE_FORMAT == 2
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(tmp_path))
    argv = ("constant", "--group", "A3", "--w", "3124", "--v", "4123", "--u", "4123")
    assert run(capsys, *argv) == (0, "y4^2 - y2*y4 - y1*y4 + y1*y2\n", "")
    entry = _cache_entry(tmp_path)
    assert (entry.name, entry.read_text()) == GOLDEN_A3_ENTRY

    def explode(*a, **k):
        raise AssertionError("engine must not run on a cache hit")

    monkeypatch.setattr(cli.recurrence, "structure_constant", explode)
    assert run(capsys, *argv, "--basis", "alpha") == (0, "a3^2 + 2*a2*a3 + a1*a3 + a2^2 + a1*a2\n", "")


def test_nested_cache_dir_is_made_on_the_first_write(tmp_path, capsys, monkeypatch):
    root = tmp_path / "a" / "b" / "c"
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(root))
    argv = ("constant", "--group", "A3", "--w", "3124", "--v", "4123", "--u", "4123")
    assert run(capsys, *argv) == (0, "y4^2 - y2*y4 - y1*y4 + y1*y2\n", "")
    assert [p.name for p in root.iterdir()] == [GOLDEN_A3_ENTRY[0]]


@pytest.mark.parametrize("below", [(), ("sub",)])
def test_cache_dir_at_or_below_a_regular_file_is_skipped(tmp_path, capsys, monkeypatch, below):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    monkeypatch.setenv("SCHUBERTCALC_CACHE_DIR", str(blocker.joinpath(*below)))
    argv = ("constant", "--group", "A3", "--w", "3124", "--v", "4123", "--u", "4123", "--output", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["value_str"] == "y4^2 - y2*y4 - y1*y4 + y1*y2"
    assert blocker.read_text() == "not a directory" and list(tmp_path.iterdir()) == [blocker]


def test_parser_built_once_gives_the_output_of_a_fresh_parser(capsys, monkeypatch):
    import schubertcalc.cli as cli

    cases = [
        ("constant", "--group", "A3", "--w", "1234", "--v", "2413", "--u", "2413", "--output", "json"),
        ("info", "--group", "A3"),
        ("constant", "--group", "A3", "--w", "1234"),  # usage error: missing --v and --u
        ("constant", "--help"),
    ]
    cached = [run(capsys, *argv) for argv in cases]
    assert cli.build_parser() is cli.build_parser()
    assert [c[0] for c in cached] == [0, 0, 2, 0] and "required" in cached[2][2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in cases] == cached


def test_constant_command_does_not_enumerate(capsys, monkeypatch):
    import schubertcalc.cli as cli

    groups, real_load = [], cli.load_group

    def load(source):
        groups.append(real_load(source))
        return groups[-1]

    monkeypatch.setattr(cli, "load_group", load)
    code, out, _ = run(capsys, "constant", "--group", "A5", "--w", "532164", "--v", "132546", "--u", "642153")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "info", "--group", "A8")
    assert code == 0 and "362880" in out
    assert len(groups) == 2 and not any("elements" in rs.caches for rs in groups)


@pytest.mark.parametrize("group", ["A3", "B3"])
def test_group_caches_hold_only_tables(capsys, monkeypatch, group):
    import schubertcalc.cli as cli

    groups, real_load = [], cli.load_group

    def load(source):
        groups.append(real_load(source))
        return groups[-1]

    monkeypatch.setattr(cli, "load_group", load)
    w, v = ("2134", "1324") if group == "A3" else ("s1", "s2")
    assert run(capsys, "info", "--group", group)[0] == 0
    assert run(capsys, "constant", "--group", group, "--w", w, "--v", v, "--u", "e")[0] == 0
    assert run(capsys, "product", "--group", group, "--w", w, "--v", v)[0] == 0
    assert len(groups) == 3
    for rs in groups:
        assert rs.is_type_a is (group == "A3")
        # tables only: the element list and dicts, never a flag
        assert all(type(t) in (dict, list) for t in rs.caches.values()), rs.caches.keys()
    assert "elements" in groups[-1].caches


def test_info_on_large_groups(tmp_path, capsys):
    from conftest import e8_cartan

    code, out, _ = run(capsys, "info", "--group", "B8", "--output", "json")
    data = json.loads(out)
    assert code == 0 and data["order"] == 10321920 and data["positive_roots"] == 64
    path = tmp_path / "e8.json"
    path.write_text(json.dumps({"cartan": e8_cartan(), "label": "E8"}))
    code, out, _ = run(capsys, "info", "--group", str(path), "--output", "json")
    data = json.loads(out)
    assert code == 0 and data["order"] == 696729600 and data["w0"].count("s") == 120
