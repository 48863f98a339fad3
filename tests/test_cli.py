"""Command-line interface: report shape, renderers, exit codes."""

import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammagroups import catalog, cli, reps
from gammagroups.exact import format_matrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert err == ""
    return code, json.loads(out), out


# One cheap call of each command, for the `input` echo test.
ECHO_ARGVS = [
    ("catalog", "list"),
    ("analyze", "q8"),
    ("verify", "--filter", "quaternion.*"),
    ("subgroups", "q8", "--order", "4"),
    ("brackets", "d4", "--table", "q2"),
    ("search", "--signature", "++++"),
    ("extensions", "--base", "q8_v4", "--square", "minus"),
]


def subcommand_arguments():
    """Each subcommand's own argument names, as `build_parser` declares them:
    its actions less help and the options it shares with the main parser."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    shared = {a.dest for a in parser._actions if a is not commands}
    return {
        name: [a.dest for a in sub._actions if a.dest not in shared]
        for name, sub in commands.choices.items()
    }


class TestReportShape:
    def test_top_level_keys_are_fixed(self, capsys):
        _, doc, _ = run_json(capsys, "analyze", "q8")
        assert sorted(doc) == ["claims", "input", "profile", "timings", "tool_version"]
        assert doc["input"]["command"] == "analyze"
        assert doc["claims"] == []
        assert isinstance(doc["timings"]["total_ms"], int)

    def test_json_reports_round_trip_byte_identically(self, capsys):
        for argv in (
            ("catalog", "list"),
            ("analyze", "pauli"),
            ("verify", "--filter", "pauli.*"),
            ("subgroups", "q8", "--order", "4"),
        ):
            _, doc, out = run_json(capsys, *argv)
            assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out

    def test_markdown_carries_the_same_numbers(self, capsys):
        _, doc, _ = run_json(capsys, "analyze", "pauli")
        code, out, _ = run(capsys, "analyze", "pauli")
        assert code == 0
        profile = doc["profile"]
        assert f"- order: {profile['order']}" in out
        assert f"- class_count: {profile['class_count']}" in out
        assert f"- census: {profile['census']}" in out
        assert f"- component: {profile['component']}" in out

    def test_markdown_is_the_default_format(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert out.startswith("# gammagroups catalog report")
        assert "| pauli |" not in out.splitlines()[0]

    def test_global_flags_work_on_either_side_of_the_subcommand(self, capsys):
        _, before, _ = run(capsys, "--format", "json", "analyze", "q8")
        _, after, _ = run(capsys, "analyze", "q8", "--format", "json")
        assert json.loads(before)["profile"] == json.loads(after)["profile"]

    @pytest.mark.parametrize("argv", ECHO_ARGVS, ids=lambda argv: argv[0])
    def test_input_echoes_the_subcommand_arguments_only(self, capsys, argv):
        # The shared options stay out of `input` on either side of the
        # subcommand; every argument of the subcommand is echoed, defaults too.
        own = subcommand_arguments()[argv[0]]
        shared = ["--format", "json", "--cap", "64"]
        _, before, _ = run(capsys, *shared, *argv)
        _, after, _ = run(capsys, *argv, *shared)
        for out in (before, after):
            echoed = json.loads(out)["input"]
            assert sorted(echoed) == sorted(["command", *own])
            assert echoed["command"] == argv[0]
        assert json.loads(before)["input"] == json.loads(after)["input"]

    def test_every_command_has_an_echo_case(self):
        assert sorted(argv[0] for argv in ECHO_ARGVS) == sorted(subcommand_arguments())

    @pytest.mark.parametrize(
        "argv", [("catalog", "list"), ("brackets", "pauli", "--table", "d")], ids=" ".join
    )
    def test_every_report_carries_every_counter(self, capsys, argv):
        _, doc, _ = run_json(capsys, *argv)
        assert sorted(doc["timings"]["counters"]) == ALL_COUNTER_KEYS


class TestCatalogList:
    def test_lists_every_entry_with_its_order(self, capsys):
        _, doc, _ = run_json(capsys, "catalog", "list")
        entries = {item["name"]: item for item in doc["profile"]["entries"]}
        assert len(entries) == 14
        assert entries["pauli"]["order"] == 16
        assert entries["gamma64_null"]["dimension"] == 8

    def test_rows_come_from_the_stored_payloads(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("catalog list must not build an entry or parse a matrix")

        monkeypatch.setattr(catalog, "catalog_entry", refuse)
        monkeypatch.setattr(catalog, "parse_matrix", refuse)
        code, doc, _ = run_json(capsys, "catalog", "list")
        assert code == 0
        assert len(doc["profile"]["entries"]) == 14

    def test_rows_agree_with_the_built_entries(self, capsys):
        _, doc, _ = run_json(capsys, "catalog", "list")
        rows = doc["profile"]["entries"]
        assert [row["name"] for row in rows] == list(catalog.catalog_names())
        for row in rows:
            name = row["name"]
            assert row["dimension"] == catalog.catalog_entry(name).dimension, name
            assert row["order"] == catalog.catalog_group(name).order, name
            assert row["summary"] == catalog._load_payload(name)["summary"], name


# 3x3 permutation matrices: a 3-cycle, and a transposition with it makes S3.
CYCLE = "[[0, 1, 0], [0, 0, 1], [1, 0, 0]]"
SWAP = "[[0, 1, 0], [1, 0, 0], [0, 0, 1]]"
# The binary tetrahedral group 2T: the quaternions i and j, and the dense
# (1 + i + j + k)/2.
TWO_T = ["[[i,0],[0,-i]]", "[[0,1],[-1,0]]", "[[1/2+1/2i,1/2+1/2i],[-1/2+1/2i,1/2-1/2i]]"]
# Generator files outside the catalog, by name.
PROFILE_FILES = {
    "trivial": ["[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"],
    "c3": [CYCLE],
    "s3": [CYCLE, SWAP],
}


# Every report's timings.counters, whatever layers the command reaches.
ALL_COUNTER_KEYS = [
    "component.row_checks",
    "component.triples",
    "form.orbit",
    "iso.calls",
    "iso.fingerprint_rejects",
    "iso.nodes",
    "product.dense",
    "product.monomial",
    "search.tuples",
]


@functools.cache
def run_cold(*argv):
    """One report from a fresh interpreter, so no cache is warm.

    Memoized per argv, so tests that read the same cold report share one
    process; callers must not modify the returned document.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-m", "gammagroups.cli", *argv, "--format", "json"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


class TestProductCounters:
    # Every catalog group is unit-monomial. A broken form detection would
    # fall back to dense products silently and show only as a slowdown.
    @pytest.mark.parametrize(
        "argv", [("verify",)] + [("analyze", n) for n in catalog.catalog_names()], ids=" ".join
    )
    def test_cold_runs_take_no_dense_product(self, argv):
        counters = run_cold(*argv)["timings"]["counters"]
        assert counters["product.dense"] == 0
        assert counters["product.monomial"] > 0
        if argv == ("verify",):
            assert counters["form.orbit"] > 0

    def test_cold_verify_counters_are_pinned(self):
        # Relation words and the extension witness are read off Cayley
        # tables, so every product of a cold verify is a closure product:
        # n*k for each of its 17 closures of n elements from k generators.
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-S", "-m", "gammagroups.cli", "verify", "--format", "json"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["timings"]["counters"] == {
            "component.row_checks": 115,
            "component.triples": 202,
            "form.orbit": 40,
            "iso.calls": 2,
            "iso.fingerprint_rejects": 1,
            "iso.nodes": 3,
            "product.dense": 0,
            "product.monomial": 3232,
            "search.tuples": 23,
        }

    def test_cold_verify_closes_each_generator_tuple_once(self):
        # The 14 catalog entries, the 2 pools and the one found extension
        # whose tuple no entry stores; the other three found extensions
        # build the stored gamma64_* tuples and read the catalog's groups.
        script = (
            "import contextlib, io\n"
            "from gammagroups import groups\n"
            "from gammagroups.cli import main\n"
            "tuples = []\n"
            "closure = groups.generate_closure\n"
            "def counted(generators, **kwargs):\n"
            "    tuples.append(tuple(generators))\n"
            "    return closure(generators, **kwargs)\n"
            "groups.generate_closure = counted\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify']) == 0\n"
            "assert len(set(tuples)) == len(tuples), 'a generator tuple closed twice'\n"
            "print(len(tuples))\n"
        )
        assert run_fresh(script) == "17\n"

    def test_cold_analyze_of_a_dense_group_multiplies_once_per_closure_step(self, tmp_path):
        # The closure walk makes 24 elements x 3 generators products and
        # builds the Cayley table from them; the table costs no product.
        path = tmp_path / "two_t.json"
        path.write_text(json.dumps({"name": "two_t", "dimension": 2, "generators": TWO_T}))
        doc = run_cold("analyze", str(path))
        assert doc["profile"]["order"] == 24
        assert doc["profile"]["census"] == "3x1 + 3x2 + 1x3"
        counters = doc["timings"]["counters"]
        assert counters["product.dense"] > 0
        assert counters["product.dense"] + counters["product.monomial"] == 72


class TestAnalyze:
    def test_component_counters_are_reported_under_timings(self, capsys):
        catalog.catalog_profile.cache_clear()  # count a cold profile
        _, doc, _ = run_json(capsys, "analyze", "pauli_c2")
        counters = doc["timings"]["counters"]
        assert sorted(counters) == ALL_COUNTER_KEYS
        # The scan checks the rows at most once per (table, square
        # signature) and once more per match: with four tables and at most
        # eight signatures, 36 checks per scanned order-16 group.
        # `analyze` scans each order-16 class of index-two subgroups
        # (index_two), and composition scans the group's own table once,
        # checking the rows on one generating triple per signature: at
        # most 32 checks.
        scans = len(catalog.catalog_profile("pauli_c2").index_two["classes"])
        assert 0 < counters["component.row_checks"] <= 32 + 36 * scans
        assert counters["component.triples"] > 0
        _, small, _ = run_json(capsys, "analyze", "q8")
        small_counters = small["timings"]["counters"]
        assert sorted(small_counters) == ALL_COUNTER_KEYS
        assert small_counters["component.row_checks"] == small_counters["component.triples"] == 0

    def test_cold_analyze_iso_counters_are_pinned(self):
        # Sorting the 31 index-two subgroups of gamma64_plus into classes
        # and naming each class reads squaring keys: gamma64_plus is in F,
        # so no isomorphism test runs.
        counters = run_cold("analyze", "gamma64_plus")["timings"]["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("iso.")} == {
            "iso.calls": 0,
            "iso.fingerprint_rejects": 0,
            "iso.nodes": 0,
        }

    def test_pauli_profile(self, capsys):
        _, doc, _ = run_json(capsys, "analyze", "pauli")
        profile = doc["profile"]
        assert profile["order"] == 16
        assert profile["class_count"] == 10
        assert profile["census"] == "8x1 + 2x2"
        assert profile["component"] == "d"
        assert profile["composition"] == ["d", "f"]
        assert profile["indicators"] == [0]

    def test_gamma_minus_index_two_split(self, capsys):
        _, doc, _ = run_json(capsys, "analyze", "gamma_minus")
        profile = doc["profile"]
        assert profile["indicators"] == [-1]
        assert profile["index_two"] == {"count": 15, "classes": [["b", 5], ["d", 10]]}

    def test_order_64_entry_reports_identified_decomposition(self, capsys):
        _, doc, _ = run_json(capsys, "analyze", "gamma64_plus")
        classes = dict(map(tuple, doc["profile"]["index_two"]["classes"]))
        assert classes == {"gamma_plus": 16, "pauli_c2": 6, "d4_v4": 9}

    def test_generator_file(self, capsys, tmp_path):
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({
            "name": "trivial",
            "dimension": 2,
            "generators": ["[[1, 0], [0, 1]]"],
        }))
        code, doc, _ = run_json(capsys, "analyze", str(path))
        assert code == 0
        assert doc["profile"]["order"] == 1
        assert doc["profile"]["census"] == "1x1"
        assert doc["profile"]["indicators"] is None

    @pytest.mark.parametrize("name,generators,expected", [
        ("c3", [CYCLE], {
            "order": 3, "class_count": 3, "center_order": 3, "abelian_invariants": [3],
            "indicators": None, "census": "3x1", "min_generators": None,
            "index_two": {"count": 0, "classes": []},
        }),
        ("s3", [CYCLE, SWAP], {
            "order": 6, "class_count": 3, "center_order": 1, "abelian_invariants": [2],
            "indicators": None, "census": "2x1 + 1x2", "min_generators": None,
            "index_two": {"count": 1, "classes": [[None, 1]]},
        }),
    ], ids=["c3", "s3"])
    def test_group_order_not_a_power_of_two(self, capsys, tmp_path, name, generators, expected):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "dimension": 3, "generators": generators}))
        code, doc, _ = run_json(capsys, "analyze", str(path))
        assert code == 0
        assert {key: doc["profile"][key] for key in expected} == expected

    @pytest.mark.parametrize("target, order", [
        *((name, catalog._load_payload(name)["expected"]["order"]) for name in catalog.CATALOG_NAMES),
        ("file:trivial", 1), ("file:c3", 3), ("file:s3", 6), ("file:gamma64_minus", 64),
    ])
    def test_profile_keys_and_stored_expected_block(self, capsys, tmp_path, target, order):
        # One profile path: the keys `analyze` reports follow from the order
        # alone, and every stored `expected` key of a catalog entry equals
        # its `analyze` value after the stored-form mapping.
        if target.startswith("file:"):
            name = target[len("file:"):]
            generators = PROFILE_FILES.get(name) or [
                format_matrix(g) for g in catalog.catalog_entry(name).generators
            ]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "name": name, "dimension": len(json.loads(generators[0])), "generators": generators,
            }))
            target = str(path)
        code, doc, _ = run_json(capsys, "analyze", target)
        profile = doc["profile"]
        assert code == 0 and profile["order"] == order
        keys = {
            "name", "dimension", "order", "class_count", "center_order", "abelian_invariants",
            "min_generators", "census", "indicators", "composition", "blocks",
        }
        if order == 16:
            keys.add("component")
        if 2 <= order <= 64:
            keys.add("index_two")
        assert set(profile) == keys
        assert (profile["composition"] is None) == (not 16 <= order <= 32)
        if target not in catalog.CATALOG_NAMES:
            return
        stored_form = dict(profile)
        stored_form["census"] = [
            [int(dim), int(count)]
            for count, _, dim in (part.partition("x") for part in profile["census"].split(" + "))
        ]
        if "index_two" in profile:
            stored_form["decomposition"] = dict(profile["index_two"]["classes"])
        for key, value in catalog._load_payload(target)["expected"].items():
            assert stored_form[key] == value, key

    def test_cap_rejects_oversized_closure(self, capsys, tmp_path):
        path = tmp_path / "q8.json"
        path.write_text(json.dumps({
            "name": "q8",
            "dimension": 2,
            "generators": ["[[i, 0], [0, -i]]", "[[0, 1], [-1, 0]]"],
        }))
        code, out, err = run(capsys, "--cap", "4", "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "cap" in err

    @pytest.mark.parametrize("payload", [
        "name dimension generators",
        ["name", "dimension", "generators"],
        {"name": "x", "dimension": 2, "generators": "[[0, 1], [1, 0]]"},
        {"name": "x", "dimension": 2, "generators": [5]},
        {"name": "x", "dimension": None, "generators": ["[[0, 1], [1, 0]]"]},
        {"name": "x", "dimension": 2.5, "generators": ["[[0, 1], [1, 0]]"]},
    ])
    def test_malformed_generator_file_is_a_usage_error(self, capsys, tmp_path, payload):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "malformed.json" in err

    def test_unknown_target_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "no_such_thing")
        assert code == 2
        assert "no_such_thing" in err

    def test_unparseable_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"name\": \"x\"")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "broken.json" in err

    def test_ambiguous_census_is_a_usage_error(self, capsys, tmp_path):
        # Order 768: more than one multiset of irreducible dimensions fits
        # the order, the class count and the abelianization.
        path = tmp_path / "census768.json"
        path.write_text(json.dumps({"name": "census768", "dimension": 4, "generators": [
            "[[i,0,0,0],[0,i,0,0],[0,0,0,-1],[0,0,-i,0]]",
            "[[0,0,-1,0],[0,-1,0,0],[i,0,0,0],[0,0,0,1]]",
        ]}))
        code, out, err = run(capsys, "--format", "json", "analyze", str(path))
        assert code == 2
        assert out == ""
        message = f"cannot analyze {str(path)!r}: ambiguous irreducible dimension census"
        assert err == f"error: {message}\n"


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--filter", "pauli.*")
        assert code == 0
        assert doc["profile"] == {"total": 6, "passed": 6, "failed": 0}
        assert len(doc["claims"]) == 6
        assert all(claim["status"] == "PASS" for claim in doc["claims"])

    def test_claims_are_sorted_by_id(self, capsys):
        _, doc, _ = run_json(capsys, "verify", "--filter", "brackets.*")
        ids = [claim["claim_id"] for claim in doc["claims"]]
        assert ids == sorted(ids)

    def test_repeated_runs_differ_only_in_timings(self, capsys):
        bodies = []
        for _ in range(2):
            _, doc, _ = run_json(capsys, "verify", "--filter", "pauli.*")
            claims_ms = doc["timings"]["claims_ms"]
            assert sorted(claims_ms) == [claim["claim_id"] for claim in doc["claims"]]
            del doc["timings"]
            bodies.append(cli.render_json(doc))
        assert bodies[0] == bodies[1]

    def test_search_counters_are_reported_under_timings(self, capsys):
        catalog._gamma_models.cache_clear()
        _, doc, _ = run_json(capsys, "verify", "--filter", "search.*")
        counters = doc["timings"]["counters"]
        assert sorted(counters) == ALL_COUNTER_KEYS
        assert counters["search.tuples"] > 0
        _, again, _ = run_json(capsys, "verify", "--filter", "search.*")
        assert set(again["timings"]["counters"].values()) == {0}  # served from the cache
        del doc["timings"], again["timings"]
        assert doc == again

    def test_cold_verify_search_counters_are_pinned(self):
        # The search's work on both pools: a change here is a change in
        # enumeration or where the search stops. Tuples count the fourths
        # visited, one per triple walked.
        counters = run_cold("verify")["timings"]["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("search.")} == {
            "search.tuples": 23,
        }

    def test_cold_verify_iso_counters_are_pinned(self):
        # Every group a verify names or classes is in F and goes by its
        # squaring key; only the two claims that state a backtracking check
        # (q8 against d4, rejected by fingerprint, and pauli against
        # pauli_f) test isomorphism. A change here means a group fell out
        # of F or a claim changed.
        counters = run_cold("verify")["timings"]["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("iso.")} == {
            "iso.calls": 2,
            "iso.fingerprint_rejects": 1,
            "iso.nodes": 3,
        }

    def test_cold_verify_component_counters_are_pinned(self):
        # The component scans of a cold verify: one scan of each order-16
        # to 32 catalog group's own table for composition, plus the
        # order-16 scans (components, extraction, index-two labels, roles).
        # Every visited triple, one per sign class and set of equal
        # squares, is tested for generating once. A change here is a change
        # in which triples a scan visits or which rows it checks.
        counters = run_cold("verify")["timings"]["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("component.")} == {
            "component.row_checks": 115,
            "component.triples": 202,
        }

    def test_component_counters_are_reported_under_timings(self, capsys):
        catalog.catalog_profile.cache_clear()  # count a cold profile
        code, doc, _ = run_json(capsys, "verify", "--filter", "catalog.pauli_c2.*")
        assert code == 0
        counters = doc["timings"]["counters"]
        assert sorted(counters) == ALL_COUNTER_KEYS
        assert min(counters.values()) >= 0
        assert counters["component.row_checks"] > 0

    def test_empty_filter_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--filter", "nonexistent.*")
        assert code == 2
        assert out == ""
        assert "nonexistent.*" in err

    def test_markdown_has_one_row_per_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "--filter", "quaternion.*")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("| PASS")]
        assert len(rows) == 4


class TestSubgroups:
    def test_classified_index_two_subgroups(self, capsys):
        code, doc, _ = run_json(
            capsys, "subgroups", "gamma_minus", "--order", "16", "--classify"
        )
        assert code == 0
        labels = [row["component"] for row in doc["profile"]["subgroups"]]
        assert len(labels) == 15
        assert sorted(labels) == ["b"] * 5 + ["d"] * 10

    def test_nondividing_order_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "subgroups", "q8", "--order", "3")
        assert code == 2
        assert "divide" in err

    @pytest.mark.parametrize("order", ["0", "-4"])
    def test_nonpositive_order_is_a_parser_error(self, capsys, order):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["subgroups", "pauli", "--order", order])
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert f"argument --order: must be at least 1, got {order}" in err
        assert "divide" not in err and "Traceback" not in err


class TestBrackets:
    def test_declared_realization_verifies(self, capsys):
        code, doc, _ = run_json(capsys, "brackets", "pauli", "--table", "d")
        assert code == 0
        assert doc["profile"]["passed"] is True
        assert all(check["passed"] for check in doc["profile"]["checks"])

    def test_search_fallback_on_extracted_entry(self, capsys):
        code, doc, _ = run_json(capsys, "brackets", "q8_c2", "--table", "b")
        assert code == 0
        assert doc["profile"]["passed"] is True

    def test_wrong_table_for_the_group_fails(self, capsys):
        code, doc, _ = run_json(capsys, "brackets", "q8_c2", "--table", "c")
        assert code == 1
        assert doc["profile"]["passed"] is False
        assert "no realization" in doc["profile"]["detail"]

    def test_wrong_order_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "brackets", "q8", "--table", "d")
        assert code == 2
        assert "16" in err


class TestSearch:
    def test_all_plus_signature_finds_one_class(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--signature", "++++")
        assert code == 0
        hits = doc["profile"]["hits"]
        assert [hit["identified"] for hit in hits if hit["order"] == 32] == ["gamma_minus"]

    def test_twisted_signature_needs_the_wide_pool(self, capsys):
        _, narrow, _ = run_json(capsys, "search", "--signature=---|+")
        assert [h for h in narrow["profile"]["hits"] if h["order"] == 32] == []
        assert sorted(narrow["timings"]["counters"]) == ALL_COUNTER_KEYS
        _, wide, _ = run_json(
            capsys, "search", "--signature=---|+", "--pool", "penta8"
        )
        stable = [h["identified"] for h in wide["profile"]["hits"] if h["order"] == 32]
        assert stable == ["q8_v4"]

    def test_malformed_signature_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "--signature", "+*+-")
        assert code == 2
        assert "sign" in err


class TestExtensions:
    def test_found_extension_reports_identity_and_relations(self, capsys):
        code, doc, _ = run_json(
            capsys, "extensions", "--base", "gamma_minus", "--square", "plus"
        )
        assert code == 0
        profile = doc["profile"]
        assert profile["found"] is True
        assert profile["identified"] == "gamma64_minus"
        assert profile["order"] == 64
        assert profile["relations_passed"] is True

    def test_absent_extension_is_reported_not_fatal(self, capsys):
        code, doc, _ = run_json(
            capsys, "extensions", "--base", "q8_v4", "--square", "minus"
        )
        assert code == 0
        assert doc["profile"]["found"] is False
        assert "no phase" in doc["profile"]["reason"]

    def test_unknown_base_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "extensions", "--base", "mystery", "--square", "plus")
        assert code == 2
        assert "mystery" in err


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        (),
        ("analyze",),
        ("brackets", "pauli"),
        ("search",),
        ("extensions", "--base", "pauli"),
        ("--format", "yaml", "catalog", "list"),
        ("--jobs", "-3", "verify", "--filter", "pauli.*"),
        ("verify", "--jobs", "0"),
        ("--cap", "-1", "analyze", "q8"),
        ("analyze", "q8", "--cap", "0"),
    ])
    def test_argparse_rejects_incomplete_commands(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("analyze",),
        ("brackets", "--table", "d"),
        ("subgroups", "--order", "2"),
    ], ids=lambda argv: argv[0])
    def test_directory_target_is_a_usage_error(self, capsys, tmp_path, argv):
        command, *options = argv
        code, out, err = run(capsys, command, str(tmp_path), *options)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {str(tmp_path)!r} is neither a catalog entry nor a readable file\n"
        )

    @pytest.mark.parametrize("argv", [
        ("analyze",),
        ("brackets", "--table", "d"),
        ("subgroups", "--order", "2"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        json.dumps({"name": "deep", "dimension": 2, "generators": ["[" * 50_000 + "]" * 50_000]}),
    ], ids=["file", "generator"])
    def test_deeply_nested_json_is_a_usage_error(self, capsys, tmp_path, argv, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        command, *options = argv
        code, out, err = run(capsys, command, str(path), *options)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot load generator file {str(path)!r}: JSON nesting too deep\n"


def test_no_command_imports_dataclasses():
    # -S keeps site-packages hooks out, so only the package's own imports count.
    script = (
        "import contextlib, io, sys\n"
        "from gammagroups.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in (['catalog', 'list'], ['analyze', 'q8'],\n"
        "                                     ['verify', '--format', 'json'])]\n"
        "assert codes == [0, 0, 0], codes\n"
        "assert 'dataclasses' not in sys.modules\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    assert out.returncode == 0, out.stderr


# The modules that load on first use: the search and extensions, the
# invariant forms and weights, the claim checks, and the relation words.
LAZY_MODULES = (
    "gammagroups.search", "gammagroups.forms", "gammagroups.paper", "gammagroups.words",
)


def run_fresh(script, *args, flags=("-S",)):
    """Run a script in a fresh interpreter on the source tree; return stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_analyze_leaves_the_lazy_halves_uncompiled(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"name": "s3", "dimension": 3, "generators": [CYCLE, SWAP]}))
    script = (
        "import contextlib, io, sys\n"
        "from gammagroups import catalog\n"
        "from gammagroups.cli import main\n"
        f"lazy = {LAZY_MODULES!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in (['catalog', 'list'], ['analyze', 'q8'],\n"
        "                                     ['analyze', sys.argv[1]])]\n"
        "assert codes == [0, 0, 0], codes\n"
        "assert not [m for m in lazy if m in sys.modules], sorted(sys.modules)\n"
        "assert 'importlib.resources' not in sys.modules\n"
        "assert 'find_gamma_models' not in vars(catalog)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--filter', 'search.*']) == 0\n"
        "    assert main(['verify', '--filter', 'pauli.weights']) == 0\n"
        "assert all(m in sys.modules for m in lazy), sorted(sys.modules)\n"
    )
    run_fresh(script, str(path))


def test_verify_compiles_the_search_only_for_search_claims():
    script = (
        "import contextlib, io, sys\n"
        "from gammagroups.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--filter', 'pauli.*']) == 0\n"
        "assert 'gammagroups.search' not in sys.modules, sorted(sys.modules)\n"
        "assert 'importlib.resources' not in sys.modules, sorted(sys.modules)\n"
    )
    run_fresh(script)


@pytest.mark.parametrize("pattern, loads_forms", [("quaternion.*", False), ("pauli.weights", True)])
def test_verify_compiles_the_forms_only_for_form_and_weight_claims(pattern, loads_forms):
    script = (
        "import contextlib, io, sys\n"
        "from gammagroups.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--filter', sys.argv[1]]) == 0\n"
        "print('gammagroups.forms' in sys.modules)\n"
    )
    assert run_fresh(script, pattern) == f"{loads_forms}\n"


def test_the_process_entry_freezes_the_heap_and_main_does_not():
    script = (
        "import contextlib, gc, io, sys\n"
        "from gammagroups import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', 'q8', '--format', 'json']) == 0\n"
        "    assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
        "    sys.argv = ['gammagroups', 'analyze', 'q8', '--format', 'json']\n"
        "    assert cli.run() == 0\n"
        "assert gc.get_freeze_count() > 0\n"
    )
    run_fresh(script)


@pytest.mark.parametrize(
    "argv, want_code",
    [(("analyze", "q8"), 0), (("catalog", "list"), 0), (("analyze", "no_such_group"), 2)],
    ids=["analyze", "catalog list", "unknown target"],
)
def test_module_entry_matches_in_process_main(capsys, argv, want_code):
    argv = [*argv, "--format", "json"]
    code, out, err = run(capsys, *argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "gammagroups.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )

    def without_timings(text):
        if not text:
            return text
        doc = json.loads(text)
        del doc["timings"]
        return doc

    assert (proc.returncode, proc.stderr) == (code, err)
    assert code == want_code
    assert without_timings(proc.stdout) == without_timings(out)


class TestForwarders:
    def test_no_package_path(self):
        assert not hasattr(catalog, "__path__")
        assert not hasattr(reps, "__path__")

    @pytest.mark.parametrize("module", [catalog, reps], ids=lambda m: m.__name__)
    def test_unknown_name_is_an_attribute_error(self, module):
        with pytest.raises(AttributeError):
            module.no_such_name

    def test_names_resolve_to_the_lazy_modules(self):
        from gammagroups import forms, search

        assert catalog.find_gamma_models is search.find_gamma_models
        assert reps.spin_weights is forms.spin_weights
        assert reps.invariant_bilinear_form is forms.invariant_bilinear_form

    def test_importing_a_staying_name_loads_no_lazy_module(self):
        script = (
            "import sys\n"
            "from gammagroups.catalog import catalog_entry\n"
            "from gammagroups.reps import irrep_census\n"
            "print(sorted(m for m in sys.modules if m.startswith('gammagroups.')))\n"
        )
        loaded = run_fresh(script)
        assert not [m for m in LAZY_MODULES if m in loaded], loaded


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_resolves_after_importing_the_cli():
    # The benchmark's tracer looks each LAYERS module up in sys.modules
    # after importing only `gammagroups.cli`, then reads the attribute path.
    script = (
        "import sys\n"
        "import gammagroups.cli\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracing import LAYERS\n"
        "for layer, module, path in LAYERS:\n"
        "    owner = sys.modules[module]\n"
        "    for name in path.split('.'):\n"
        "        owner = getattr(owner, name)\n"
        "    assert callable(owner), (layer, module, path)\n"
    )
    run_fresh(script, str(PERFBENCH))


def test_traced_cli_writes_a_trace(tmp_path):
    trace = tmp_path / "trace.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(trace), "0",
         "analyze", "q8", "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["profile"]["order"] == 8
    summary = json.loads(trace.read_text())
    assert summary["count"]["cli.main"] == 1


PHASES = ("1", "-1", "i", "-i")


@st.composite
def monomial_generator_files(draw):
    """1-3 monomial generators of dimension 1-3 with entries in {0, +-1, +-i}."""
    dim = draw(st.integers(min_value=1, max_value=3))
    generators = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rows = [["0"] * dim for _ in range(dim)]
        for row, column in enumerate(draw(st.permutations(range(dim)))):
            rows[row][column] = draw(st.sampled_from(PHASES))
        generators.append("[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]")
    return {"name": "fuzz", "dimension": dim, "generators": generators}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=3) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)

GENERATOR_FILE_TEXTS = st.one_of(
    monomial_generator_files().map(json.dumps),
    # well-formed files with one field replaced by an arbitrary JSON value
    st.tuples(monomial_generator_files(), st.sampled_from(["name", "dimension", "generators"]),
              JSON_VALUES).map(lambda t: json.dumps({**t[0], t[1]: t[2]})),
    # generator texts that are not matrices, or not of the stated dimension
    st.tuples(monomial_generator_files(), st.text(max_size=12)).map(
        lambda t: json.dumps({**t[0], "generators": t[0]["generators"] + [t[1]]})
    ),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=20),
)


@settings(max_examples=40, deadline=None)
@given(text=GENERATOR_FILE_TEXTS)
def test_analyze_is_total_on_generator_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--format", "json", "analyze", str(path), "--cap", "64"])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            runs.append(err.getvalue())
            continue
        doc = json.loads(out.getvalue())
        del doc["timings"]
        runs.append(cli.render_json(doc))
    assert runs[0] == runs[1]
