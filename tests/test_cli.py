import collections
import hashlib
import json
import math

import numpy as np
import pytest

from opineq import BadParameter, InvalidMatrix, TrialSpec, run_campaign, spectral, verifier
from opineq.cli import _build_parser, load_matrix_file, load_vector_file, main, parse_json, render_json
from opineq.verifier import MAX_TRIALS

FIXTURES = "src/opineq/fixtures"
CUBE = f"{FIXTURES}/cube_vector_state_3x3.json"


def write_matrix(tmp_path, name, dim, data):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": dim, "data": data}))
    return str(path)


class TestJsonRendering:
    def test_floats_round_trip(self):
        values = [0.1, 1.0 / 3.0, 2.0, -0.0, 1e-300, 123456789.123456789, 5.0 / 272.0]
        for value in values:
            assert json.loads(render_json(value)) == value

    def test_integral_floats_stay_floats(self):
        assert render_json(2.0) == "2.0"
        assert isinstance(json.loads(render_json(2.0)), float)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_floats_are_refused(self, value):
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            render_json({"x": [value]})

    def test_sorted_keys(self):
        assert render_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_nested_structures(self):
        payload = {"x": [1, 2.5, None, True, "s"], "y": {"z": [0.1]}}
        assert json.loads(render_json(payload)) == payload

    def test_campaign_report_round_trips(self):
        report = run_campaign(TrialSpec(seed=11, trials=4)).to_dict()
        assert parse_json(render_json(report)) == report


class TestCheckCommand:
    def test_cube_example_passes(self, tmp_path, capsys):
        code = main([
            "check",
            "--matrix", f"{FIXTURES}/cube_vector_state_3x3.json",
            "--map", f"vecstate:{FIXTURES}/uniform_state_3.json",
            "--function", "power:3",
            "--m", "0.25", "--M", "3.8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "alpha=1.5" in out
        assert "beta=22.8" in out
        assert "8 <= 27.1475" in out
        assert "24 <= 43.5475" in out

    def test_quartic_counterexample_noted_but_bounds_pass(self, capsys):
        code = main([
            "check",
            "--matrix", f"{FIXTURES}/quartic_corner_3x3.json",
            "--map", "corner",
            "--function", "power:4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "incomparable" in out

    def test_json_mode(self, capsys):
        code = main([
            "check",
            "--matrix", f"{FIXTURES}/inverse_trace_2x2.json",
            "--map", "trace",
            "--function", "power:-1",
            "--m", "2", "--M", "8",
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["all_hold"] is True
        assert payload["m"] == 2.0
        labels = {r["label"] for r in payload["reports"]}
        assert "jensen_upper" in labels and "ratio_upper" in labels

    def test_malformed_matrix_exits_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "bad.json", 2, [1.0, 2.0, 3.0])  # wrong length
        code = main(["check", "--matrix", path, "--map", "trace", "--function", "power:2"])
        assert code == 2

    @pytest.mark.parametrize("payload", [[1, 2], None, {"data": [1]}, {"dim": 1}],
                             ids=["list", "null", "no_dim", "no_data"])
    @pytest.mark.parametrize("option", ["--matrix", "--map"])
    def test_file_that_is_not_a_dim_data_object_exits_2(self, payload, option, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        good = write_matrix(tmp_path, "good.json", 2, [1.0, 0.3, 0.3, 2.0])
        if option == "--matrix":
            matrix, map_spec = str(bad), "trace"
        else:
            matrix, map_spec = good, f"vecstate:{bad}"
        assert main(["check", "--matrix", matrix, "--map", map_spec, "--function", "power:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: must be an object with 'dim' and 'data'" in captured.err

    def test_skipped_ratio_sandwich_is_noted(self, tmp_path, capsys):
        # log is negative at 0.5, so the ratio sandwich's precondition f > 0 fails
        path = write_matrix(tmp_path, "a.json", 2, [0.5, 0.0, 0.0, 2.0])
        assert main(["check", "--matrix", path, "--map", "trace", "--function", "log"]) == 0
        out = capsys.readouterr().out
        assert "  note: ratio sandwich skipped: function is not positive on [m, M]" in out
        assert "ratio_lower" not in out

    def test_unparseable_file_exits_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code = main(["check", "--matrix", str(path), "--map", "trace", "--function", "power:2"])
        assert code == 2

    def test_unknown_function_exits_2(self):
        code = main([
            "check", "--matrix", f"{FIXTURES}/inverse_trace_2x2.json",
            "--map", "trace", "--function", "sinh",
        ])
        assert code == 2

    def test_tolerance_override_can_fail_tight_equalities(self, capsys):
        # the squared function makes several comparisons exact identities, so a
        # tolerance below rounding noise flips some verdicts and exits 1
        code = main([
            "check", "--matrix", f"{FIXTURES}/inverse_trace_2x2.json",
            "--map", "trace", "--function", "power:2", "--tol", "1e-300",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_tolerance_override_judges_each_comparison_once(self, capsys, monkeypatch):
        solves = collections.Counter()
        one_by_one = spectral._cyclic_jacobi
        batched = spectral._jacobi_batch

        def counting(a, vectors=True):
            solves["list"] += 1
            return one_by_one(a, vectors)

        def counting_batch(stack, vectors=False):
            solves["batch"] += len(stack)
            return batched(stack, vectors)

        monkeypatch.setattr(spectral, "_cyclic_jacobi", counting)
        monkeypatch.setattr(spectral, "_jacobi_batch", counting_batch)
        argv = ["check", "--matrix", f"{FIXTURES}/quartic_corner_3x3.json",
                "--map", "identity", "--function", "power:4", "--json"]
        counts = []
        for extra in ([], ["--tol", "1e-6"]):
            solves.clear()
            main(argv + extra)
            payload = json.loads(capsys.readouterr().out)
            counts.append(sum(solves.values()))
        # a context's own solves plus one per comparison, the plain one included
        assert counts[0] == counts[1]
        assert payload["reports"][0]["tolerance"] == 1e-6

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2_before_any_report(self, tol, json_flag, capsys):
        code = main(["check", "--matrix", CUBE, "--function", "power:3", "--tol", tol, *json_flag])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "tolerance must be finite" in captured.err

    def test_one_dimensional_corner_exits_2(self, tmp_path):
        path = write_matrix(tmp_path, "one.json", 1, [2.0])
        assert main(["check", "--matrix", path, "--map", "corner", "--function", "power:2"]) == 2

    def test_kantorovich_alias(self, capsys):
        code = main([
            "kantorovich",
            "--matrix", f"{FIXTURES}/inverse_trace_2x2.json",
            "--map", "trace",
            "--m", "2", "--M", "8",
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["function"] == "power:-1"


class TestFuzzCommand:
    def test_deterministic_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            main(["fuzz", "--seed", "21", "--trials", "8", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_chunking_leaves_report_bytes_unchanged(self, tmp_path, monkeypatch):
        chunks_of = verifier._chunks
        chunks = []

        def counting(spec):
            for chunk in chunks_of(spec):
                chunks.append(len(chunk))
                yield chunk

        monkeypatch.setattr(verifier, "_chunks", counting)
        budget_of_one_chunk = verifier._CHUNK_BUDGET
        # the cyclic kernels below size 12, the round-robin kernel from 12 on
        for dims, trials in (("2..8", 24), ("12..16", 6)):
            chunks.clear()
            outputs = []
            for budget in (budget_of_one_chunk, 1):  # one chunk, then one trial per chunk
                monkeypatch.setattr(verifier, "_CHUNK_BUDGET", budget)
                out, csv_path = tmp_path / f"{budget}.json", tmp_path / f"{budget}.csv"
                main(["fuzz", "--seed", "5", "--dims", dims, "--trials", str(trials),
                      "--out", str(out), "--csv", str(csv_path)])
                outputs.append((out.read_bytes(), csv_path.read_bytes()))
            assert chunks == [trials] + [1] * trials, dims
            assert outputs[0] == outputs[1], dims

    def test_defaults_are_the_trial_spec_defaults(self, monkeypatch, capsys):
        # fuzz without flags runs exactly TrialSpec(); the CLI keeps no copy of its defaults
        specs = []

        def record(spec):
            specs.append(spec)
            raise BadParameter("recorded")

        monkeypatch.delenv("OPINEQ_SEED", raising=False)
        monkeypatch.setattr("opineq.cli.run_campaign", record)
        assert main(["fuzz"]) == 2
        assert specs == [TrialSpec()]
        assert "error: recorded" in capsys.readouterr().err

    def test_report_goes_to_stdout_without_out(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["fuzz", "--seed", "21", "--trials", "4", "--out", str(out)])
        capsys.readouterr()
        main(["fuzz", "--seed", "21", "--trials", "4"])
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_zero_trials_exit_2(self, tmp_path):
        assert main(["fuzz", "--trials", "0", "--out", str(tmp_path / "r.json")]) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        monkeypatch.setenv("OPINEQ_SEED", "77")
        main(["fuzz", "--trials", "4", "--out", str(out1)])
        monkeypatch.delenv("OPINEQ_SEED")
        main(["fuzz", "--seed", "77", "--trials", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2(self, seed, tmp_path, monkeypatch, capsys):
        # the generator reduces a seed mod 2**64, so -1 would rerun seed 2**64 - 1
        out = tmp_path / "r.json"
        assert main(["fuzz", "--seed", str(seed), "--trials", "1", "--out", str(out)]) == 2
        monkeypatch.setenv("OPINEQ_SEED", str(seed))
        assert main(["fuzz", "--trials", "1", "--out", str(out)]) == 2
        assert main(["entropy", "--random", "2"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("seed must be in [0, 2**64)") == 3

    def test_exit_code_tracks_failures(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["fuzz", "--seed", "21", "--trials", "8", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert (code == 0) == (len(payload["failures"]) == 0)

    def test_csv_export(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "rows.csv"
        main(["fuzz", "--seed", "3", "--trials", "3", "--out", str(out), "--csv", str(csv_path)])
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "inequality,trial,dim,slack,pass"
        assert len(lines) > 20

    def test_bad_dims_exit_2(self, tmp_path):
        assert main(["fuzz", "--dims", "nope", "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize(
        "option, value, message",
        [("--dims", "2..10000", "dimension range"), ("--tol", "nan", "tolerance must be finite")],
        ids=["oversized_dims", "nan_tolerance"],
    )
    def test_bad_spec_exits_2_before_any_trial(self, option, value, message, tmp_path, monkeypatch, capsys):
        def no_trial(*_args):
            raise AssertionError("a bad spec must be rejected before its first trial")

        monkeypatch.setattr("opineq.verifier._draw_trial", no_trial)
        assert main(["fuzz", option, value, "--out", str(tmp_path / "r.json")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestPaperExamplesCommand:
    def test_all_reference_values_reproduce(self, capsys):
        code = main(["paper-examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "0.00195312" in out  # the 1/512 gap difference


class TestEntropyCommand:
    def test_maximally_mixed(self, capsys):
        code = main(["entropy", "--rho", f"{FIXTURES}/maximally_mixed_2.json", "--p", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert format(math.log(2.0), ".6g") in out

    def test_tsallis_value_json(self, capsys):
        code = main([
            "entropy", "--rho", f"{FIXTURES}/maximally_mixed_2.json", "--p", "0.5", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        row = payload["rows"][0]
        assert row["tsallis"] == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-12)

    def test_non_unit_trace_exits_2(self, tmp_path):
        path = write_matrix(tmp_path, "rho.json", 2, [0.5, 0.0, 0.0, 0.6])
        assert main(["entropy", "--rho", path, "--p", "0.5"]) == 2

    def test_not_positive_exits_2(self, tmp_path):
        path = write_matrix(tmp_path, "rho.json", 2, [1.0, 0.0, 0.0, 0.0])
        assert main(["entropy", "--rho", path, "--p", "0.5"]) == 2

    def test_bad_order_exits_2(self):
        assert main(["entropy", "--rho", f"{FIXTURES}/maximally_mixed_2.json", "--p", "0"]) == 2

    def test_random_table(self, capsys):
        code = main(["entropy", "--random", "5", "--seed", "4"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 6
        assert code in (0, 1)  # floors may legitimately fail for spread spectra

    @pytest.mark.parametrize("count", [-5, 0, MAX_TRIALS + 1])
    def test_random_count_out_of_range_exits_2_before_any_draw(self, count, monkeypatch, capsys):
        def no_draw(*_args):
            raise AssertionError("an out-of-range count must be rejected before its first draw")

        monkeypatch.setattr("opineq.cli.random_density", no_draw)
        assert main(["entropy", "--random", str(count)]) == 2
        captured = capsys.readouterr()
        assert f"between 1 and {MAX_TRIALS}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--matrix", CUBE, "--function", "power:3", "--map", "vecstate"], "vecstate needs"),
        (["check", "--matrix", CUBE, "--function", "power:3", "--map", "pinching"], "unknown map spec"),
        (["fuzz", "--dims", "2..x"], "bad dimension range"),
        (["entropy"], "provide --rho"),
        (["check", "--matrix", CUBE, "--function", "power:inf"], "parameters must be finite"),
    ],
    ids=["vecstate_without_path", "unknown_map", "non_integer_dims", "entropy_without_input",
         "infinite_exponent"],
)
def test_usage_error_raises_bad_parameter_and_exits_2(argv, message, capsys):
    args = _build_parser().parse_args(argv)
    with pytest.raises(BadParameter, match=message):
        args.handler(args)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


class TestMatrixLoader:
    def test_loads_fixture(self):
        matrix = load_matrix_file(f"{FIXTURES}/inverse_trace_2x2.json")
        assert np.array_equal(matrix.entries, np.array([[3.0, -2.0], [-2.0, 7.0]]))

    def test_asymmetric_rejected(self, tmp_path):
        path = write_matrix(tmp_path, "asym.json", 2, [1.0, 2.0, 1.0, 3.0])
        code = main(["check", "--matrix", path, "--map", "trace", "--function", "power:2"])
        assert code == 2

    @pytest.mark.parametrize("dim, data, message", [
        (-1, [5.0], "dim must be a positive integer"),
        (2.7, [1.0, 0.0, 0.0, 1.0], "dim must be a positive integer"),
        (2, "abcd", "data must be a flat list of reals"),
        (2, [1.0, float("nan"), float("nan"), 1.0], "entries must be finite"),
        (2, [1.0, float("inf"), float("inf"), 1.0], "entries must be finite"),
    ], ids=["negative_dim", "fractional_dim", "string_data", "nan", "inf"])
    def test_malformed_files_are_invalid_matrices(self, dim, data, message, tmp_path, capsys):
        # json.dumps writes NaN and Infinity, which json.load reads back
        matrix = write_matrix(tmp_path, "a.json", dim, data)
        vector = write_matrix(tmp_path, "v.json", dim, data[:2] if isinstance(data, list) else data)
        with pytest.raises(InvalidMatrix, match=message):
            load_matrix_file(matrix)
        with pytest.raises(InvalidMatrix, match=message):
            load_vector_file(vector)
        good = write_matrix(tmp_path, "good.json", 2, [1.0, 0.3, 0.3, 2.0])
        assert main(["check", "--matrix", matrix, "--map", "trace", "--function", "power:3"]) == 2
        assert main(["check", "--matrix", good, "--map", f"vecstate:{vector}", "--function", "power:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(message) == 2


def test_non_unit_state_vector_exits_2(tmp_path, capsys):
    matrix = write_matrix(tmp_path, "a.json", 2, [1.0, 0.3, 0.3, 2.0])
    vector = write_matrix(tmp_path, "v.json", 2, [0.2, 0.2])
    argv = ["check", "--matrix", matrix, "--map", f"vecstate:{vector}",
            "--function", "power:3", "--m", "0.05", "--M", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vecstate map is not unital" in captured.err


# SHA-256 of the `check --json` and `kantorovich --json` outputs (exit code
# plus stdout) over the fixtures, one digest per map.  Recorded before the
# inequality families and the map builder moved behind one table each; the
# bytes must not change when the code behind them is reorganised.
CHECK_OUTPUT_SHA256 = {
    "corner": "af01026808c424387dc75d6eb201e9a14ab1a8622bdb60e1f4f28a353da4c148",
    "trace": "0d9ebaa133cc05eccbc25c9389beb3743043572348a479139d85fad8df3a649f",
    "identity": "a62ccd2357650aca685290dd47454a72dc7546f67176d2174904e473528ec5d4",
    "vecstate": "060d5da3def028aa89c5f1bacc700fffed40866fc9638ef60dcc11a5365e5ba7",
}
CHECK_FIXTURES = {
    "cube_vector_state_3x3.json": ("0.25", "3.8"),
    "inverse_trace_2x2.json": ("2", "8"),
    "quartic_corner_3x3.json": ("0.25", "5"),
}
CHECK_FUNCTIONS = ("power:3", "power:4", "log", "exp", "tsallis_f:0.5", "tsallis_g:-0.5")


def check_output_digest(map_name, capsys) -> str:
    map_arg = f"vecstate:{FIXTURES}/uniform_state_3.json" if map_name == "vecstate" else map_name
    digest = hashlib.sha256()
    for fixture, (m, M) in CHECK_FIXTURES.items():
        if map_name == "vecstate" and not fixture.endswith("3x3.json"):
            continue
        base = ["--matrix", f"{FIXTURES}/{fixture}", "--map", map_arg, "--json"]
        commands = [["check", *base, "--function", fn] for fn in CHECK_FUNCTIONS]
        commands.append(["kantorovich", *base])
        commands.append(["check", *base, "--function", "power:2", "--tol", "1e-300"])
        commands += [[*argv, "--m", m, "--M", M] for argv in list(commands)]
        for argv in commands:
            code = main(argv)
            digest.update(f"{' '.join(argv)}\n{code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("map_name", sorted(CHECK_OUTPUT_SHA256))
def test_check_output_bytes_pinned(map_name, capsys):
    assert check_output_digest(map_name, capsys) == CHECK_OUTPUT_SHA256[map_name]
