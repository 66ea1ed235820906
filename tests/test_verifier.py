import dataclasses
import hashlib
import math

import numpy as np
import pytest

from opineq import (
    BadParameter,
    InvalidMatrix,
    NotPositiveDefinite,
    ScalarCheck,
    SpectrumNotEnclosed,
    SplitMix64,
    SymmetricMatrix,
    TrialSpec,
    UnknownFunction,
    derive_seed,
    eigendecompose,
    loewner_compare,
    random_density,
    random_sandwich_pair,
    random_symmetric_with_spectrum,
    registered_inequalities,
    map_from_info,
    replay_failure,
    random_orthogonal,
    run_campaign,
    spectral,
    verifier,
)
from opineq.cli import render_json
from opineq.verifier import DEFAULT_FUNCTIONS, DEFAULT_MAPS, MAX_DIM, MAX_TRIALS

# a valid cdj reproducer (the spectrum of the matrix is about [0.79, 2.21]) and a density matrix
CDJ_INPUTS = {"kind": "cdj", "matrix": [2.0, 0.5, 0.5, 1.0], "dim": 2, "map": {"tag": "trace"},
              "function": "power:3", "m": 0.5, "M": 3.0}
RHO = [0.3, 0.1, 0.1, 0.7]


class TestGenerators:
    def test_spectrum_inside_interval(self):
        matrix = random_symmetric_with_spectrum(31, 4, 0.25, 3.8)
        dec = eigendecompose(matrix)
        assert dec.eigenvalues[0] >= 0.25 - 1e-12
        assert dec.eigenvalues[-1] <= 3.8 + 1e-12

    def test_deterministic_per_seed(self):
        a = random_symmetric_with_spectrum(7, 5, 1.0, 2.0)
        b = random_symmetric_with_spectrum(7, 5, 1.0, 2.0)
        assert np.array_equal(a.entries, b.entries)

    def test_distinct_seeds_differ(self):
        a = random_symmetric_with_spectrum(7, 5, 1.0, 2.0)
        b = random_symmetric_with_spectrum(8, 5, 1.0, 2.0)
        assert not np.array_equal(a.entries, b.entries)

    def test_endpoints_forced_roughly_quarter_of_the_time(self):
        forced = 0
        for i in range(400):
            matrix = random_symmetric_with_spectrum(derive_seed(71, i), 3, 1.0, 2.0)
            dec = eigendecompose(matrix)
            if abs(dec.eigenvalues[0] - 1.0) < 1e-9 and abs(dec.eigenvalues[-1] - 2.0) < 1e-9:
                forced += 1
        assert 50 <= forced <= 160

    def test_generator_validation(self):
        with pytest.raises(BadParameter):
            random_symmetric_with_spectrum(1, 1, 0.0, 1.0)
        with pytest.raises(BadParameter):
            random_symmetric_with_spectrum(1, 3, 2.0, 1.0)
        with pytest.raises(BadParameter, match="dimension must be at least 2"):
            random_density(1, 1)

    def test_orthogonal_bits_are_pinned(self):
        # recorded from the numpy-column construction; the Python-float
        # columns must give the same bytes, C-contiguous as np.eye made them
        pinned = {
            2: "1f60884a6d50eb111060e8a00d924c281570ae92767f41fa3ecca85a8e64816b",
            3: "08611d4fbeaec17719263b93f4e1fc683084c1aba0a9ec6811ed515d67e450eb",
            5: "c11902b60e722297b2337293e40f97c4dc86a8ae553ea37b7fe2b8581c15eea9",
            16: "eb60375460374ce7a4e5faf6f93c636c438d1f3c5d14bc9130aa090c266af285",
            32: "dad2e947dcd55222fc37fb742aba50638c63b20c74206bf8e8da71c7fdbece35",
        }
        for dim, digest in pinned.items():
            q = random_orthogonal(SplitMix64(dim), dim)
            assert q.dtype == np.float64 and q.shape == (dim, dim) and q.flags.c_contiguous
            assert hashlib.sha256(q.tobytes()).hexdigest() == digest, dim
            np.testing.assert_allclose(q.T @ q, np.eye(dim), atol=1e-13)

    def test_density_trace_and_floor(self):
        for i in range(50):
            rho = random_density(derive_seed(72, i), 2 + i % 5)
            assert abs(rho.rho.trace - 1.0) <= 1e-12
            assert rho.eigenvalues()[0] >= 1e-3 - 1e-12

    def test_density_deterministic(self):
        a = random_density(9, 4)
        b = random_density(9, 4)
        assert np.array_equal(a.rho.entries, b.rho.entries)

    def test_sandwich_pair_by_construction(self):
        pair = random_sandwich_pair(12, 4, 0.5, 2.0)
        assert loewner_compare(pair.m * pair.A, pair.B).holds_le
        assert loewner_compare(pair.B, pair.M * pair.A).holds_le
        assert 0.5 - 1e-10 <= pair.m < pair.M <= 2.0 + 1e-10

    def test_narrow_sandwich(self):
        pair = random_sandwich_pair(13, 3, 1.0, 1.0 + 1e-4)
        gap = pair.B - pair.m * pair.A
        assert gap.norm_max <= 1e-3 * (1.0 + pair.A.norm_max)

    def test_sandwich_pair_deterministic(self):
        a = random_sandwich_pair(14, 3, 0.5, 2.0)
        b = random_sandwich_pair(14, 3, 0.5, 2.0)
        assert np.array_equal(a.B.entries, b.B.entries)


class TestCampaign:
    def test_rejects_zero_trials(self):
        with pytest.raises(BadParameter):
            run_campaign(TrialSpec(trials=0))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(BadParameter):
            run_campaign(TrialSpec(trials=1, tolerance=0.0))
        for tolerance in (math.nan, math.inf):
            with pytest.raises(BadParameter):
                TrialSpec(tolerance=tolerance).validate()

    @pytest.mark.parametrize("tolerance", [True, "x", None, [1e-8]],
                             ids=["bool", "string", "none", "list"])
    def test_tolerance_must_be_a_real_number(self, tolerance):
        with pytest.raises(BadParameter, match="tolerance must be a real number"):
            TrialSpec(trials=1, dim_range=(2, 2), tolerance=tolerance).validate()

    def test_size_limits_admit_current_uses(self):
        TrialSpec().validate()
        TrialSpec(dim_range=(12, 16), trials=1).validate()
        TrialSpec(dim_range=(32, 32), trials=MAX_TRIALS).validate()
        TrialSpec(tolerance=np.float64(1e-8)).validate()  # a float subclass renders as a float

    @pytest.mark.parametrize(
        "spec",
        [
            TrialSpec(dim_range=(2, 10000)),
            TrialSpec(dim_range=(MAX_DIM + 1, MAX_DIM + 1)),
            TrialSpec(trials=MAX_TRIALS + 1),
        ],
    )
    def test_rejects_oversized_specs(self, spec):
        with pytest.raises(BadParameter):
            spec.validate()

    @pytest.mark.parametrize("error, sets", [
        (UnknownFunction, {"function_set": ("power:3", "lgo")}),
        (BadParameter, {"function_set": ("power",)}),
        (BadParameter, {"map_set": ("corner", "pinchng")}),
    ], ids=["function_typo", "missing_parameter", "map_typo"])
    def test_rejects_bad_entries_before_any_trial(self, error, sets, monkeypatch):
        # with seed 0 and one dim-2 trial the typo is never drawn, so only
        # validate can catch it; with seed 3 the campaign met it partway
        monkeypatch.setattr(verifier, "_draw_trial", None)  # no trial may be drawn
        for seed, trials, dims in ((0, 1, (2, 2)), (3, 2, (2, 8))):
            fields = {"function_set": ("power:3",), "map_set": ("corner",), **sets}
            spec = TrialSpec(seed=seed, trials=trials, dim_range=dims, **fields)
            with pytest.raises(error):
                spec.validate()
            with pytest.raises(error):
                run_campaign(spec)

    @pytest.mark.parametrize("fields, message", [
        ({"seed": 1.5}, "seed must be an int"),
        ({"seed": True}, "seed must be an int"),
        ({"trials": 2.5}, "trials must be an int"),
        ({"trials": True}, "trials must be an int"),
        ({"dim_range": (2.5, 3)}, "dimension must be an int"),
        ({"dim_range": (2, 3, 4)}, "must be a pair"),
        ({"dim_range": 3}, "must be a pair"),
        ({"function_set": "power:3"}, "not a string"),
        ({"map_set": "corner"}, "not a string"),
        ({"function_set": ()}, "must be nonempty"),
        ({"tolerance": np.float32(1e-3)}, "tolerance must be an int or a float"),
        ({"tolerance": np.int64(1)}, "tolerance must be an int or a float"),
        ({"function_set": (3,)}, "names must be strings, got 3"),
        ({"function_set": (b"log",)}, "names must be strings"),
        ({"map_set": ("corner", None)}, "names must be strings, got None"),
        ({"function_set": 3}, "a tuple or a list of names .* got 3"),
        ({"map_set": 7}, "a tuple or a list of names .* got 7"),
    ], ids=["float_seed", "bool_seed", "float_trials", "bool_trials", "float_dim", "triple_dims",
            "scalar_dims", "string_function_set", "string_map_set", "empty_function_set",
            "numpy_float_tolerance", "numpy_int_tolerance", "int_function", "bytes_function",
            "none_map", "int_function_set", "int_map_set"])
    def test_rejects_ill_typed_specs(self, fields, message, monkeypatch):
        monkeypatch.setattr(verifier, "_draw_trial", None)  # no trial may be drawn
        spec = TrialSpec(**{"trials": 1, **fields})
        with pytest.raises(BadParameter, match=message):
            spec.validate()
        with pytest.raises(BadParameter, match=message):
            run_campaign(spec)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70 - 1])
    def test_rejects_seeds_outside_64_bits(self, seed, monkeypatch):
        # SplitMix64 reduces mod 2**64: these ran the streams of 2**64 - 1, 0 and 2**64 - 1
        monkeypatch.setattr(verifier, "_draw_trial", None)  # no trial may be drawn
        spec = TrialSpec(seed=seed, trials=3, dim_range=(2, 3))
        for check in (spec.validate, lambda: run_campaign(spec)):
            with pytest.raises(BadParameter, match=r"seed must be in \[0, 2\*\*64\)"):
                check()

    def test_accepts_the_64_bit_seed_range(self):
        for seed in (0, 2**64 - 1):
            TrialSpec(seed=seed).validate()

    def test_scalar_row_fails_below_twice_the_tolerance(self, monkeypatch):
        # |lhs|, |rhs| < 1 gives scale 1, so a scalar row fails exactly when
        # slack < -tol * (1 + 1); above 1 the threshold grows with the larger side
        tol = 1e-8
        checks = (
            ScalarCheck("inside", 0.5, 0.5 - 1.99 * tol, 0.0),
            ScalarCheck("outside", 0.5, 0.5 - 2.01 * tol, 0.0),
            ScalarCheck("negative_side", -0.75, -0.75 - 1.99 * tol, 0.0),
            ScalarCheck("large_inside", 3.0, 3.0 - 3.99 * tol, 0.0),
            ScalarCheck("large_outside", 3.0, 3.0 - 4.01 * tol, 0.0),
        )
        assert [check.scale for check in checks] == [1.0, 1.0, 1.0, 3.0, 3.0]
        assert all(check.tightness == check.slack for check in checks)
        family = verifier.Family(tuple(c.label for c in checks), "floor", lambda rho, p: checks)
        monkeypatch.setattr(verifier, "FAMILIES", {"scalar": family})
        report = run_campaign(TrialSpec(seed=1, dim_range=(2, 2), trials=1, tolerance=tol))
        verdicts = {label: passed for label, _trial, _dim, _slack, passed in report.rows}
        assert verdicts == {
            "inside": True, "outside": False, "negative_side": True,
            "large_inside": True, "large_outside": False,
        }
        assert [f["label"] for f in report.failures] == ["outside", "large_outside"]

    def test_chunks_fill_up_to_the_budget(self, monkeypatch):
        monkeypatch.setattr(verifier, "_CHUNK_BUDGET", 3 * 4**2)
        chunks = list(verifier._chunks(TrialSpec(seed=1, dim_range=(4, 4), trials=10)))
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
        assert [draw.index for chunk in chunks for draw in chunk] == list(range(10))

    def test_deterministic_reports(self):
        spec = TrialSpec(seed=5, trials=10)
        first = run_campaign(spec)
        second = run_campaign(spec)
        assert first.to_dict() == second.to_dict()

    def test_spec_dict_writes_every_field(self):
        # to_dict names no field, so a field added to TrialSpec reaches the report's spec
        spec = TrialSpec()
        assert list(spec.to_dict()) == [f.name for f in dataclasses.fields(TrialSpec)]
        assert spec.to_dict() == {
            "seed": 42, "dim_range": [2, 8], "trials": 200, "function_set": list(DEFAULT_FUNCTIONS),
            "map_set": list(DEFAULT_MAPS), "tolerance": 1e-8,
        }

        @dataclasses.dataclass(frozen=True)
        class Extended(TrialSpec):
            profile: tuple = ("uniform",)

        assert Extended().to_dict()["profile"] == ["uniform"]

    def test_coverage_of_registered_inequalities(self):
        report = run_campaign(TrialSpec(seed=5, trials=40))
        assert report.statistics["coverage_missing"] == []
        assert set(registered_inequalities()) <= set(report.aggregates)

    def test_aggregate_counts_match_rows(self):
        report = run_campaign(TrialSpec(seed=6, trials=15))
        for label, agg in report.aggregates.items():
            rows = [row for row in report.rows if row[0] == label]
            assert agg["pass"] + agg["fail"] == len(rows), label
            assert agg["worst_slack"] == min(row[3] for row in rows)

    def test_theorem_backed_inequalities_never_fail(self):
        report = run_campaign(TrialSpec(seed=7, trials=40))
        floors = {"quantum_tsallis_floor", "von_neumann_floor"}
        for failure in report.failures:
            assert failure["label"] in floors, failure["label"]

    def test_every_failure_has_a_replayable_reproducer(self):
        report = run_campaign(TrialSpec(seed=7, trials=30))
        assert report.failures, "expected entropy-floor violations in this campaign"
        for record in report.failures[:10]:
            assert replay_failure(record) == record["slack"]

    def test_replay_matches_rows_for_passing_checks_too(self):
        # tiny tolerance turns exact equalities into recorded failures; replay must agree
        report = run_campaign(TrialSpec(seed=8, trials=5, tolerance=1e-300))
        assert report.failures
        seen_kinds = set()
        for record in report.failures:
            kind = record["inputs"]["kind"]
            if kind in seen_kinds:
                continue
            seen_kinds.add(kind)
            assert replay_failure(record) == record["slack"], kind
        assert len(seen_kinds) >= 3  # several reproducer families exercised

    def test_replay_dispatch_for_map_based_records(self):
        # one fixed instance per reproducer kind; replay of every registered
        # label must equal the slack from calling the family directly
        from opineq import (
            DensityOperator,
            NormalizedTrace,
            OperatorPair,
            Pinching,
            build_context,
            catalog_lookup,
            chord_bounds,
            improved_kantorovich,
            jensen_converse_bound,
            jensen_upper_bound,
            map_commutation_bounds,
            perspective_bounds,
            power_function_chain,
            quantum_tsallis_lower_bound,
            ratio_sandwich,
            ratio_sandwich_min,
            refined_sandwich_chain,
            relative_entropy_bounds,
            tsallis_entropy_bounds,
            tsallis_trace_bounds,
            von_neumann_lower_bound,
        )

        def data(matrix):
            return [float(x) for x in matrix.entries.reshape(-1)]

        def rebuilt(values, dim):
            return SymmetricMatrix(np.array(values).reshape(dim, dim))

        matrix = SymmetricMatrix([[3.0, -2.0], [-2.0, 7.0]])
        cdj = {
            "kind": "cdj",
            "matrix": data(matrix),
            "dim": 2,
            "map": {"tag": "trace"},
            "function": "power:3",
            "m": 2.0,
            "M": 8.0,
        }
        trace = NormalizedTrace(2)
        ctx = build_context(matrix, trace, catalog_lookup("power", [3]), 2.0, 8.0)
        kant = improved_kantorovich(matrix, trace, 2.0, 8.0)
        cases = [(cdj, r.label, r.tightness) for r in chord_bounds(ctx)]
        cases += [
            (cdj, r.label, r.tightness)
            for r in (
                jensen_upper_bound(ctx),
                jensen_converse_bound(ctx),
                *ratio_sandwich(ctx),
                *ratio_sandwich_min(ctx),
                refined_sandwich_chain(ctx),
            )
        ]
        for r in (-2.0, -1.0, 0.5, 2.0, 3.0):
            chain = power_function_chain(matrix, trace, r, 2.0, 8.0)
            cases.append((dict(cdj, kind="power_chain", r=r), chain.label, chain.tightness))
        kant_inputs = dict(cdj, kind="kantorovich")
        cases.append((kant_inputs, "improved_kantorovich", kant.inequality.tightness))
        cases.append((kant_inputs, "kantorovich_improvement_psd", kant.improvement_psd.tightness))

        source = random_sandwich_pair(15, 3, 0.5, 2.0)
        pair_inputs = {
            "kind": "pair",
            "A": data(source.A),
            "B": data(source.B),
            "dim": 3,
            "map": {"tag": "pinching", "blocks": [[0], [1, 2]]},
            "function": "log",
            "p": -0.5,
        }
        pair = OperatorPair(rebuilt(pair_inputs["A"], 3), rebuilt(pair_inputs["B"], 3))
        log = catalog_lookup("log")
        pair_reports = (
            *perspective_bounds(pair, log),
            *map_commutation_bounds(pair, Pinching(3, [[0], [1, 2]]), log),
            *tsallis_entropy_bounds(pair, -0.5),
            *relative_entropy_bounds(pair),
        )
        cases += [(pair_inputs, r.label, r.tightness) for r in pair_reports]

        rho_source, sigma_source = random_density(16, 3), random_density(17, 3)
        relative = OperatorPair(rho_source.rho, sigma_source.rho)
        trace_inputs = {
            "kind": "trace_bounds",
            "rho": data(rho_source.rho),
            "sigma": data(sigma_source.rho),
            "dim": 3,
            "p": 0.5,
            "m": relative.m,
            "M": relative.M,
        }
        rho = DensityOperator(rebuilt(trace_inputs["rho"], 3))
        sigma = DensityOperator(rebuilt(trace_inputs["sigma"], 3))
        bounds = tsallis_trace_bounds(rho, sigma, 0.5, relative.m, relative.M)
        cases += [
            (trace_inputs, check.label, check.slack)
            for check in (bounds.lower_check, bounds.upper_check, bounds.relative_check)
        ]
        floor_inputs = {"kind": "floor", "rho": trace_inputs["rho"], "dim": 3, "p": 0.5}
        cases.append(
            (floor_inputs, "quantum_tsallis_floor", quantum_tsallis_lower_bound(rho, 0.5).slack)
        )
        cases.append((floor_inputs, "von_neumann_floor", von_neumann_lower_bound(rho).slack))

        assert sorted(label for _, label, _ in cases) == sorted(registered_inequalities())
        for inputs, label, slack in cases:
            record = {"label": label, "slack": None, "inputs": inputs}
            assert replay_failure(record) == slack, label

    @pytest.mark.parametrize("info", [
        {"tag": "vecstate", "vector": [0.2, 0.2]},
        {"tag": "mixture", "weights": [0.5, 0.5], "factors": [[[1.0, 0.0], [0.0, 1.0]],
                                                              [[1.0, 0.0], [1.0, 1.0]]]},
    ], ids=["vecstate", "mixture"])
    def test_replay_refuses_a_non_unital_map(self, info):
        inputs = {
            "kind": "cdj", "matrix": [1.0, 0.3, 0.3, 2.0], "dim": 2, "map": info,
            "function": "power:3", "m": 0.05, "M": 3.0,
        }
        with pytest.raises(BadParameter, match="not unital"):
            replay_failure({"label": "chord_lower_image", "slack": None, "inputs": inputs})

    def test_replay_rejects_unknown_label_and_mismatched_kind(self):
        inputs = {"kind": "floor", "rho": [0.1, 0.0, 0.0, 0.9], "dim": 2, "p": 0.5}
        record = {"label": "von_neumann_floor", "slack": None, "inputs": inputs}
        assert replay_failure(record) < 0.0  # diag(0.1, 0.9) breaks the claimed floor
        with pytest.raises(BadParameter):
            replay_failure(dict(record, label="no_such_bound"))
        with pytest.raises(BadParameter):
            replay_failure(dict(record, label="jensen_upper"))
        cdj = {
            "kind": "cdj", "matrix": [2.0, 0.0, 0.0], "dim": 2, "map": {"tag": "trace"},
            "function": "power:3", "m": 1.0, "M": 2.0,
        }
        with pytest.raises(InvalidMatrix, match="matrix: expected 4 entries, got 3"):
            replay_failure({"label": "jensen_upper", "slack": None, "inputs": cdj})

    @pytest.mark.parametrize("record, message", [
        ({"label": "jensen_upper", "slack": None, "inputs": {"kind": "cdj", "dim": 2}},
         "no 'matrix'"),
        ({"inputs": {}}, "no 'label'"),
        ({"label": "jensen_upper"}, "no 'inputs'"),
        ({"label": "jensen_upper", "inputs": "cdj"}, "'inputs' has the wrong type"),
        ("jensen_upper", "must be a JSON object"),
        ({"label": 3, "inputs": {}}, "'label' has the wrong type"),
        ({"label": "jensen_upper", "inputs": {**CDJ_INPUTS, "kind": None}}, "'kind' has the wrong type"),
        ({"label": "jensen_upper", "inputs": {"dim": 2}}, "no 'kind'"),
        ({"label": "power_chain[r=2]", "inputs": dict(CDJ_INPUTS, kind="power_chain")}, "no 'r'"),
        ({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, m="abc")}, "'m' has the wrong type"),
        ({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, M=None)}, "'M' has the wrong type"),
        ({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, function=3)},
         "'function' has the wrong type"),
        ({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, map="corner")},
         "'map' has the wrong type"),
        ({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, map={"tag": "corner"})},
         "no 'out_dim'"),
        ({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, dim=2.0)}, "'dim' has the wrong type"),
        ({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, matrix=None)},
         "'matrix' has the wrong type"),
        ({"label": "von_neumann_floor", "inputs": {"kind": "floor", "dim": 2}}, "no 'rho'"),
        ({"label": "von_neumann_floor", "inputs": {"kind": "floor", "dim": 2, "rho": RHO}},
         "no 'p'"),
        ({"label": "tsallis_trace_lower", "inputs": {"kind": "trace_bounds", "dim": 2, "rho": RHO,
                                                     "sigma": RHO, "p": 0.5}}, "no 'm'"),
        ({"label": "perspective_lower", "inputs": {"kind": "pair", "dim": 2, "A": RHO, "B": RHO,
                                                   "map": {"tag": "trace"}, "p": 0.5}},
         "no 'function'"),
    ])
    def test_replay_names_a_missing_or_ill_typed_field(self, record, message):
        with pytest.raises(BadParameter, match=message):
            replay_failure(record)

    def test_replay_passes_errors_of_the_bounds_through(self):
        assert replay_failure({"label": "jensen_upper", "inputs": CDJ_INPUTS}) >= 0.0
        with pytest.raises(SpectrumNotEnclosed):
            replay_failure({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, m=1.5)})
        pinching = {"tag": "pinching", "blocks": [[0]]}
        with pytest.raises(BadParameter, match="blocks must partition"):
            replay_failure({"label": "jensen_upper", "inputs": dict(CDJ_INPUTS, map=pinching)})

    @pytest.mark.parametrize("info, message", [
        ({"tag": "corner"}, "no 'out_dim'"),
        ({"tag": "corner", "out_dim": 2.5}, "'out_dim' has the wrong type"),
        ({"tag": "corner", "out_dim": True}, "'out_dim' has the wrong type"),
        ({"tag": "pinching", "blocks": [["a"], [1]]}, "bad 'blocks'"),
        ({"tag": "pinching", "blocks": [0, 1, 2]}, "bad 'blocks'"),
        ({"tag": "pinching"}, "no 'blocks'"),
        ({"tag": "vecstate", "vector": ["a", 1.0, 0.0]}, "bad 'vector'"),
        ({"tag": "vecstate", "vector": 1.0}, "'vector' has the wrong type"),
        ({"tag": "mixture", "weights": [1.0]}, "no 'factors'"),
        ({"tag": "mixture", "weights": ["x"], "factors": [np.eye(3).tolist()]}, "bad 'weights'"),
        ({"tag": "mixture", "weights": [1.0], "factors": [[[1.0, 0.0], [0.0]]]}, "bad 'factors'"),
        ({}, "no 'tag'"),
        ({"tag": 3}, "'tag' has the wrong type"),
        ("corner", "must be a JSON object"),
    ])
    def test_map_from_info_names_a_missing_or_ill_typed_field(self, info, message):
        with pytest.raises(BadParameter, match=message):
            map_from_info(info, 3)

    def test_third_term_statistics_recorded(self):
        report = run_campaign(TrialSpec(seed=9, trials=10))
        stats = report.statistics
        assert stats["jensen_third_term_min_eig"] <= stats["jensen_third_term_max_eig"]
        assert isinstance(stats["kantorovich_strict_improvements"], int)

    def test_csv_export(self, tmp_path):
        report = run_campaign(TrialSpec(seed=10, trials=3))
        path = tmp_path / "rows.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "inequality,trial,dim,slack,pass"
        assert len(lines) == len(report.rows) + 1
        first = lines[1].split(",")
        assert first[0] == report.rows[0][0]
        assert first[4] in ("true", "false")


def _report_bytes(spec):
    report = run_campaign(spec)
    return render_json(report.to_dict()), report.rows


class TestDecompositionWaves:
    """A chunk decomposes its trials' operators in two ``_decompose_many`` waves.

    The first holds the drawn A, sandwich base, rho and sigma and the map
    images Phi(A) and Phi(base); the second the three sandwiched matrices.
    Each solve gives the bits it gives alone, so no trial solves an operator
    alone and the report does not depend on the chunking.
    """

    @pytest.mark.parametrize("dims, trials", [((2, 4), 12), ((12, 16), 3)])
    def test_chunking_leaves_identity_and_mixture_reports_unchanged(self, dims, trials, monkeypatch):
        # the identity's Phi(A) has A's bytes, so the first wave solves it once
        spec = TrialSpec(seed=11, dim_range=dims, trials=trials, map_set=("identity", "mixture"))
        drawn = {verifier._draw_trial(spec, i).map_info["tag"] for i in range(trials)}
        assert drawn == {"identity", "mixture"}
        whole = _report_bytes(spec)
        monkeypatch.setattr(verifier, "_CHUNK_BUDGET", 1)  # one trial per chunk
        assert _report_bytes(spec) == whole

    def test_lowdim_chunk_makes_two_waves_and_no_list_eigenvector_solve(self, monkeypatch):
        waves = []
        list_vector_solves = []
        decompose, one_by_one = verifier._decompose_many, spectral._cyclic_jacobi

        def counting_waves(matrices):
            waves.append(len(matrices))
            decompose(matrices)

        def counting_list(a, vectors=True):
            if vectors:
                list_vector_solves.append(a.shape)
            return one_by_one(a, vectors)

        monkeypatch.setattr(verifier, "_decompose_many", counting_waves)
        monkeypatch.setattr(spectral, "_cyclic_jacobi", counting_list)
        run_campaign(TrialSpec(seed=7, dim_range=(4, 4), trials=12, map_set=("corner",)))
        assert waves == [12 * 6, 12 * 3]
        assert list_vector_solves == []

    def test_highdim_trial_solves_no_eigenvector_stack_of_one(self, monkeypatch):
        stacks = []
        round_robin = spectral._jacobi_round_robin

        def recording(stack, vectors=False):
            stacks.append((len(stack), vectors))
            return round_robin(stack, vectors)

        monkeypatch.setattr(spectral, "_jacobi_round_robin", recording)
        run_campaign(TrialSpec(seed=3, dim_range=(14, 14), trials=1, map_set=("pinching",)))
        assert (1, True) not in stacks
        assert [size for size, vectors in stacks if vectors] == [6, 3]

    def test_first_error_in_trial_order_wins(self, monkeypatch):
        # trial 0 raises only when evaluated; trial 1's indefinite sandwich
        # base makes its second-wave build raise, before any evaluation.  The
        # chunk builds its matrices after drawing its trials' scalars, so the
        # bad inputs go in once the chunk is built.
        drawn = verifier._drawn
        first_broken = []

        def broken_draw(draw):
            if draw.index == 0 and first_broken:
                return draw._replace(fn_spec="no_such_function")
            if draw.index == 1:
                return draw._replace(base=SymmetricMatrix(np.diag([-1.0, *[1.0] * (draw.dim - 1)])))
            return draw

        monkeypatch.setattr(verifier, "_drawn", lambda chunk: [broken_draw(draw) for draw in drawn(chunk)])
        spec = TrialSpec(seed=1, dim_range=(3, 3), trials=2, map_set=("corner",))
        with pytest.raises(NotPositiveDefinite, match="minimum eigenvalue"):
            run_campaign(spec)
        # with trial 0 broken too, its error comes first, as before the waves
        first_broken.append(True)
        with pytest.raises(UnknownFunction):
            run_campaign(spec)
