"""Every CDJ family of one instance reads one set of operator images.

The trial's context is shared by the chord, Jensen, ratio and refined
families, by the five power chains and by the sharpened Kantorovich
inequality; ``CdjContext.with_function`` swaps only the function-dependent
terms.  So a trial solves Phi(A) once and each correction-PSD prerequisite
once.  The trial's comparisons are judged in one batch, which solves each
distinct gap once, and the Tsallis trace bounds reuse the trial's density
pair.  The ratio sandwich and the refined chain read one K per context, and
only the results of matrix products pay for the full ``SymmetricMatrix``
validation.
"""

import collections

import pytest

from opineq import bounds, spectral
from opineq.bounds import build_context
from opineq.functions import catalog_lookup
from opineq.maps import corner_map
from opineq.verifier import TrialSpec, random_symmetric_with_spectrum, run_campaign


@pytest.mark.parametrize("function, max_solves", [("power:3", 52), ("log", 46)])
def test_trial_solves_each_input_once(function, max_solves, monkeypatch):
    inputs = collections.Counter()
    one_by_one = spectral._cyclic_jacobi
    batched = spectral._jacobi_batch

    def counting(a, vectors=True):
        inputs[(a.shape, a.tobytes())] += 1
        return one_by_one(a, vectors)

    def counting_batch(stack, vectors=False):
        for a in stack:  # each matrix of a batched solve is one solve
            inputs[(a.shape, a.tobytes())] += 1
        return batched(stack, vectors)

    monkeypatch.setattr(spectral, "_cyclic_jacobi", counting)
    monkeypatch.setattr(spectral, "_jacobi_batch", counting_batch)
    run_campaign(TrialSpec(seed=100, dim_range=(6, 6), trials=1,
                           function_set=(function,), map_set=("corner",)))
    repeats = sum(inputs.values()) - len(inputs)
    assert repeats == 0
    assert sum(inputs.values()) <= max_solves


def test_trial_computes_K_once_and_validates_only_product_results(monkeypatch):
    calls = collections.Counter()
    validate = spectral.SymmetricMatrix.__init__
    ratio_grid, extremum = bounds._ratio_grid, bounds._ratio_extremum

    def counting_init(self, *args, **kwargs):
        calls["validated"] += 1
        validate(self, *args, **kwargs)

    def counting_grid(*args):
        calls["grid"] += 1
        return ratio_grid(*args)

    def counting_extremum(*args, maximize, grid):
        calls["K" if maximize else "k"] += 1
        return extremum(*args, maximize=maximize, grid=grid)

    monkeypatch.setattr(spectral.SymmetricMatrix, "__init__", counting_init)
    monkeypatch.setattr(bounds, "_ratio_grid", counting_grid)
    monkeypatch.setattr(bounds, "_ratio_extremum", counting_extremum)
    run_campaign(TrialSpec(seed=100, dim_range=(6, 6), trials=1,
                           function_set=("power:3",), map_set=("corner",)))
    # ratio_sandwich and refined_sandwich_chain share the context's K, and
    # K and k scan one grid of chord/f
    assert calls["K"] == 1
    assert calls["k"] == 1
    assert calls["grid"] == 1
    # 64 measured; sums, differences and scalings (199 more) skip validation
    assert calls["validated"] <= 64


def _bits(matrix):
    return matrix.entries.tobytes()


def _interval_bits(ctx):
    return [float.hex(getattr(ctx, key)) for key in ("m", "M", "alpha", "beta")]


@pytest.mark.parametrize("name, params", [
    ("power", [-1.0]), ("power", [0.5]), ("power", [3.0]), ("log", []), ("exp", []),
])
def test_with_function_equals_a_fresh_context(name, params):
    matrix = random_symmetric_with_spectrum(5, 4, 0.5, 3.0)
    phi = corner_map(4, 3)
    base = build_context(matrix, phi, catalog_lookup("power", [2.0]))
    fn = catalog_lookup(name, params)
    shared = base.with_function(fn)
    fresh = build_context(matrix, phi, fn)
    assert shared.fn is fn
    assert _interval_bits(shared) == _interval_bits(fresh)
    assert _bits(shared.phi_fA) == _bits(fresh.phi_fA)
    assert _bits(shared.f_phi_A) == _bits(fresh.f_phi_A)
    assert _bits(shared.correction_image) == _bits(fresh.correction_image)
    assert _bits(shared.correction_point) == _bits(fresh.correction_point)
    # the function-independent terms are shared, not rebuilt
    assert shared.phi_A is base.phi_A
    assert shared.correction_image is base.correction_image
    assert shared.correction_point is base.correction_point
