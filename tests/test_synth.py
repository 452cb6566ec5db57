import re
from collections import Counter

import pytest
from scipy import stats

from isummary.parser import parse_query
from isummary.synth import SyntheticSpec, ZipfSampler, iter_queries
from isummary.rng import XorShift64Star

from conftest import generate_synthetic


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_queries=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n_queries=10, skew=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(n_queries=10, mean_patterns=0.5)


@pytest.mark.parametrize("field", ["skew", "mean_patterns"])
def test_spec_rejects_nan(field):
    # every comparison with NaN is false, so a check written as `value < bound`
    # lets it through
    with pytest.raises(ValueError):
        SyntheticSpec(n_queries=10, **{field: float("nan")})


@pytest.mark.parametrize("field", ["skew", "mean_patterns"])
def test_spec_rejects_infinity(field):
    # an infinite skew draws only Class0, an infinite mean only capped queries
    with pytest.raises(ValueError):
        SyntheticSpec(n_queries=10, **{field: float("inf")})


def test_every_query_parses():
    spec = SyntheticSpec(n_queries=500, classes=20, predicates=40, instances=200, rng_seed=3)
    for text in iter_queries(spec):
        query = parse_query(text)
        assert query.patterns


def test_mean_pattern_count_one():
    spec = SyntheticSpec(
        n_queries=10000, classes=20, predicates=40, instances=200,
        mean_patterns=1.0, rng_seed=4,
    )
    counts = [len(parse_query(t).patterns) for t in iter_queries(spec)]
    assert abs(sum(counts) / len(counts) - 1.0) <= 0.2


def test_mean_pattern_count_three():
    spec = SyntheticSpec(
        n_queries=10000, classes=20, predicates=40, instances=200,
        mean_patterns=3.0, rng_seed=5,
    )
    counts = [len(parse_query(t).patterns) for t in iter_queries(spec)]
    assert abs(sum(counts) / len(counts) - 3.0) <= 0.3


def test_zero_skew_classes_uniform():
    spec = SyntheticSpec(
        n_queries=10000, classes=20, predicates=40, instances=200,
        skew=0.0, mean_patterns=1.0, rng_seed=6,
    )
    counts = Counter()
    for text in iter_queries(spec):
        counts.update(re.findall(r"\bClass(\d+)\b", text))
    observed = [counts.get(str(i), 0) for i in range(20)]
    total = sum(observed)
    expected = total / 20
    chi2 = sum((o - expected) ** 2 / expected for o in observed)
    assert chi2 < stats.chi2.ppf(0.999, df=19)


def test_positive_skew_prefers_low_ranks():
    spec = SyntheticSpec(
        n_queries=8000, classes=20, predicates=40, instances=200,
        skew=1.0, mean_patterns=1.0, rng_seed=7,
    )
    counts = Counter()
    for text in iter_queries(spec):
        counts.update(re.findall(r"\bClass(\d+)\b", text))
    assert counts["0"] > counts.get("10", 0) > 0


def test_zipf_sampler_distribution():
    sampler = ZipfSampler(5, 1.0)
    rng = XorShift64Star(8)
    counts = Counter(sampler.draw(rng) for _ in range(20000))
    assert counts[0] > counts[1] > counts[4]
    assert set(counts) <= set(range(5))


def test_generation_deterministic(tmp_path):
    spec = SyntheticSpec(n_queries=300, classes=10, predicates=20, instances=100, rng_seed=9)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    generate_synthetic(spec, a)
    generate_synthetic(spec, b)
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text(encoding="utf-8").splitlines()) == 300


def test_loadable_as_workload(tmp_path):
    from isummary.workload import load_workload

    spec = SyntheticSpec(n_queries=200, classes=10, predicates=20, instances=100, rng_seed=10)
    path = tmp_path / "synth.txt"
    generate_synthetic(spec, path)
    store = load_workload(path, format="raw-lines")
    assert len(store) == 200
    assert store.rejected_count == 0
