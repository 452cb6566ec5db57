"""Synthetic SPARQL workload generation with Zipf-skewed vocabulary.

Queries are SELECT/BGP one-liners over a schema of classes, relations and
instances whose popularity follows a Zipf law with a configurable exponent;
every emitted query parses under the package's own grammar.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator

from .rng import XorShift64Star

MAX_PATTERNS = 12


@dataclass(frozen=True)
class SyntheticSpec:
    n_queries: int
    classes: int = 400
    predicates: int = 1300
    instances: int = 100000
    skew: float = 1.0
    mean_patterns: float = 3.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_queries", "classes", "predicates", "instances"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # written so that NaN, which fails every comparison, fails them too
        if not 0 <= self.skew < math.inf:
            raise ValueError("skew must be finite and >= 0")
        if not 1 <= self.mean_patterns < math.inf:
            raise ValueError("mean_patterns must be finite and >= 1")


class ZipfSampler:
    """Draws index i in [0, n) with probability proportional to 1/(i+1)**skew."""

    def __init__(self, n: int, skew: float):
        cumulative = []
        total = 0.0
        for i in range(n):
            total += 1.0 / (i + 1) ** skew
            cumulative.append(total)
        self._cumulative = [c / total for c in cumulative]

    def draw(self, rng: XorShift64Star) -> int:
        return bisect.bisect_left(self._cumulative, rng.random())


def _pattern_count(rng: XorShift64Star, mean: float) -> int:
    """Truncated geometric on [1, MAX_PATTERNS] with the given untruncated mean."""
    if mean <= 1.0:
        return 1
    q = 1.0 - 1.0 / mean
    count = 1
    while count < MAX_PATTERNS and rng.random() < q:
        count += 1
    return count


class _Samplers:
    """Vocabulary samplers plus the class-conditioned affinity windows.

    Predicates and attribute values for a typed variable are drawn from a
    small Zipf window anchored at its class, mimicking schema regularity:
    the same class keeps using the same few relations and popular objects.
    """

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        self.classes = ZipfSampler(spec.classes, spec.skew)
        self.predicates = ZipfSampler(spec.predicates, spec.skew)
        self.instances = ZipfSampler(spec.instances, spec.skew)
        self.pred_window = ZipfSampler(min(12, spec.predicates), 1.0)
        self.inst_window = ZipfSampler(min(64, spec.instances), 1.0)

    def predicate_for(self, rng, class_index):
        if class_index is None:
            return self.predicates.draw(rng)
        return (class_index * 37 + self.pred_window.draw(rng)) % self.spec.predicates

    def instance_for(self, rng, class_index):
        if class_index is None:
            return self.instances.draw(rng)
        return (class_index * 101 + self.inst_window.draw(rng)) % self.spec.instances


def _build_query(rng, samplers: _Samplers, length: int) -> str:
    parts = []
    var = 0
    current_class = None
    emitted = 0
    while emitted < length:
        roll = rng.random()
        if current_class is None and roll < 0.6:
            current_class = samplers.classes.draw(rng)
            parts.append(f"?v{var} a Class{current_class}")
        elif roll < 0.75:
            index = samplers.instance_for(rng, current_class)
            obj = f'"V{index}"' if rng.random() < 0.2 else f"Entity{index}"
            parts.append(f"?v{var} rel{samplers.predicate_for(rng, current_class)} {obj}")
        else:
            parts.append(f"?v{var} rel{samplers.predicate_for(rng, current_class)} ?v{var + 1}")
            var += 1
            current_class = None
        emitted += 1
    body = " . ".join(parts)
    return f"SELECT ?v0 WHERE {{ {body} }}"


def iter_queries(spec: SyntheticSpec) -> Iterator[str]:
    rng = XorShift64Star(spec.rng_seed)
    samplers = _Samplers(spec)
    for _ in range(spec.n_queries):
        yield _build_query(rng, samplers, _pattern_count(rng, spec.mean_patterns))


def write_queries(spec: SyntheticSpec, fh) -> None:
    """Write the workload to a text handle, one raw-lines query per line."""
    fh.writelines(f"{query}\n" for query in iter_queries(spec))
