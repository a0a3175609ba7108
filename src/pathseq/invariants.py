"""Index functions over degree sequences and their path-sum invariants.

An index function f maps a tuple of positive integer degrees to a real and
must be symmetric under reversal, so it is well defined on canonical path
classes. The order-h invariant of a graph is the sum of f over the degree
sequences of all order-h paths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import IndexEvaluationError, SymmetryError, UnknownIndexError
from .graph import DEFAULT_BUDGET, Census


@dataclass(frozen=True)
class InvariantFunction:
    """A named, reversal-symmetric function of degree sequences.

    multiset, when set, is the same function of a sequence's degree product
    and degree sum: multiset(math.prod(d), sum(d)) is fn(d) bit for bit,
    errors included. Only built-ins have one.
    """

    name: str
    fn: Callable[[tuple[int, ...]], float]
    multiset: Callable[[int, int], float] | None = None

    def __call__(self, degrees: Sequence[int]) -> float:
        """f at one degree sequence; an arithmetic failure becomes IndexEvaluationError."""
        seq = tuple(degrees)
        try:
            return self.fn(seq)
        except ArithmeticError as exc:
            message = f"index {self.name!r} at order {len(seq) - 1}: {exc}"
            raise IndexEvaluationError(message) from exc


def _connectivity(d: tuple[int, ...]) -> float:
    return 1.0 / math.sqrt(math.prod(d))


def _sum_connectivity(d: tuple[int, ...]) -> float:
    return 1.0 / math.sqrt(sum(d))


def _hyper_zagreb(d: tuple[int, ...]) -> float:
    p = math.prod(d)
    return float(p) * float(p)


def _path_count(d: tuple[int, ...]) -> float:
    return 1.0


# Each built-in over a degree tuple, and over its (product, sum). The tuple
# forms compute no sum they do not read.
_SIMPLE_BUILTINS = {
    "connectivity": (_connectivity, lambda p, s: 1.0 / math.sqrt(p)),
    "sum-connectivity": (_sum_connectivity, lambda p, s: 1.0 / math.sqrt(s)),
    "hyper-zagreb": (_hyper_zagreb, lambda p, s: float(p) * float(p)),
    "path-count": (_path_count, lambda p, s: 1.0),
}


def builtin(name: str, param: float | None = None) -> InvariantFunction:
    """Construct a built-in index function.

    Known names: connectivity, sum-connectivity, hyper-zagreb, path-count,
    and power (which requires its exponent parameter).
    """
    if name in _SIMPLE_BUILTINS:
        if param is not None:
            raise UnknownIndexError(f"index {name!r} takes no parameter")
        return InvariantFunction(name, *_SIMPLE_BUILTINS[name])
    if name == "power":
        if param is None:
            raise UnknownIndexError(
                "index 'power' requires an exponent, e.g. 'power:0.5'"
            )
        alpha = float(param)
        if not math.isfinite(alpha):
            raise UnknownIndexError(f"index 'power' needs a finite exponent, got {param!r}")

        def _power(d: tuple[int, ...], _a: float = alpha) -> float:
            return math.prod(d) ** _a

        return InvariantFunction(f"power:{alpha}", _power, lambda p, s: p**alpha)
    raise UnknownIndexError(f"unknown index {name!r}")


_registry: dict[str, InvariantFunction] = {}

# validate_symmetry draws this many sequences of 1..SYMMETRY_MAX_LENGTH
# degrees in 1..64, and compares f at each and its reversal to SYMMETRY_REL_TOL.
SYMMETRY_TRIALS = 1000
SYMMETRY_MAX_LENGTH = 9
SYMMETRY_REL_TOL = 1e-12


def validate_symmetry(fn: Callable[[tuple[int, ...]], float], rng: random.Random) -> None:
    """Spot-check reversal symmetry on random degree sequences.

    Raises SymmetryError on the first violating sequence.
    """
    for _ in range(SYMMETRY_TRIALS):
        length = rng.randint(1, SYMMETRY_MAX_LENGTH)
        seq = tuple(rng.randint(1, 64) for _ in range(length))
        a = fn(seq)
        b = fn(seq[::-1])
        if abs(a - b) > SYMMETRY_REL_TOL * max(1.0, abs(a), abs(b)):
            raise SymmetryError(
                f"f{seq} = {a!r} but f{seq[::-1]} = {b!r}; index functions must be"
                " symmetric under reversal"
            )


def register_invariant(name: str, fn: Callable[[tuple[int, ...]], float]) -> InvariantFunction:
    """Register a user-supplied index function after a seeded symmetry check."""
    if name in _SIMPLE_BUILTINS or name == "power":
        raise ValueError(f"{name!r} is reserved for a built-in index")
    validate_symmetry(fn, random.Random(0))
    f = InvariantFunction(name, fn)
    _registry[name] = f
    return f


def resolve_index(text: str) -> InvariantFunction:
    """Resolve an index identifier like 'connectivity' or 'power:0.5'."""
    if text in _registry:
        return _registry[text]
    name, sep, param = text.partition(":")
    if not sep:
        return builtin(name)
    try:
        value = float(param)
    except ValueError:
        raise UnknownIndexError(f"bad parameter {param!r} in index {text!r}") from None
    return builtin(name, value)


def invariant_from_census(census: Census, f: InvariantFunction) -> float:
    """Sum f over a census, weighted by multiplicity. f maps its own
    arithmetic failures; an overflow in the weighted sum becomes
    IndexEvaluationError here."""
    try:
        return math.fsum(count * f(seq) for seq, count in census.entries.items())
    except ArithmeticError as exc:
        raise IndexEvaluationError(f"index {f.name!r} at order {census.order}: {exc}") from exc


def evaluate_invariant(
    obj, order: int, f: InvariantFunction, budget: int = DEFAULT_BUDGET
) -> float:
    """Order-h invariant of a Graph (by path enumeration) or a spec (in
    closed form): f summed over obj.census(order, budget)."""
    return invariant_from_census(obj.census(order, budget), f)


def invariant_profile(
    obj, f: InvariantFunction, max_order: int, budget: int = DEFAULT_BUDGET
) -> list[float]:
    """Invariant values of a Graph or a spec for every order 0..max_order.

    obj.censuses(max_order, budget) stops at the last order that can have a
    path (n - 1 edges for a graph, the longest path for a spec); the orders
    past it are 0.0.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    values = [invariant_from_census(c, f) for c in obj.censuses(max_order, budget)]
    return values + [0.0] * (max_order + 1 - len(values))
