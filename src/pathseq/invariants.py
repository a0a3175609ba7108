"""Index functions over degree sequences and their path-sum invariants.

An index function f maps a tuple of positive integer degrees to a real and
must be symmetric under reversal, so it is well defined on canonical path
classes. The order-h invariant of a graph is the sum of f over the degree
sequences of all order-h paths.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any, Callable, NamedTuple, Sequence

from .errors import IndexEvaluationError, SymmetryError, UnknownIndexError, _need_int
from .graph import DEFAULT_BUDGET, Census, Graph

DEFAULT_TOL = 1e-9


def _close(a: float, b: float, tol: float) -> bool:
    """Hybrid comparison: absolute near zero, relative for large values."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_tol(tol: float) -> None:
    """ValueError unless tol is a real in [0, 1), not a bool: at tol >= 1 any two
    values of one sign are _close, and below 0 (or NaN) a value is not _close to itself."""
    if not (isinstance(tol, Real) and not isinstance(tol, bool) and 0 <= tol < 1):
        raise ValueError(f"tolerance must be >= 0 and < 1, got {tol!r}")


def _first_difference(a: list[float], b: list[float], tol: float) -> int | None:
    """First order at which two profiles are not _close, else None, for tol
    >= 0: x - y is 0.0 just when x and y are equal and finite, so _close."""
    return next((h for h, (x, y) in enumerate(zip(a, b)) if x - y and not _close(x, y, tol)), None)


class InvariantFunction(NamedTuple):
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


def _inv_sqrt(p: int, s: int = 0) -> float:
    """1 / sqrt(p) for an int p >= 1: connectivity's form of a degree
    product p and sum s, which it does not read.

    Past the float range it is computed from q = p >> 2k, p's top 64 or 65
    bits, as 2**-k / sqrt(q): q is within 2**-63 of p / 4**k, and the three
    roundings that follow bring the relative error to at most 2.5 u (u =
    2**-53) while the result is normal, as for a p that fits."""
    try:
        return 1.0 / math.sqrt(p)
    except OverflowError:
        k = p.bit_length() // 2 - 32
        return math.ldexp(1.0 / math.sqrt(p >> 2 * k), -k)


def _connectivity(d: tuple[int, ...]) -> float:
    return _inv_sqrt(math.prod(d))


def _sum_connectivity(d: tuple[int, ...]) -> float:
    return 1.0 / math.sqrt(sum(d))


def _hyper_zagreb(d: tuple[int, ...]) -> float:
    p = math.prod(d)
    return float(p) * float(p)


def _path_count(d: tuple[int, ...]) -> float:
    return 1.0


def _pow_past_floats(p: int, alpha: float) -> float:
    """p ** alpha for an int p too large for a float and alpha < 1.

    With q = p >> k, p's top 64 bits, and k * alpha = n + r exactly (n an
    int, 0 <= r < 1), it is q ** alpha * 2 ** r * 2 ** n. p / 2**k is within
    2**-63 of q, and float(q), r, the two pows and their product each round
    once, so the relative error is at most 3u plus twice pow's own (u =
    2**-53) while the result is normal, which needs |alpha| < 1. A result
    past the largest float raises OverflowError. For alpha < 0, q ** alpha
    <= 1, so from n < -1076 on p ** alpha < 2**-1076 rounds to 0.0, which
    is returned without a pow."""
    k = p.bit_length() - 64
    a, b = alpha.as_integer_ratio()
    n, r = divmod(k * a, b)
    return 0.0 if n < -1076 else math.ldexp(float(p >> k) ** alpha * 2.0 ** (r / b), n)


def _power_form(alpha: float) -> Callable[[int, int], float]:
    """power:alpha over a degree product p and sum s. Every power built-in's
    form, and through it its tuple function, is made here, so all share one
    code object, by which reconstruct._rows_b tells them from a lookalike
    form. A p that fits a float gives pow's value; past the float range
    (from 2**1024) a finite p ** alpha, which needs alpha < 1, comes from
    _pow_past_floats."""

    def power(p: int, s: int = 0) -> float:
        try:
            return p**alpha
        except OverflowError:
            # for alpha < 1 a p that fits gives a finite power: p is too large
            if alpha >= 1:
                raise
            return _pow_past_floats(p, alpha)

    return power


# Each built-in over a degree tuple, and over its (product, sum). The tuple
# forms compute no sum they do not read.
_SIMPLE_BUILTINS = {
    "connectivity": (_connectivity, _inv_sqrt),
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

        form = _power_form(alpha)
        return InvariantFunction(f"power:{alpha}", lambda d: form(math.prod(d)), form)
    raise UnknownIndexError(f"unknown index {name!r}")


_registry: dict[str, InvariantFunction] = {}

# validate_symmetry draws this many sequences of 1..SYMMETRY_MAX_LENGTH
# degrees in 1..64, and compares f at each and its reversal to SYMMETRY_REL_TOL.
SYMMETRY_TRIALS = 1000
SYMMETRY_MAX_LENGTH = 9
SYMMETRY_REL_TOL = 1e-12


def _real(v: float) -> float:
    """v, unless it is not a real number: then the TypeError that fsum raises."""
    if type(v) is float or isinstance(v, Real):
        return v
    raise TypeError(f"must be real number, not {type(v).__name__}")


def validate_symmetry(fn: Callable[[tuple[int, ...]], float], rng: Any) -> None:
    """Spot-check reversal symmetry on degree sequences drawn by rng.randint,
    as a random.Random draws them.

    Raises SymmetryError on the first violating sequence; IndexEvaluationError if f fails.
    """
    for _ in range(SYMMETRY_TRIALS):
        length = rng.randint(1, SYMMETRY_MAX_LENGTH)
        seq = tuple(rng.randint(1, 64) for _ in range(length))
        try:
            a, b = fn(seq), fn(seq[::-1])
            for v in (a, b):
                if not isinstance(v, Real):
                    raise TypeError(f"{v!r} is not a real number")
            if abs(a - b) > SYMMETRY_REL_TOL * max(1.0, abs(a), abs(b)):
                raise SymmetryError(
                    f"f{seq} = {a!r} but f{seq[::-1]} = {b!r}; index functions must be"
                    " symmetric under reversal"
                )
        except (ArithmeticError, TypeError) as exc:
            raise IndexEvaluationError(f"index function at {seq}: {exc}") from exc


def register_invariant(name: str, fn: Callable[[tuple[int, ...]], float]) -> InvariantFunction:
    """Register a user-supplied index function after a seeded symmetry check."""
    if not callable(fn):
        raise ValueError(f"index function for {name!r} must be callable, got {fn!r}")
    # resolve_index reads the registry first, so "power:2" would shadow the built-in
    if str(name).partition(":")[0] in (*_SIMPLE_BUILTINS, "power"):
        raise ValueError(f"{name!r} is reserved for a built-in index")
    import random  # only a registration draws sequences

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
    arithmetic failures; an overflow in the weighted sum, or a value of f
    that is not a number, becomes IndexEvaluationError here."""
    try:
        return math.fsum(count * f(seq) for seq, count in census.entries.items())
    except (ArithmeticError, TypeError) as exc:
        raise IndexEvaluationError(f"index {f.name!r} at order {census.order}: {exc}") from exc


def evaluate_invariant(
    obj, order: int, f: InvariantFunction, budget: int = DEFAULT_BUDGET
) -> float:
    """Order-h invariant of a Graph, f summed over obj.census(order, budget)
    by path enumeration, or of a spec, in closed form by obj.value."""
    if isinstance(obj, Graph):
        return invariant_from_census(obj.census(order, budget), f)
    return obj.value(order, f)


def invariant_profile(
    obj, f: InvariantFunction, max_order: int, budget: int = DEFAULT_BUDGET
) -> list[float]:
    """Invariant values of a Graph or a spec for every order 0..max_order.

    A graph's censuses (obj.censuses(max_order, budget)) and a spec's
    closed-form values (obj.values(f, max_order)) stop at the last order
    that can have a path (n - 1 edges for a graph, the longest path for a
    spec); the orders past it are 0.0.
    """
    _need_int("max_order", max_order, 0)
    if isinstance(obj, Graph):
        values = [invariant_from_census(c, f) for c in obj.censuses(max_order, budget)]
    else:
        values = list(obj.values(f, max_order))
    return values + [0.0] * (max_order + 1 - len(values))
