"""Rebuilding branch specs from invariant profiles, and telling specs apart.

When an index function satisfies two inequalities (checked here over a
finite scan domain), the profile of invariant values determines a starlike
or clique-coalesced tree inside its family: the order-0 value pins the root
degree by integer scan, and each further order pins one branch count, since
the order-h invariant is affine in the count of length-h branches with a
nonzero slope. A rebuilt spec is only returned after its own closed-form
profile reproduces the input within tolerance.
"""

from __future__ import annotations

from itertools import combinations, pairwise, repeat
from math import inf, perm
from numbers import Real
from operator import ge
from typing import Callable, Generator, Iterator, NamedTuple

from .errors import (
    AmbiguousRootError,
    BudgetMismatchError,
    FamilyMismatchError,
    IndexEvaluationError,
    NoCandidateRootError,
    NonIntegerBranchCountError,
    ProfileMismatchError,
    SizeMismatchError,
    _need_int,
)
from .invariants import (
    DEFAULT_TOL,
    _SIMPLE_BUILTINS,
    InvariantFunction,
    _check_tol,
    _close,
    _first_difference,
    _power_form,
    _real,
)
from .starlike import GenStarlikeSpec, StarlikeSpec, _evaluate, _point, mu_coefficient
# every root degree read here is 3 or more by construction, so rows skip the check
from .starlike import _mu_row as mu_row

# how far a recovered branch count may sit from an integer
BRANCH_RESIDUAL_TOL = 1e-6


def _order0_points(n: int, r: int | None = None) -> dict[int, tuple[int, int, int]]:
    """The order-0 unknowns of a family slice: each value the candidate scan
    reads, mapped to its point (n1, n2, m). Starlike trees on n vertices (r
    is None) have root degrees 3 <= m < n. Clique-coalesced ones with hub
    degree r have clique sizes n1 >= 3 leaving m = r + 1 - n1 >= 3 branches,
    which need n2 - 1 = n - n1 >= m vertices, so n > r. Reconstruction, spec
    listing, the survey and condition (a) all read this table. ValueError
    unless n and r (when given) are ints, not bools."""
    _need_int("vertex_count", n)
    if r is None:
        return {m: (1, n, m) for m in range(3, n)}
    _need_int("max_degree", r)
    return {n1: (n1, n - n1 + 1, r + 1 - n1) for n1 in range(3, r - 1)} if n > r else {}


class ConditionReport(NamedTuple):
    """Outcome of scanning one family's qualification inequalities."""

    family: str
    x_max: int
    t_max: int
    tolerance: float
    condition_a: bool
    condition_b: bool
    counterexample_a: tuple[int, int] | None
    counterexample_b: tuple[int, int] | None
    min_margin_a: float
    min_margin_b: float

    @property
    def passed(self) -> bool:
        return self.condition_a and self.condition_b

    def to_dict(self) -> dict:
        counterexamples = []
        if self.counterexample_a is not None:
            x, y = self.counterexample_a
            counterexamples.append({"condition": "a", "x": x, "y": y})
        if self.counterexample_b is not None:
            t, x = self.counterexample_b
            counterexamples.append({"condition": "b", "t": t, "x": x})
        return {
            "family": self.family,
            "condition_a": "pass" if self.condition_a else "fail",
            "condition_b": "pass" if self.condition_b else "fail",
            "counterexamples": counterexamples,
            "domain": {"x_max": self.x_max, "t_max": self.t_max},
            "tolerance": self.tolerance,
            "margins": {"a": self.min_margin_a, "b": self.min_margin_b},
        }


def _fixed(v: float) -> int:
    """v * 2**1074 as an exact int; OverflowError or ValueError for inf or NaN."""
    p, q = v.as_integer_ratio()
    return p << (1075 - q.bit_length())


def _condition_a(g: dict[int, float], base: float, tol: float) -> tuple:
    """Condition (a)'s first failing pair of g's keys in combinations order,
    or None, and least margin |(g[x] - g[y]) / (x - y) - base|, bit for bit
    as a scan of every pair gives them (a NaN margin fails, is no minimum).

    In units of 2**-1074, H = g - base * x and the unrounded margin
    |H_x - H_y| / |x - y| are exact; its least value s* is at two points
    adjacent in H order (mediant inequality). Rounding moves a margin s by
    at most 4e(s + |base|) + 2**-1070, e = 2**-53, so only pairs with s <= T
    = (max(C, tol) + 4e|base| + 2**-1070) / (1 - 4e) can matter, C being the
    float margin at s*. Between such x and y in H order a step of width d
    has slope <= s* + (T - s*)|x - y| / d <= L = s* + (T - s*)(max x - min
    x), so only runs of steps up to L are scanned; non-finite values or C
    leave one run. A margin is >= 0 or NaN, so a run's scan stops once it
    has its first failure and the least margin is 0.0: when every divided
    difference equals base in floats (path-count), after one pair.
    """
    xs, gs = list(g), list(g.values())
    try:
        b = _fixed(base)
        h = [_fixed(v) - b * x for x, v in zip(xs, gs)]
    except (OverflowError, ValueError):
        h = []
    order = sorted(range(len(h)), key=h.__getitem__)
    steps = [(h[j] - h[i], abs(xs[j] - xs[i])) for i, j in zip(order, order[1:])]
    k, c, runs = 0, float("inf"), [range(len(xs))]
    for s, (rise, width) in enumerate(steps):
        if rise * steps[k][1] < steps[k][0] * width:
            k = s
    if steps:
        i, j = sorted(order[k : k + 2])
        c = abs((gs[i] - gs[j]) / (xs[i] - xs[j]) - base)
    if c < float("inf"):
        # T = t / t_den and L = l / l_den, in units of 2**-1074
        (rise, width), span = steps[k], max(xs) - min(xs)
        t, t_den = _fixed(max(c, tol)) * 2**51 + abs(b) + 2**55, 2**51 - 1
        l, l_den = rise * t_den + (t * width - rise * t_den) * span, width * t_den
        cuts = [s + 1 for s, (rise, width) in enumerate(steps) if rise * l_den > l * width]
        runs = [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(order)])]
    low, witnesses = float("inf"), []
    for run in runs:
        first = None
        for i, j in combinations(sorted(run), 2):
            margin = abs((gs[i] - gs[j]) / (xs[i] - xs[j]) - base)
            if margin < low:
                low = margin
            if first is None and not margin > tol:
                first = (i, j)
            if first and low == 0.0:
                break
        witnesses += [first] if first else []
    return (tuple(xs[i] for i in min(witnesses)) if witnesses else None), low


def _check_conditions(
    family: str, f: InvariantFunction, x_max: int, t_max: int, tol: float
) -> ConditionReport:
    """Scan both inequalities for one family over the CLI's ranges: (a) by
    _condition_a; (b) turning a deep leaf into an interior vertex must move
    the invariant differently at root degree 3 <= x <= x_max than at degree
    2, at every depth t <= t_max. Its margin is |mu_coefficient(f, t + 1,
    x)|, from _rows_b; a NaN margin fails and is no minimum."""
    _check_tol(tol)
    _need_int("x_max", x_max, 4)
    _need_int("t_max", t_max, 0)
    roots = list(_order0_points(x_max + 1))
    if family == "starlike":
        *v, v2, v1 = _order0_values(f, roots + [2, 1])
        witness_a, min_a = _condition_a(dict(zip(roots, v)), v2 - v1, tol)
    else:
        # a hub of degree x_max + 3 on x_max + 4 vertices takes clique sizes 3..x_max + 1
        cs = [n1 - 1 for n1 in _order0_points(x_max + 4, x_max + 3)]
        *v, v1 = _order0_values(f, cs + [1])
        witness_a, min_a = _condition_a({c: c * w for c, w in zip(cs, v)}, v1, tol)
    witness_b, min_b = None, float("inf")
    for t, (row, low, finite) in enumerate(_rows_b(f, roots, t_max)):
        min_b = min(min_b, low)
        if witness_b is None and not (low > tol and finite):
            witness_b = next(((t, x) for x, m in zip(roots, row) if not m > tol), None)
    ok = (witness_a is None, witness_b is None)
    return ConditionReport(family, x_max, t_max, tol, *ok, witness_a, witness_b, min_a, min_b)


def _order0_values(f: InvariantFunction, degrees: list[int]) -> list[float]:
    """f((d,)) for each d in degrees, in order. A form reads multiset(d, d),
    which is f((d,)) bit for bit, errors included. An arithmetic failure, or a
    value that is not a real number, is named as f's call names a failure."""
    g = f.multiset
    try:
        if g is None:
            return [_real(f.fn((d,))) for d in degrees]
        return list(map(g, degrees, degrees))
    except (ArithmeticError, TypeError) as exc:
        raise IndexEvaluationError(f"index {f.name!r} at order 0: {exc}") from exc


_POWER_CODE = _power_form(0.0).__code__
# where _power_rows takes a power's values: a factor of 2 inside the normal floats
_NORMAL = (2.0**-1021, 2.0**1023)


def _least_at_3(v2: float, v3: float, v4: float) -> bool:
    """Whether r2 = 2**alpha, r3 = 3**alpha and r4 = 4**alpha, each within
    relative e = 2**-40 of the normal floats v2, v3 and v4, must meet
    |1 - r2| |r4 - r3| >= (3u |1 - r2| + 2e (1 + r2)) (r4 + r3 + 2 r2), u =
    2**-53: the left side at its least and the right at its most over those
    ranges, in exact integers (units of 2**-1114). In _rows_b's terms, over
    A, (M(4) - err(4))(1 - u) - (M(3) + err(3))(1 + u) is at least the left
    side less (u |1 - r2| + c (1 + u))(r4 + r3 + 2 r2), as |r4 - r2| - |r3 -
    r2| = |r4 - r3|, and u |1 - r2| + c (1 + u) <= 3u |1 - r2| + 2e (1 + r2)."""
    if not all(_NORMAL[0] <= v <= _NORMAL[1] for v in (v2, v3, v4)):
        return False
    one = 1 << 1114
    (lo2, hi2), (lo3, hi3), (lo4, hi4) = [((d << 40) - d, (d << 40) + d)
                                          for d in map(_fixed, (v2, v3, v4))]
    gap = max(lo2 - one, one - hi2, 0) * max(lo4 - hi3, lo3 - hi4, 0)
    wide = max(hi2 - one, one - lo2)
    return gap << 93 >= ((3 * wide << 40) + (2 * (one + hi2) << 53)) * (hi4 + hi3 + 2 * hi2)


def _power_rows(
    g: Callable[[int, int], float], x_max: int, t_max: int
) -> Generator[tuple, None, int]:
    """_rows_b's rows [m(3)] of a power form g from depth 0, while
    _least_at_3 holds and each depth's values lie in _NORMAL; returns the
    first depth it does not yield, at which g raised or left that range."""
    t = 0
    try:
        a2, a3 = g(2, 0), g(3, 0)
        if not _least_at_3(a2, a3, g(4, 0)):
            return 0
        while t <= t_max:
            # g(2 << t) and g(x_max << (t + 1)) are the ends of the depth's values
            b2, b3, top = g(4 << t, 0), g(6 << t, 0), g(x_max << t + 1, 0)
            if not (_NORMAL[0] <= a2 <= _NORMAL[1] and _NORMAL[0] <= top <= _NORMAL[1]):
                break
            yield _margins([a3 - b3 - (a2 - b2)])
            a2, a3, t = b2, b3, t + 1
    except ArithmeticError:
        pass  # mu_row meets the error at depth t
    return t


def _rows_b(f: InvariantFunction, roots: list[int], t_max: int) -> Iterator[tuple]:
    """(row, low, finite) for each depth t <= t_max: |mu_row(f, t + 1, roots)|,
    or a prefix holding its least and first failure, bit for bit; low is
    row's least non-NaN value, finite False if one is NaN. roots are the
    degrees 3..x_max.

    Sum-connectivity and path-count read degree sums s only (path-count's
    constant form reads none): their rows are the same float subtractions
    from D[s] = psi(s) - psi(s + 1), tabled for x_max - 2 depths at a time to
    keep memory O(x_max). Rounding is monotone, so where D is nonincreasing,
    as path-count's all-zero D is, a row's first margin is its least and
    first failure.

    Connectivity, hyper-zagreb and power:alpha are p**alpha of the degree
    product p (alpha = -1/2 and 2 for the first two), computed as g(p), so
    mu_(t+1)(x) = A (1 - r2)(x**alpha - r2) exactly, A = 2**(t alpha) and r2
    = 2**alpha. Assume g is within relative 2**-42 of the exact power
    wherever either is normal: 1 / sqrt(p) and p * p are within 2.5u (past
    the float range see invariants._inv_sqrt), and a libm pow within one ulp
    is within 2**-52. Then each g(x << t) is within e = 2**-40 of (x <<
    t)**alpha while normal (x << t converts exactly, x < 2**53; past 2**1024
    see invariants._pow_past_floats), and a row's subtractions round by at
    most u = 2**-53 each. So the computed margin m(x) lies between (1 -
    u)(M(x) - err(x)) and (1 + u)(M(x) + err(x)), M(x) = |mu_(t+1)(x)|,
    err(x) = A c (x**alpha + r2) and c = (1 + r2) e (1 + u) + |1 - r2| u.
    M(x) - err(x) increases with x for either sign of alpha (given |1 - r2|
    > c), so m(x) >= m(3) at every x >= 4 once (M(4) - err(4))(1 - u) >=
    (M(3) + err(3))(1 + u). A cancels, and _least_at_3 checks what implies
    it, once. Then, while a depth's values, from g(2 << t) to g(x_max << (t
    + 1)), lie in _NORMAL, its row is the prefix [m(3)], from _power_rows.
    From the first depth where this is not shown, and for other f, rows come
    from mu_row, which raises as before."""
    g = f.multiset
    own = next((name for name, (_, form) in _SIMPLE_BUILTINS.items() if form is g), None)
    if own in ("sum-connectivity", "path-count"):
        for t0 in range(0, t_max + 1, len(roots)):
            t1 = min(t0 + len(roots), t_max + 1)
            psi = map(g, repeat(0), range(2 * t0 + 3, roots[-1] + 2 * t1 + 1))
            d = [a - b for a, b in pairwise(psi)]
            width = 1 if all(map(ge, d, d[1:])) else len(roots)
            for i in range(0, 2 * (t1 - t0), 2):
                row = [abs(v - d[i]) for v in d[i + 1 : i + 1 + width]]
                yield row, min(row), True
        return
    power = own or getattr(g, "__code__", None) is _POWER_CODE
    t = (yield from _power_rows(g, roots[-1], t_max)) if power else 0
    for t in range(t, t_max + 1):
        yield _margins(mu_row(f, t + 1, roots))


def _margins(mu: list[float]) -> tuple[list[float], float, bool]:
    """|mu|, its least non-NaN value, and whether none is NaN."""
    row = list(map(abs, mu))
    # margins are >= 0 or NaN, so their sum is NaN just when one is
    total = sum(row)
    low = min(row) if total == total else min([m for m in row if m == m], default=inf)
    return row, low, total == total


def check_starlike_conditions(
    f: InvariantFunction, x_max: int = 64, t_max: int = 32, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Scan the inequalities under which profiles determine starlike specs.

    (a) the divided difference of f over the root degrees 3..x_max that
    reconstruction scans must avoid f(2) - f(1); (b) the leaf-swap gap must
    be nonzero at every depth. ValueError unless x_max >= 4 and t_max >= 0
    are ints and 0 <= tol < 1.
    """
    return _check_conditions("starlike", f, x_max, t_max, tol)


def check_generalized_conditions(
    f: InvariantFunction, x_max: int = 64, t_max: int = 32, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Same scan for the clique-coalesced family.

    (a) reads the clique sizes n1 that reconstruction scans, whose other
    vertices have degree c = n1 - 1, from 2 (a 3-clique) to x_max: the
    divided difference of c * f(c) must avoid f(1); (b) is unchanged.
    """
    return _check_conditions("generalized", f, x_max, t_max, tol)


class ReconstructionResult(NamedTuple):
    """A rebuilt spec plus the per-order residuals of its validation."""

    spec: StarlikeSpec
    residuals: list[float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    def to_dict(self) -> dict:
        return {
            "family": "starlike" if self.spec.clique_size == 1 else "generalized",
            "n": self.spec.vertex_count,
            **self.spec.to_dict(),
            "max_residual": self.max_residual,
        }


def _reconstruct(
    n: int, r: int | None, profile: list[float], f: InvariantFunction, tol: float
) -> ReconstructionResult:
    """Rebuild the spec of the slice (n, r), r None for a starlike one, from
    its profile: order 0 picks the one point (n1, n2, m) whose value
    matches, and each order h >= 1 one count, the gap between the profile
    and the closed form with the counts found so far and the length-h count
    at zero, over the slope in that count, until the lengths fill n2 - 1.

    The order-h value reads only n1, n2, m and the counts of lengths <= h
    (the paper's first result), so where the count found is zero the
    ladder's value is the rebuilt spec's own, bit for bit. The replay
    evaluates again, at the spec's point, only orders with a nonzero count
    and orders past the longest branch.

    At a ladder point every multiplicity counts paths but the interior one,
    n2 - 1 - used_len - (h + 1)(m - used_cnt), negative when the m -
    used_cnt branches left cannot all be longer than h. Where they can, the
    point is evaluated with the spec's self-test. At a zero-count order a
    returned spec's branches left are all longer than h, so every value its
    replay reads passed the test; every order-0 point has n2 - 1 >= m.
    """
    _check_tol(tol)
    points = _order0_points(n, r)
    family, noun = ("starlike", "root degree") if r is None else ("clique-coalesced", "clique size")
    if not points:
        hub = "" if r is None else f" and hub degree {r}"
        raise NoCandidateRootError(f"no {family} tree has {n} vertices{hub}")
    try:
        profile = list(profile)
    except TypeError:
        raise ValueError(f"profile must be a sequence of real numbers; got {profile!r}") from None
    if not profile:
        raise BudgetMismatchError("profile is empty")
    if wrong := [v for v in profile if not isinstance(v, Real)]:
        raise ValueError(f"profile entries must be real numbers; got {wrong[0]!r}")
    zero = {key: _evaluate((*point, {}), 0, f, True) for key, point in points.items()}
    matches = [key for key, value in zero.items() if _close(profile[0], value, tol)]
    if not matches:
        raise NoCandidateRootError(
            f"no {noun} in {min(points)}..{max(points)} matches "
            f"the order-0 value {profile[0]!r}"
        )
    if len(matches) > 1:
        raise AmbiguousRootError(
            f"{noun}s {matches} all match the order-0 value; "
            "tighten the tolerance or use a steeper index"
        )
    n1, n2, m = points[matches[0]]
    budget_len, used_len, used_cnt = n2 - 1, 0, 0
    values, counts, S = [zero[matches[0]]], {}, [0]
    while used_len < budget_len:
        h = len(values)
        if h >= len(profile):
            raise BudgetMismatchError(
                f"profile ends at order {len(profile) - 1} with "
                f"{budget_len - used_len} branch length still unaccounted for"
            )
        slope = mu_coefficient(f, h, m + n1 - 1)
        if slope == 0.0:
            raise NonIntegerBranchCountError(
                f"zero slope at order {h}; this index cannot resolve branch counts"
            )
        S.append(S[-1])
        as_spec = budget_len - used_len >= (h + 1) * (m - used_cnt)
        values.append(_evaluate((n1, n2, m, counts, S), h, f, as_spec))
        raw = (profile[h] - values[h]) / slope
        # a NaN or infinite count is as far from every integer
        if not abs(raw) < inf or abs(raw - (k := round(raw))) > BRANCH_RESIDUAL_TOL:
            raise NonIntegerBranchCountError(
                f"count of length-{h} branches came out {raw!r}, "
                f"not within {BRANCH_RESIDUAL_TOL} of an integer"
            )
        if k < 0:
            raise NonIntegerBranchCountError(
                f"count of length-{h} branches came out negative ({k})"
            )
        if k:
            used_len += h * k
            used_cnt += k
            if used_len > budget_len or used_cnt > m:
                raise BudgetMismatchError(
                    f"branches found through order {h} overfill the tree "
                    f"({used_cnt} branches, total length {used_len})"
                )
            counts[h] = k
            S[h] += k
    if used_cnt != m:
        raise BudgetMismatchError(
            f"recovered {used_cnt} branches but the root degree demands {m}"
        )
    star = StarlikeSpec.from_counts(counts)
    spec = star if n1 == 1 else GenStarlikeSpec(n1, star)

    top = min(spec.longest_path_length, len(profile) - 1)
    point = _point(spec, top)
    check = [_evaluate(point, h, f, True) if h in counts or h >= len(values) else values[h]
             for h in range(top + 1)] + [0.0] * (len(profile) - 1 - top)
    h = _first_difference(profile, check, tol)
    if h is not None:
        raise ProfileMismatchError(
            f"rebuilt spec disagrees with the input profile at order {h}: "
            f"{check[h]!r} vs {profile[h]!r}"
        )
    residuals = [abs(a - b) for a, b in zip(profile, check)]
    return ReconstructionResult(spec=spec, residuals=residuals)


def reconstruct_starlike(
    vertex_count: int,
    profile: list[float],
    f: InvariantFunction,
    tol: float = DEFAULT_TOL,
) -> ReconstructionResult:
    """Rebuild a starlike spec from its invariant profile.

    The profile must cover orders 0..h_max with h_max at least the longest
    branch length. Raises a ReconstructionError subclass rather than ever
    returning a spec that does not reproduce the input, and ValueError unless
    0 <= tol < 1, the vertex count is an int and the profile is a sequence of
    reals.
    """
    return _reconstruct(vertex_count, None, profile, f, tol)


def reconstruct_generalized(
    vertex_count: int,
    max_degree: int,
    profile: list[float],
    f: InvariantFunction,
    tol: float = DEFAULT_TOL,
) -> ReconstructionResult:
    """Rebuild a clique-coalesced spec from (n, max degree, profile).

    The family fixes the vertex count and the hub degree r; the order-0
    value then pins the clique size by integer scan, and the ladder runs on
    the tree part with the hub degree in every crossing class. Errors as
    for reconstruct_starlike; the hub degree must be an int too.
    """
    _need_int("max_degree", max_degree)
    return _reconstruct(vertex_count, max_degree, profile, f, tol)


class _LazyRows:
    """Invariant values of a list of specs, evaluated order by order.

    The order-h value of a spec depends only on its clique size, tree size,
    root degree and counts of branches of length <= h (the paper's first
    result: _terms reads no longer branch), so it is computed once per such
    prefix, in closed form at the point of the first spec that reaches it,
    and is bit-identical for every spec that shares the prefix. Past a
    spec's longest path the value is 0.0; there the prefix is the whole
    spec. Each spec keeps its row of the values read so far. Lives for one
    call.
    """

    def __init__(self, specs: list[StarlikeSpec], f: InvariantFunction) -> None:
        self.f = f
        self.points = [_point(s, s.longest_path_length) for s in specs]
        self.rows: list[list[float]] = [[] for _ in specs]
        # each row's prefix id at its last order
        self.prefix = [-1] * len(specs)
        # (n1, n2, m) at order 0, then (prefix id, count of length h) -> prefix id
        self.ids: dict[tuple, int] = {}
        self.values: list[float] = []

    def value(self, i: int, h: int) -> float:
        """Spec i's order-h value; its row must hold orders 0..h - 1."""
        point = self.points[i]
        key = (self.prefix[i], point[3].get(h, 0)) if h else point[:3]
        node = self.ids.setdefault(key, len(self.values))
        if node == len(self.values):
            self.values.append(_evaluate(point, h, self.f, True) if h < len(point[4]) else 0.0)
        self.prefix[i] = node
        self.rows[i].append(self.values[node])
        return self.values[node]


def _refine(rows, count: int, h_max: int, tol: float) -> tuple[int | None, list[list[int]]]:
    """Split items 0..count - 1 into groups order by order, h = 0..h_max, so
    that items _close at every order so far share a group. rows.value(i, h)
    is item i's order-h value, read once for each order it is grouped at.

    Each group is sorted by value and cut between neighbours not _close.
    For x <= y <= z of any signs and 0 <= tol < 1, z - x - tol * max(1, |x|,
    |z|) strictly increases in z and decreases in x: if x and z are _close,
    so are x and y, and y and z, so no cut parts a _close pair. At tol > 0
    an infinity is _close to every value but itself, so a group holding one
    and another value stays whole. NaN values, _close to nothing, and
    singletons are dropped. Returns the order at which no group is left,
    else None and the groups left.
    """
    groups: list = [range(count)]
    for h in range(h_max + 1):
        split = []
        for group in groups:
            keyed = sorted((x, i) for i in group if (x := rows.value(i, h)) == x)
            xs = [x for x, _ in keyed]
            if tol and xs and xs[0] != xs[-1] and inf in (-xs[0], xs[-1]):
                cuts = []
            else:
                cuts = [k for k in range(1, len(xs)) if xs[k] - xs[k - 1]
                        and not _close(xs[k - 1], xs[k], tol)]
            for lo, hi in zip([0, *cuts], [*cuts, len(xs)]):
                if hi - lo > 1:
                    split.append([i for _, i in keyed[lo:hi]])
        if not split:
            return h, []
        groups = split
    return None, groups


def distinguish(
    a: StarlikeSpec,
    b: StarlikeSpec,
    f: InvariantFunction,
    tol: float = DEFAULT_TOL,
) -> int | None:
    """Smallest order whose invariant separates the two specs, else None.

    Orders beyond both longest paths carry no information (both invariants
    are identically zero there), so the scan stops at the larger of the two.
    Orders are evaluated one at a time, and none past the separating order:
    the two-spec case of the survey's refinement. ValueError unless 0 <=
    tol < 1, and FamilyMismatchError unless both are specs of one family.
    """
    _check_tol(tol)
    specs = isinstance(a, StarlikeSpec) and isinstance(b, StarlikeSpec)
    if not specs or (a.clique_size == 1) != (b.clique_size == 1):
        raise FamilyMismatchError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        )
    if a.vertex_count != b.vertex_count:
        raise SizeMismatchError(
            f"vertex counts differ: {a.vertex_count} vs {b.vertex_count}"
        )
    if a.clique_size > 1 and a.max_degree != b.max_degree:
        raise SizeMismatchError(
            f"maximum degrees differ: {a.max_degree} vs {b.max_degree}"
        )
    h_max = max(a.longest_path_length, b.longest_path_length)
    return _refine(_LazyRows([a, b], f), 2, h_max, tol)[0]


def _branch_sets(total: int, parts: int, least: int = 1) -> Iterator[tuple]:
    """Every branches tuple ((length, count), ...) of parts branches with
    lengths >= least summing to total, in ascending tuple order."""
    for length in range(least, total // parts + 1):
        # the parts - count longer branches need at least length + 1 each
        for count in range(max(1, parts * (length + 1) - total), parts):
            for rest in _branch_sets(total - length * count, parts - count, length + 1):
                yield ((length, count),) + rest
        if length * parts == total:
            yield ((length, parts),)


def _specs(n: int, r: int | None = None) -> list[StarlikeSpec]:
    """Every spec of a family slice, by clique size and then branches."""
    return [
        StarlikeSpec(b) if n1 == 1 else GenStarlikeSpec(n1, StarlikeSpec(b))
        for n1, n2, m in _order0_points(n, r).values()
        for b in _branch_sets(n2 - 1, m)
    ]


def starlike_specs(vertex_count: int) -> list[StarlikeSpec]:
    """Every starlike spec on the given vertex count, ordered by branches.
    ValueError unless the vertex count is an int."""
    return sorted(_specs(vertex_count), key=lambda s: s.branches)


def generalized_specs(vertex_count: int, max_degree: int) -> list[GenStarlikeSpec]:
    """Every coalesced spec with the given vertex count and hub degree,
    ordered by clique size and then branches. ValueError unless both are ints."""
    _need_int("max_degree", max_degree)
    return _specs(vertex_count, max_degree)


def _partition_counts(total: int) -> list[list[int]]:
    """p[t][k]: the ways to write t as a sum of k positive parts, for t, k <=
    total. A point (n1, n2, m) of a slice has p[n2 - 1][m] specs."""
    p = [[1] + [0] * total] + [[0] * (total + 1) for _ in range(total)]
    for t in range(1, total + 1):
        for k in range(1, t + 1):
            p[t][k] = p[t - 1][k - 1] + p[t - k][k]
    return p


# The unit roundoff of a float; the slack that covers the rounding of the
# survey proof's own arithmetic (about 10 roundings, against 2**-40); and an
# absolute floor for rounding in the subnormal range. See _cell_bounds.
_U = 2.0**-53
_SLACK = 1 + 2.0**-40
_FLOOR = 2.0**-1000


def _class_forms(point: tuple[int, int, int], h: int) -> list[tuple[int, int]]:
    """(degree product, degree sum) of every class an order-h >= 1 path can
    have at point (n1, n2, m), with hub degree R = m + n1 - 1 and clique
    degree c = n1 - 1, from the shapes of starlike._terms: a leaf end inside
    its branch (1, 2^h); inside a branch (2^(h+1)); a leaf, the hub and a
    branch (1, 2^(h-1), R), which holds the root-to-leaf paths; two leaves
    (1, 2^(h-2), R, 1); the hub with two branch sides (R, 2^h); and with a
    clique, the bridges (c^a, R, 2^(h-a)) and (c^a, R, 2^(h-a-1), 1) for
    1 <= a <= min(h - 1, c), (c^h, R) for h <= c and (c^(h+1)) for h < c.
    Some forms may be absent from every spec; none present is missing."""
    n1, _, m = point
    R, c = m + n1 - 1, n1 - 1
    forms = [(1 << h, 2 * h + 1), (2 << h, 2 * h + 2)]
    forms += [(R << h - 1, R + 2 * h - 1), (R << h, R + 2 * h)]
    if h >= 2:
        forms.append((R << h - 2, R + 2 * h - 2))
    for a in range(1, min(h, c + 1)):
        side, total = c**a * R, R + a * c + 2 * (h - a)
        forms += [(side << h - a, total), (side << h - a - 1, total - 1)]
    if h <= c:
        forms.append((c**h * R, h * c + R))
    if h < c:
        forms.append((c ** (h + 1), (h + 1) * c))
    return forms


def _path_bound(point: tuple[int, int, int], h: int) -> int:
    """At least the number of order-h >= 1 paths of any spec at point
    (n1, n2, m): at most C(n2, 2) in the tree, one per pair of ends; at most
    m * perm(c, a) bridges with a clique vertices, one per branch and ordered
    choice; and, in the clique, perm(c, h) for each of the h // 2 + 1 places
    of the hub, and perm(c, h + 1) / 2 without it."""
    n1, n2, m = point
    c = n1 - 1
    bridges = m * sum(perm(c, a) for a in range(1, min(h, c + 1)))
    return n2 * (n2 - 1) // 2 + bridges + perm(c, h) * (h // 2 + 1) + perm(c, h + 1) // 2


def _cell_bounds(f: InvariantFunction, point: tuple[int, int, int], h: int) -> tuple:
    """(M, V, E) for the order-h values at point, f a built-in with a
    product-sum form: M bounds |f| over _class_forms, V = _path_bound * M
    bounds |v| for v the exact sum of count * f(class) over a census, and E
    bounds the distance from v to its computed value, and to the exact real
    value of f's formula.

    A value is fsum(count * f(class)). Each product rounds once, twice when
    count > 2**53, and fsum once more, so the computed value is within
    (3u + O(u^2)) V of v, u = 2**-53, plus one 2**-1075 per class in the
    subnormal range. Each built-in's f is within 4u of its formula
    (connectivity past the float range too, by invariants._inv_sqrt), so E =
    8u V + 2**-1000 covers both. All three are inf when f is inf or NaN at a
    form, or V + E >= 2**1000: below that no fsum overflows. ArithmeticError
    where f raises."""
    g = f.multiset
    values = [abs(g(p, s)) for p, s in _class_forms(point, h)]
    top = max(values)
    v = _path_bound(point, h) * top
    e = 8 * _U * v + _FLOOR
    if all(x < float("inf") for x in values) and v + e < 2.0**1000:
        return top, v, e
    return (float("inf"),) * 3


def _cell_separates(f: InvariantFunction, point: tuple[int, int, int], h: int, tol: float) -> bool:
    """True when any two specs at point whose branch counts first differ at
    length h separate at order h: their order-h values are not _close.

    Below h their censuses are equal, so their values are bit for bit equal.
    At h their censuses differ by dc (length-h branches, |dc| >= 1) times
    the leaf swap: one class (1, 2^(h-1), R) more, one (R, 2^h) and one
    (1, 2^h) fewer, and one (2^(h+1)) more (mu_coefficient). So the exact
    sums over the computed f differ by dc * mu*, mu* the exact sum of those
    four computed values, each at most M in size. mu = mu_row's value at R
    is mu* rounded three times: |mu - mu*| <= u (|mu| / (1 - u) + 4M). The
    computed values differ by at least |mu*| - 2E and are each at most V + E
    in size, so they are not _close if (|mu| (1 - 2u) - 4uM - 2E)(1 - u) >
    tol * max(1, V + E)(1 + u). _SLACK covers the factors in u and the
    rounding of this test, which a NaN and an infinite bound fail.
    """
    top, v, e = _cell_bounds(f, point, h)
    mu = mu_row(f, h, (point[2] + point[0] - 1,))[0]
    return abs(mu) > _SLACK * (4 * _U * top + 2 * e + tol * max(1.0, v + e))


def _proven(points: list[tuple[int, int, int]], f: InvariantFunction, tol: float) -> bool:
    """True when no two specs of a slice collide, decided from its points
    without listing a spec (the paper's second result, with margins).

    Specs at two points are apart at order 0: every pair of the points'
    order-0 values is not _close. Specs at one point (n1, n2, m) first
    differ at a length h <= (n2 - 1 - m) // 2: of the two, the one with more
    length-h branches has one longer than h (their branches of length >= h
    have one total length), so the other has two, and its m - 2 others are
    at least 1 long. Each such cell (point, h) must pass _cell_separates.
    Then every pair separates at its first difference, and the sweep finds
    no collision.

    Path-count's slopes are 0, and its order-0 value is n at every point,
    so it takes lag-2 cells instead. A spec's order-k path count is a sum
    over N_1..N_(k-1), N_j = m - S[j - 1] the number of branches of length
    >= j (N_k itself cancels: the paths from the root down add it, those
    inside a branch take it away): n2 - 1 - (N_1 + ... + N_(k-1)) inside
    branches, (N_a N_(k-a) - N_max(a, k-a)) / 2 over 0 < a < k through the
    root, perm(c, a) N_(k-a) over 0 < a < k bridging to the clique, and
    clique paths that read no count. So orders 0-2 read the point alone
    (N_1 = m), and _evaluate reads them at (*point, {}), where every N_j is
    m. Two specs at one point that first differ at length h have equal N_j
    up to j = h and differ in N_(h+1) by -dc, dc their difference in
    length-h counts; N_(h+1) enters order h + 2 with the factor m - 2
    through the root (a = 1 and k - 1) and c = n1 - 1 through the bridges
    (a = 1). So their order-(h + 2) values differ by exactly (2 - R) dc,
    R = m + n1 - 1 >= 3. Points must differ at an order <= 2 (starlike ones
    at order 2, where m(m - 1) / 2 + n - 1 - m rises with m; coalesced ones
    at order 1, where n - n1 + n1(n1 - 1) / 2 rises with n1), and each cell
    needs R - 2 > tol * max(1, V), V = _path_bound(point, h + 2), with
    _SLACK for the rounding of the test. Where every _path_bound the cells
    read, from order 1 up, is below 2**53, each count and each value is an
    exact integer float, so the values differ by at least R - 2 and are at
    most V in size: not _close.

    Built-ins with a product-sum form only. False when a check fails or f
    raises: the sweep then runs as it would have. Had the sweep run, each
    of its groups at order h would share a point and its counts below h, so
    it would read orders up to a point's last cell there (plus the lag),
    each with finite _cell_bounds: none of its evaluations raises when this
    returns True.
    """
    if f.multiset is None:
        return False
    lag = 2 if f.multiset is _SIMPLE_BUILTINS["path-count"][1] else 0
    try:
        heads = [[_evaluate((*point, {}), k, f) for k in range(lag + 1)] for point in points]
        if any(_first_difference(x, y, tol) is None for x, y in combinations(heads, 2)):
            return False
        for point in points:
            n1, n2, m = point
            cells = range(1, (n2 - 1 - m) // 2 + 1)
            if lag:
                # bounds[k - 1] is order k's; cell h reads order h + 2
                bounds = [_path_bound(point, k) for k in range(1, cells.stop + lag)]
                if max(bounds) >= 2**53 or not all(
                    n1 + m - 3 > _SLACK * tol * max(1, v) for v in bounds[lag:]
                ):
                    return False
            elif not all(_cell_separates(f, point, h, tol) for h in cells):
                return False
    except (ArithmeticError, IndexEvaluationError):
        return False
    return True


class SurveyReport(NamedTuple):
    """All-pairs distinguishability outcome for one family slice."""

    family: str
    vertex_count: int
    max_degree: int | None
    index: str
    tolerance: float
    spec_count: int
    pairs_checked: int
    collisions: list[tuple[StarlikeSpec, StarlikeSpec]]

    def to_dict(self) -> dict:
        doc = {
            "family": self.family,
            "n": self.vertex_count,
            "index": self.index,
            "tolerance": self.tolerance,
            "specs": self.spec_count,
            "pairs_checked": self.pairs_checked,
            "collisions": [
                {"a": a.to_dict(), "b": b.to_dict()} for a, b in self.collisions
            ],
        }
        if self.max_degree is not None:
            doc["r"] = self.max_degree
        return doc


def survey_distinguishability(
    vertex_count: int,
    f: InvariantFunction,
    family: str = "starlike",
    max_degree: int | None = None,
    tol: float = DEFAULT_TOL,
) -> SurveyReport:
    """Find every unordered pair of same-size specs whose profiles collide.

    First _proven tries to show, without listing a spec, that no pair
    collides; the spec count is then a sum of partition counts. Otherwise
    _sweep lists the specs and refines them into groups order by order, as
    distinguish does for two. Both ways give the same report, or raise the
    same error. ValueError unless 0 <= tol < 1, the family takes the hub
    degree given, and the vertex count and the hub degree are ints.
    """
    _check_tol(tol)
    starlike = family == "starlike"
    if family not in ("starlike", "generalized") or starlike != (max_degree is None):
        raise ValueError(
            "family must be 'starlike' (no hub degree) or 'generalized' (with one), "
            f"got {family!r} and {max_degree!r}"
        )
    points = list(_order0_points(vertex_count, max_degree).values())
    if _proven(points, f, tol):
        table = _partition_counts(max((n2 - 1 for _, n2, _ in points), default=0))
        count, collisions = sum(table[n2 - 1][m] for _, n2, m in points), []
    else:
        specs = starlike_specs(vertex_count) if starlike else _specs(vertex_count, max_degree)
        count, collisions = len(specs), _sweep(specs, f, tol)
    return SurveyReport(
        family=family,
        vertex_count=vertex_count,
        max_degree=max_degree,
        index=f.name,
        tolerance=tol,
        spec_count=count,
        pairs_checked=count * (count - 1) // 2,
        collisions=collisions,
    )


def _sweep(specs: list[StarlikeSpec], f: InvariantFunction, tol: float) -> list[tuple]:
    """Every pair of specs whose profiles collide, in all-pairs order: the
    pairs inside the groups that _refine leaves, checked whole, since _close
    is not transitive."""
    h_max = max((s.longest_path_length for s in specs), default=0)
    lazy = _LazyRows(specs, f)
    _, groups = _refine(lazy, len(specs), h_max, tol)
    rows = lazy.rows
    pairs = sorted((i, j) for group in groups for i, j in combinations(sorted(group), 2)
                   if _first_difference(rows[i], rows[j], tol) is None)
    return [(specs[i], specs[j]) for i, j in pairs]
