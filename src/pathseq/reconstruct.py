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

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .errors import (
    AmbiguousRootError,
    BudgetMismatchError,
    FamilyMismatchError,
    NoCandidateRootError,
    NonIntegerBranchCountError,
    ProfileMismatchError,
    SizeMismatchError,
)
from .invariants import InvariantFunction, invariant_from_census, invariant_profile
from .starlike import GenStarlikeSpec, StarlikeSpec, _evaluate, _point, mu_coefficient, mu_row

DEFAULT_TOL = 1e-9
# how far a recovered branch count may sit from an integer
BRANCH_RESIDUAL_TOL = 1e-6
# The survey sorts specs by their value at this order. On starlike n=21
# (616 specs) with connectivity, orders 0/1/2/3/4/6 leave 18,924/4,234/
# 1,325/502/245/417 of 189,420 pairs within tolerance: order 4 leaves fewest.
SWEEP_ORDER = 4


def _close(a: float, b: float, tol: float) -> bool:
    """Hybrid comparison: absolute near zero, relative for large values."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_tol(tol: float) -> None:
    """ValueError unless 0 <= tol < 1: at tol >= 1 any two values of one sign
    are _close, and below 0 (or NaN) a value is not _close to itself."""
    if not 0 <= tol < 1:
        raise ValueError(f"tolerance must be >= 0 and < 1, got {tol!r}")


def _first_difference(a: list[float], b: list[float], tol: float) -> int | None:
    """First order at which two profiles are not _close, else None."""
    return next((h for h, (x, y) in enumerate(zip(a, b)) if not _close(x, y, tol)), None)


def _order0_points(n: int, r: int | None = None) -> dict[int, tuple[int, int, int]]:
    """The order-0 unknowns of a family slice: each value the candidate scan
    reads, mapped to its point (n1, n2, m). Starlike trees on n vertices (r
    is None) have root degrees 3 <= m < n. Clique-coalesced ones with hub
    degree r have clique sizes n1 >= 3 leaving m = r + 1 - n1 >= 3 branches,
    which need n2 - 1 = n - n1 >= m vertices, so n > r. Reconstruction, spec
    listing and condition (a) all read this table."""
    if r is None:
        return {m: (1, n, m) for m in range(3, n)}
    return {n1: (n1, n - n1 + 1, r + 1 - n1) for n1 in range(3, r - 1)} if n > r else {}


@dataclass(frozen=True)
class ConditionReport:
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
    leave one run.
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
        witnesses += [first] if first else []
    return (tuple(xs[i] for i in min(witnesses)) if witnesses else None), low


def _check_conditions(
    family: str, f: InvariantFunction, x_max: int, t_max: int, tol: float
) -> ConditionReport:
    """Scan both inequalities for one family over the CLI's ranges: (a) by
    _condition_a; (b) turning a deep leaf into an interior vertex must move
    the invariant differently at root degree 3 <= x <= x_max than at degree
    2, at every depth t <= t_max. Its margin is |mu_coefficient(f, t + 1,
    x)|, from mu_row; a NaN margin fails and is no minimum."""
    if x_max < 4 or t_max < 0 or not 0 <= tol < 1:
        raise ValueError(f"need x_max >= 4, t_max >= 0, tol in [0, 1); got {x_max}, {t_max}, {tol}")
    if family == "starlike":
        g = {m: f((m,)) for m in _order0_points(x_max + 1)}
        witness_a, min_a = _condition_a(g, f((2,)) - f((1,)), tol)
    else:
        # a hub of degree x_max + 3 on x_max + 4 vertices takes clique sizes 3..x_max + 1
        g = {n1 - 1: (n1 - 1) * f((n1 - 1,)) for n1 in _order0_points(x_max + 4, x_max + 3)}
        witness_a, min_a = _condition_a(g, f((1,)), tol)
    roots = list(_order0_points(x_max + 1))
    witness_b, min_b = None, float("inf")
    for t in range(t_max + 1):
        row = list(map(abs, mu_row(f, t + 1, roots)))
        # margins are >= 0 or NaN, so their sum is NaN just when one is
        total = sum(row)
        low = min(row) if total == total else min([m for m in row if m == m], default=min_b)
        min_b = min(min_b, low)
        if witness_b is None and not (low > tol and total == total):
            witness_b = next(((t, x) for x, m in zip(roots, row) if not m > tol), None)
    ok = (witness_a is None, witness_b is None)
    return ConditionReport(family, x_max, t_max, tol, *ok, witness_a, witness_b, min_a, min_b)


def check_starlike_conditions(
    f: InvariantFunction, x_max: int = 64, t_max: int = 32, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Scan the inequalities under which profiles determine starlike specs.

    (a) the divided difference of f over the root degrees 3..x_max that
    reconstruction scans must avoid f(2) - f(1); (b) the leaf-swap gap must
    be nonzero at every depth. ValueError unless x_max >= 4, t_max >= 0 and
    0 <= tol < 1.
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


@dataclass(frozen=True)
class ReconstructionResult:
    """A rebuilt spec plus the per-order residuals of its validation."""

    spec: StarlikeSpec
    residuals: list[float] = field(compare=False)

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


def _run_ladder(
    profile: list[float],
    f: InvariantFunction,
    point: tuple[int, int, int],
) -> dict[int, int]:
    """Recover branch counts order by order until the length budget is spent.

    point is the candidate (n1, n2, m). At order h the closed form is
    evaluated with the counts found so far and the order-h count set to
    zero; the gap to the profile, over the slope in that count, is the
    count.
    """
    n1, n2, m = point
    budget_len = n2 - 1
    counts: dict[int, int] = {}
    used_len = 0
    used_cnt = 0
    h = 1
    while used_len < budget_len:
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
        raw = (profile[h] - _evaluate((n1, n2, m, counts), h, f)) / slope
        k = round(raw)
        if abs(raw - k) > BRANCH_RESIDUAL_TOL:
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
        h += 1
    if used_cnt != m:
        raise BudgetMismatchError(
            f"recovered {used_cnt} branches but the root degree demands {m}"
        )
    return counts


def _reconstruct(
    n: int, r: int | None, profile: list[float], f: InvariantFunction, tol: float
) -> ReconstructionResult:
    """Pick the one order-0 point of the slice (n, r), r None for a starlike
    one, whose value matches, run the ladder on its branches and replay the
    rebuilt spec."""
    _check_tol(tol)
    points = _order0_points(n, r)
    family, noun = ("starlike", "root degree") if r is None else ("clique-coalesced", "clique size")
    if not points:
        hub = "" if r is None else f" and hub degree {r}"
        raise NoCandidateRootError(f"no {family} tree has {n} vertices{hub}")
    if not profile:
        raise BudgetMismatchError("profile is empty")
    matches = [
        key
        for key, point in points.items()
        if _close(profile[0], _evaluate((*point, {}), 0, f), tol)
    ]
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
    point = points[matches[0]]
    star = StarlikeSpec.from_counts(_run_ladder(profile, f, point))
    spec = star if point[0] == 1 else GenStarlikeSpec(point[0], star)

    check = invariant_profile(spec, f, len(profile) - 1)
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
    returning a spec that does not reproduce the input, and ValueError
    unless 0 <= tol < 1.
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
    for reconstruct_starlike.
    """
    return _reconstruct(vertex_count, max_degree, profile, f, tol)


class _LazyRows:
    """Invariant values of a list of specs, evaluated as comparisons reach them.

    The order-h value of a spec depends only on its clique size, tree size,
    root degree and counts of branches of length <= h (the paper's first
    result: _terms reads no longer branch), so it is computed once per such
    prefix, from the census of the first spec that reaches it, and is
    bit-identical for every spec that shares the prefix. Past a spec's
    longest path its census is empty and the value 0.0; there the prefix is
    the whole spec. Each spec keeps its own row of values, extended only as
    far as it is read. Lives for one call.
    """

    def __init__(self, specs: list[StarlikeSpec], f: InvariantFunction) -> None:
        self.specs = specs
        self.f = f
        self.rows: list[list[float]] = [[] for _ in specs]
        # each row's prefix id at its last order
        self.prefix = [-1] * len(specs)
        # (n1, n2, m) at order 0, then (prefix id, count of length h) -> prefix id
        self.ids: dict[tuple, int] = {}
        self.values: list[float] = []

    def value(self, i: int, h: int) -> float:
        """Spec i's order-h value, extending its row through h."""
        row = self.rows[i]
        if h < len(row):
            return row[h]
        spec = self.specs[i]
        while len(row) <= h:
            order = len(row)
            key = (self.prefix[i], spec.count(order)) if order else _point(spec)[:3]
            node = self.ids.get(key)
            if node is None:
                node = self.ids[key] = len(self.values)
                self.values.append(invariant_from_census(spec.census(order), self.f))
            self.prefix[i] = node
            row.append(self.values[node])
        return row[h]

    def first_difference(self, i: int, j: int, h_max: int, tol: float) -> int | None:
        """First order <= h_max at which specs i and j are not _close, else None.

        x - y is 0.0 exactly when x and y are equal and finite, and such
        values are _close at every tol >= 0, which the callers check.
        """
        a, b = self.rows[i], self.rows[j]
        for h in range(h_max + 1):
            x = a[h] if h < len(a) else self.value(i, h)
            y = b[h] if h < len(b) else self.value(j, h)
            if x - y and not _close(x, y, tol):
                return h
        return None


def distinguish(
    a: StarlikeSpec,
    b: StarlikeSpec,
    f: InvariantFunction,
    tol: float = DEFAULT_TOL,
) -> int | None:
    """Smallest order whose invariant separates the two specs, else None.

    Orders beyond both longest paths carry no information (both invariants
    are identically zero there), so the scan stops at the larger of the two.
    Orders are evaluated one at a time, and none past the separating order.
    ValueError unless 0 <= tol < 1.
    """
    _check_tol(tol)
    if (a.clique_size == 1) != (b.clique_size == 1):
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
    return _LazyRows([a, b], f).first_difference(0, 1, h_max, tol)


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
    """Every starlike spec on the given vertex count, ordered by branches."""
    return sorted(_specs(vertex_count), key=lambda s: s.branches)


def generalized_specs(vertex_count: int, max_degree: int) -> list[GenStarlikeSpec]:
    """Every coalesced spec with the given vertex count and hub degree,
    ordered by clique size and then branches."""
    return _specs(vertex_count, max_degree)


@dataclass(frozen=True)
class SurveyReport:
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

    Specs are sorted by their value at SWEEP_ORDER, and only pairs _close
    there are compared further, order by order up to their first
    difference. For x <= y and 0 <= tol < 1, y - x - tol * max(1, |x|, |y|)
    strictly increases in y, so the walk forward from each spec can stop at
    the first value not _close. The collisions come out in all-pairs order.
    """
    _check_tol(tol)
    if family == "starlike":
        if max_degree is not None:
            raise ValueError("starlike survey takes no hub degree")
        specs: list = starlike_specs(vertex_count)
    elif family == "generalized":
        if max_degree is None:
            raise ValueError("generalized survey needs the hub degree")
        specs = generalized_specs(vertex_count, max_degree)
    else:
        raise ValueError(f"unknown family {family!r}")

    h_max = max((s.longest_path_length for s in specs), default=0)
    rows = _LazyRows(specs, f)
    k = min(SWEEP_ORDER, h_max)
    swept = [rows.value(i, k) for i in range(len(specs))]
    # a NaN is _close to nothing, so its spec cannot collide
    keyed = sorted((x, i) for i, x in enumerate(swept) if x == x)
    pairs = []
    for a, (x, i) in enumerate(keyed):
        b = a + 1
        while b < len(keyed) and _close(x, keyed[b][0], tol):
            j = keyed[b][1]
            if rows.first_difference(i, j, h_max, tol) is None:
                pairs.append((min(i, j), max(i, j)))
            b += 1
    return SurveyReport(
        family=family,
        vertex_count=vertex_count,
        max_degree=max_degree,
        index=f.name,
        tolerance=tol,
        spec_count=len(specs),
        pairs_checked=len(specs) * (len(specs) - 1) // 2,
        collisions=[(specs[i], specs[j]) for i, j in sorted(pairs)],
    )
