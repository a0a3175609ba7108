"""Seeded inputs for the four benchmark workloads.

`generate(workload, seed)` returns the files the program reads, the job list
and the expected answers. The same seed always gives byte-identical output.
Sizes are fixed per workload and only the shapes are drawn from the seed, so
the amount of work, and with it the timings, barely moves between seeds.
"""

from __future__ import annotations

import json
import os
import random

import reference as ref

INDICES = ("connectivity", "sum-connectivity", "hyper-zagreb", "path-count", "power:0.5")

# closed_form_deep: one ladder of longest-path lengths; the closed forms cost
# more than linearly in rho, so the top rung takes most of the time.
RHO_LADDER = (16, 32, 64, 128)
# Specs per family on each rung. Job latencies span three decades, so a
# median that fell between two rungs would jump from run to run; the many
# cheap specs on the lowest rung put it inside one dense cluster.
SPECS_PER_SLOT = {16: 16, 32: 2, 64: 2, 128: 2}
# Below this many vertices the reference walks every path of the realized
# graph instead of listing tree pairs.
BRUTE_MAX_VERTICES = 48
# pathseq accepts a profile value b for a when |a - b| <= 1e-9 * max(1, |a|, |b|).
# Connectivity-like values fall below 1e-9 at high orders, and there any
# corruption passes that comparison. Corruptions below this floor are marked,
# so that their acceptance is reported as that known defect, apart from failures.
LIBRARY_ABS_TOL = 1e-9

# survey_slices: spec counts grow about 1.25x per vertex, so these ladders
# give time-vs-spec-count curves from tens to hundreds of specs.
STARLIKE_SLICES = (9, 11, 13, 15, 17, 18, 19, 21)
GENERALIZED_SLICES = ((14, 6), (16, 7), (18, 7), (20, 8), (22, 9))
# Index per slice, fixed: how early two profiles differ depends on the index,
# and with it the cost of the pair loop. The seed draws the power exponents,
# which move a slice's cost by up to 1.5x, so power sits only on the two
# cheapest slices. With the eight certificate scans below there are 21 jobs:
# the median job falls inside the scans' cluster, and the p75 tail inside the
# samples of the next job up (starlike n=17, hyper-zagreb).
STARLIKE_INDICES = ("sum-connectivity", "power", "hyper-zagreb", "path-count", "hyper-zagreb",
                    "sum-connectivity", "connectivity", "connectivity")
GENERALIZED_INDICES = ("power", "path-count", "hyper-zagreb", "connectivity", "connectivity")
CONDITION_X_MAX, CONDITION_T_MAX, CONDITION_TOL = 512, 32, 1e-9
# Certificate scans at x_max 512 take 170-210 ms with any of these indices,
# so their eight jobs form one dense cluster that holds the median job.
CONDITION_INDICES = ("connectivity", "sum-connectivity", "hyper-zagreb", "power:0.5")

# enumerate_graphs
TREE_COUNT, TREE_VERTICES = 24, 120
K7_COUNT = 4
TAIL_VERTICES = 14
BUDGET_CLIQUE, SMALL_BUDGET = 9, 50_000

WORKLOADS = ("closed_form_deep", "survey_slices", "enumerate_graphs", "cli_commands")


class Inputs:
    """Files keyed by path relative to the input directory, jobs, expectations."""

    def __init__(self) -> None:
        self.files: dict[str, str] = {}
        self.jobs: list[dict] = []
        self.expected: dict[str, object] = {}
        self.sizes: dict[str, object] = {}

    def add_job(self, job: dict, expected) -> None:
        job["id"] = f"j{len(self.jobs):03d}"
        self.jobs.append(job)
        self.expected[job["id"]] = expected

    def add_spec(self, name: str, spec: dict) -> str:
        path = f"specs/{name}.json"
        self.files[path] = json.dumps(ref.spec_doc(spec), sort_keys=True) + "\n"
        return path


def _json_number_list(values) -> list:
    return [v if isinstance(v, int) else float(v) for v in values]


def random_spec(rng: random.Random, rho: int, clique: int | None, branches: int = 5) -> dict:
    """Spec whose longest path is exactly rho, with distinct branch lengths.

    The two longest branches split rho about 5:3 and the branch count is
    fixed, because the closed forms' cost grows with both the deepest branch
    and the number of distinct lengths; only the shape varies with the seed.
    """
    second = max(rho * 3 // 8 + rng.randint(-1, 1), (clique or 1) - 1)
    others = rng.sample(range(1, second), branches - 2)
    return ref.spec_from_lengths([rho - second, second] + others, clique)


def neighbour(rng: random.Random, spec: dict) -> dict:
    """Same size, branch count and clique: one unit of length moves over.

    Moves that keep the lengths distinct are preferred, so the neighbour
    costs the same to evaluate as the spec.
    """
    lengths = ref.spec_lengths(spec)
    moves = [(i, j) for i, l in enumerate(lengths) if l >= 2
             for j in range(len(lengths)) if j != i]

    def moved(move):
        out = list(lengths)
        out[move[0]] -= 1
        out[move[1]] += 1
        return out

    distinct = [m for m in moves if len(set(moved(m))) == len(lengths)]
    return ref.spec_from_lengths(moved(rng.choice(distinct or moves)), spec.get("clique"))


def _classes(spec: dict):
    if ref.vertex_count(spec) <= BRUTE_MAX_VERTICES:
        return ref.brute_classes(*ref.realize(spec))
    return ref.spec_classes(spec)


def closed_form_deep(seed: int) -> Inputs:
    rng = random.Random(seed)
    out = Inputs()
    slot = 0
    for rho in RHO_LADDER:
        for family in ("starlike", "generalized"):
            for _ in range(SPECS_PER_SLOT[rho]):
                index = INDICES[slot % len(INDICES)]
                slot += 1
                clique = rng.randint(3, 6) if family == "generalized" else None
                spec = random_spec(rng, rho, clique)
                other = neighbour(rng, spec)
                name = f"{family}-{rho}-{slot}"
                path = out.add_spec(name, spec)
                other_path = out.add_spec(name + "-nb", other)
                classes, other_classes = _classes(spec), _classes(other)
                h_max = max(rho, ref.longest_path(other))
                values = ref.profile_values(classes, index, rho)
                base = {"family": family, "index": index, "rho": rho, "spec": path}
                out.add_job({"kind": "profile", **base}, _json_number_list(values))
                out.add_job(
                    {"kind": "distinguish", **base, "other": other_path},
                    ref.first_difference(
                        ref.profile_values(classes, index, h_max),
                        ref.profile_values(other_classes, index, h_max),
                    ),
                )
                if index not in ref.RECONSTRUCTABLE:
                    continue
                profile = [float(v) for v in values]
                top = ref.spec_lengths(spec)[-1]
                # One corruption inside the ladder's orders, one past them that
                # only the replay of the rebuilt spec can catch.
                variants = [("exact", None), ("ladder", rng.randint(0, top)),
                            ("replay", rng.randint(top + 1, rho))]
                for variant, order in variants:
                    values_in = list(profile)
                    below = None
                    if order is not None:
                        values_in[order] *= round(rng.uniform(1.25, 2.0), 3)
                        a, b = profile[order], values_in[order]
                        below = abs(a - b) <= LIBRARY_ABS_TOL * max(1.0, abs(a), abs(b))
                    ppath = f"profiles/{name}-{variant}.json"
                    out.files[ppath] = json.dumps(values_in) + "\n"
                    out.add_job(
                        {"kind": "reconstruct", **base, "profile": ppath,
                         "n": ref.vertex_count(spec), "r": ref.max_degree(spec),
                         "corrupted_order": order, "below_tolerance": below,
                         "source": ref.spec_key(spec)},
                        ref.spec_key(spec) if order is None else "reject",
                    )
    out.sizes = {"rho_ladder": list(RHO_LADDER), "specs": slot}
    return out


def _power_index(rng: random.Random) -> str:
    return f"power:{rng.randint(20, 150) / 100}"


def survey_slices(seed: int) -> Inputs:
    rng = random.Random(seed)
    out = Inputs()
    slices = [("starlike", n, None, index) for n, index in zip(STARLIKE_SLICES, STARLIKE_INDICES)]
    slices += [("generalized", n, r, index)
               for (n, r), index in zip(GENERALIZED_SLICES, GENERALIZED_INDICES)]
    spec_total = 0
    for family, n, r, index in slices:
        if index == "power":
            index = _power_index(rng)
        specs = ref.family_specs(family, n, r)
        spec_total += len(specs)
        found = ref.collisions(specs, ref.padded_profiles(specs, index), index)
        out.add_job(
            {"kind": "survey", "family": family, "n": n, "r": r, "index": index},
            {"specs": len(specs), "pairs": len(specs) * (len(specs) - 1) // 2,
             "collisions": sorted(found)},
        )
    for index in CONDITION_INDICES:
        for family in ("starlike", "generalized"):
            out.add_job(
                {"kind": "conditions", "family": family, "index": index,
                 "x_max": CONDITION_X_MAX, "t_max": CONDITION_T_MAX},
                list(ref.condition_flags(index, family, CONDITION_X_MAX, CONDITION_T_MAX,
                                         CONDITION_TOL)),
            )
    out.sizes = {"slices": len(slices), "specs": spec_total, "condition_x_max": CONDITION_X_MAX}
    return out


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree with two or more vertices of degree >= 3.

    Each vertex joins a uniformly chosen earlier one. Unlike uniform labelled
    trees, whose diameter and path-length sum vary widely, these trees all
    cost about the same to enumerate, so the median job holds still.
    """
    while True:
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        if sum(d >= 3 for d in degree) >= 2:
            return edges


def edge_list_text(rng: random.Random, n: int, edges, label: str) -> str:
    """Edge-list file with vertices relabelled and edges shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [f"{perm[a]} {perm[b]}" for a, b in edges]
    rng.shuffle(rows)
    return f"# {label}\n{n} {len(edges)}\n" + "\n".join(rows) + "\n"


def distinct_lengths(rng: random.Random, count: int, total: int) -> list[int]:
    """count distinct branch lengths summing to total.

    Every path through the clique ends somewhere on the tree, so the tree's
    size, not its shape, sets the enumeration cost.
    """
    while True:
        lengths = rng.sample(range(1, total), count)
        if sum(lengths) == total:
            return lengths


def enumerate_graphs(seed: int) -> Inputs:
    rng = random.Random(seed)
    out = Inputs()
    for i in range(TREE_COUNT):
        edges = random_tree(rng, TREE_VERTICES)
        index = INDICES[i % len(INDICES)]
        adj = ref.adjacency(TREE_VERTICES, edges)
        classes = ref.tree_classes(adj, [len(a) for a in adj])
        rho = ref.longest_order(classes)
        path = f"graphs/tree-{i}.txt"
        out.files[path] = edge_list_text(rng, TREE_VERTICES, edges, "random tree")
        out.add_job({"kind": "graph_profile", "graph": path, "index": index},
                    {"rho": rho, "values": _json_number_list(ref.profile_values(classes, index, rho))})
    cliques = [7] * K7_COUNT + [8]
    for i, clique in enumerate(cliques):
        spec = ref.spec_from_lengths(distinct_lengths(rng, 4, TAIL_VERTICES), clique)
        n, edges = ref.realize(spec)
        index = INDICES[(i + 1) % len(INDICES)]
        rho = ref.longest_path(spec)
        values = _json_number_list(ref.profile_values(ref.spec_classes(spec), index, rho))
        path = f"graphs/clique{clique}-{i}.txt"
        out.files[path] = edge_list_text(rng, n, edges, f"K{clique} coalesced tree")
        spec_path = out.add_spec(f"clique{clique}-{i}", spec)
        out.add_job({"kind": "graph_profile", "graph": path, "index": index},
                    {"rho": rho, "values": values})
        if clique == 7:
            out.add_job({"kind": "verify", "graph": path, "spec": spec_path, "index": index},
                        values)
    spec = ref.spec_from_lengths(distinct_lengths(rng, 3, TAIL_VERTICES), BUDGET_CLIQUE)
    n, edges = ref.realize(spec)
    path = "graphs/dense.txt"
    out.files[path] = edge_list_text(rng, n, edges, f"K{BUDGET_CLIQUE} coalesced tree")
    out.add_job({"kind": "budget", "graph": path, "max_order": ref.longest_path(spec),
                 "budget": SMALL_BUDGET}, "BudgetExceededError")
    out.sizes = {"trees": TREE_COUNT, "tree_vertices": TREE_VERTICES, "cliques": cliques,
                 "budget_clique": BUDGET_CLIQUE}
    return out


def cli_commands(seed: int) -> Inputs:
    rng = random.Random(seed)
    out = Inputs()
    star = random_spec(rng, rng.randint(8, 10), None, branches=3)
    files = {
        "a": out.add_spec("a", star),
        "b": out.add_spec("b", neighbour(rng, star)),
    }
    coal = random_spec(rng, 8, 4, branches=3)
    files["g"] = out.add_spec("g", coal)
    files["g2"] = out.add_spec("g2", neighbour(rng, coal))
    tree_n = 14
    out.files["graphs/tree.txt"] = edge_list_text(rng, tree_n, random_tree(rng, tree_n), "tree")
    out.files["graphs/star.txt"] = edge_list_text(rng, *ref.realize(star), "starlike tree")
    out.files["graphs/bad.txt"] = "3 3\n0 1\n1 2\n"
    out.files["specs/bad.json"] = '{"branches": [{"length": 2, "count": 3}\n'
    out.files["specs/two.json"] = json.dumps(ref.spec_doc(ref.spec_from_lengths([2, 3]))) + "\n"
    order = rng.randint(2, 6)
    power = _power_index(rng)
    commands = [
        (["invariant", "--starlike", "@a", "--index", "connectivity", "--order", str(order)], 0),
        (["invariant", "--graph", "@graphs/tree.txt", "--index", "sum-connectivity", "--order", "2"], 0),
        (["profile", "--starlike", "@a", "--index", "sum-connectivity"], 0),
        (["profile", "--graph", "@graphs/tree.txt", "--index", "hyper-zagreb", "--format", "csv"], 0),
        (["census", "--generalized", "@g", "--order", str(order), "--format", "csv"], 0),
        (["census", "--graph", "@graphs/tree.txt", "--order", "2"], 0),
        (["verify", "--generalized", "@g", "--index", "connectivity"], 0),
        (["verify", "--starlike", "@a", "--index", "path-count", "--format", "csv"], 0),
        (["reconstruct", "--starlike", "@a", "--index", "connectivity", "--output", "@out/rec.json"], 0),
        (["reconstruct", "--graph", "@graphs/star.txt", "--index", "hyper-zagreb"], 0),
        (["distinguish", "--starlike", "@a", "--starlike", "@b", "--index", "path-count"], 0),
        (["distinguish", "--generalized", "@g", "--generalized", "@g2", "--index", power], 0),
        (["check-conditions", "--theorem", "7", "--index", "connectivity", "--x-max", "64"], 0),
        (["check-conditions", "--theorem", "8", "--index", power, "--format", "csv"], 0),
        (["survey", "--family", "starlike", "--size", "12", "--index", "connectivity"], 0),
        (["survey", "--family", "generalized", "--size", "12", "--max-degree", "7",
          "--index", "path-count", "--output", "@out/survey.json"], 0),
        (["profile", "--graph", "@graphs/bad.txt", "--index", "connectivity"], 1),
        (["reconstruct", "--starlike", "@specs/bad.json", "--index", "connectivity"], 1),
        (["census", "--starlike", "@specs/two.json", "--order", "2"], 1),
        (["invariant", "--starlike", "@specs/missing.json", "--index", "connectivity",
          "--order", "2"], 1),
    ]
    for argv, code in commands:
        argv = [files.get(a[1:], a[1:]) if a.startswith("@") else a for a in argv]
        out.add_job({"kind": "cli", "argv": argv, "expect_code": code}, code)
    out.sizes = {"commands": len(commands)}
    return out


GENERATORS = {
    "closed_form_deep": closed_form_deep,
    "survey_slices": survey_slices,
    "enumerate_graphs": enumerate_graphs,
    "cli_commands": cli_commands,
}


def generate(workload: str, seed: int) -> Inputs:
    return GENERATORS[workload](seed)


def write(inputs: Inputs, directory: str) -> None:
    """Write the files, jobs.json and expected.json under directory."""
    docs = dict(inputs.files)
    docs["jobs.json"] = json.dumps(inputs.jobs, indent=1, sort_keys=True) + "\n"
    docs["expected.json"] = json.dumps(inputs.expected, sort_keys=True) + "\n"
    for rel, text in docs.items():
        path = os.path.join(directory, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    os.makedirs(os.path.join(directory, "out"), exist_ok=True)
