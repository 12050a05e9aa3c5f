"""The constraint implication & satisfiability engine.

This module owns the population-inclusion graph of a schema (one
labeled graph per schema version, shared through a memo) and the one
emptiness solver over it.  The solver runs in two steps:

* :func:`set_algebraic_closure` — the exclusion-seeded closure that
  RIDL-A's consistency function (:mod:`repro.analyzer.consistency`)
  projects into its report: which roles, sublinks and object types
  the set-algebraic constraints force empty, each with its proof;
* :func:`check_implications` — a saturation pass that starts from
  that closure, adds the frequency and value seeds, and proves typed
  verdicts over the full constraint vocabulary:

* ``IMPLIED`` — a declared constraint already follows from the rest
  of the schema (subset/equality paths through the population-
  inclusion preorder, uniqueness from a ``FrequencyConstraint`` with
  ``maximum <= 1``, frequency bounds subsumed by tighter bounds or by
  uniqueness, value domains containing another value domain);
* ``CONTRADICTION`` — the constraint set admits no valid non-empty
  state (disjoint frequency intervals on one role, uniqueness against
  ``minimum > 1``, disjoint value domains on one lexical type, an
  object type forced empty by exclusion + totality);
* ``FORCED_EMPTY`` — a role or sublink that can never be populated
  (the constraint machinery over it is dead weight).

Every verdict carries a :class:`~repro.analyzer.proofs.Proof`: the
minimal chain of structural facts and implying constraints it follows
from, reconstructable as an unsat-core-style witness.  Consumers:
RIDL-A's consistency diagnostics, the ``IMP4xx`` lint family and
BRM017 render the chains, the executor prunes checker queries for
proven-implied rules, the workload generators fail fast on
contradictions, and the advisor reports implied counts per candidate
design.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.analyzer.cache import memoized_on_schema_version
from repro.analyzer.proofs import Proof, ProofStep
from repro.brm.constraints import (
    ConstraintItem,
    EqualityConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.facts import RoleId
from repro.brm.schema import BinarySchema
from repro.errors import PopulationError
from repro.observability.tracer import span as _obs_span

# Node encodings: ("role", fact, role), ("type", name), ("sublink", name)
Node = tuple


def _role_node(role_id: RoleId) -> Node:
    return ("role", role_id.fact, role_id.role)


def _type_node(name: str) -> Node:
    return ("type", name)


def _sublink_node(name: str) -> Node:
    return ("sublink", name)


def _item_node(item: ConstraintItem) -> Node:
    if isinstance(item, RoleId):
        return _role_node(item)
    return _sublink_node(item.sublink)


def _render_node(node: Node) -> str:
    if node[0] == "role":
        return f"role {node[1]}.{node[2]}"
    if node[0] == "sublink":
        return f"sublink {node[1]}"
    return f"object type {node[1]}"


class VerdictKind(Enum):
    """The three verdict types of the saturation pass."""

    IMPLIED = "implied"
    CONTRADICTION = "contradiction"
    FORCED_EMPTY = "forced-empty"


@dataclass(frozen=True)
class Verdict:
    """One proven fact about the schema's constraint set.

    ``subject`` is the constraint name for ``IMPLIED``, the object
    type / ``fact.role`` / sublink name for emptiness verdicts, and
    the conflicting site for ``CONTRADICTION``.  ``category`` is the
    fine-grained finding class the lint rules dispatch on.
    """

    kind: VerdictKind
    category: str
    subject: str
    proof: Proof

    def sort_key(self) -> tuple[str, str, str, str]:
        return (
            self.kind.value,
            self.category,
            self.subject,
            self.proof.conclusion,
        )


#: ``category`` values, by verdict kind (the lint family's dispatch).
IMPLIED_CATEGORIES = (
    "subset", "equality", "uniqueness", "frequency", "value",
)
CONTRADICTION_CATEGORIES = (
    "frequency-conflict", "value-conflict", "empty-type",
)
FORCED_EMPTY_CATEGORIES = ("empty-role", "empty-sublink")


@dataclass(frozen=True)
class ImplicationResult:
    """Everything the saturation pass proved, in deterministic order."""

    schema_name: str
    verdicts: tuple[Verdict, ...]

    def of_kind(self, kind: VerdictKind) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.kind is kind)

    @property
    def implied(self) -> tuple[Verdict, ...]:
        """Constraints that follow from the rest of the schema."""
        return self.of_kind(VerdictKind.IMPLIED)

    @property
    def contradictions(self) -> tuple[Verdict, ...]:
        """Verdicts that make the constraint set unsatisfiable."""
        return self.of_kind(VerdictKind.CONTRADICTION)

    @property
    def forced_empty(self) -> tuple[Verdict, ...]:
        """Roles/sublinks that can never be populated."""
        return self.of_kind(VerdictKind.FORCED_EMPTY)

    @property
    def is_satisfiable(self) -> bool:
        """True when no contradiction was proven."""
        return not self.contradictions

    def implied_for(self, constraint_name: str) -> Verdict | None:
        """The ``IMPLIED`` verdict on a constraint, if one was proven."""
        for verdict in self.implied:
            if verdict.subject == constraint_name:
                return verdict
        return None


# ----------------------------------------------------------------------
# The labeled population-inclusion graph
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Edge:
    """One inclusion ``source <= target`` with its justification."""

    target: Node
    statement: str
    premise: str | None  # constraint name; None for structural facts

    def step(self) -> ProofStep:
        return ProofStep(self.statement, self.premise)


def _inc(sub: Node, sup: Node, why: str) -> str:
    return f"pop({_render_node(sub)}) <= pop({_render_node(sup)}): {why}"


class _LabeledGraph:
    """The population-inclusion preorder with per-edge origins.

    * a role's population is included in its player's population;
    * a subtype's population is included in its supertype's;
    * a sublink's population equals its subtype's;
    * subset constraints give inclusions, equality constraints give
      inclusions both ways;
    * a total role on T (single-item total union) makes pop(T) a
      subset of the role's population.

    Every edge remembers *which* constraint or structural fact
    justifies it, so path searches reconstruct proof chains and can
    exclude one constraint's own edges (the implication test: does the
    inclusion still hold without the constraint under test?).
    Immutable once built apart from the lower-bound cache, which is
    what lets :func:`labeled_graph_for` share one graph per schema
    version.
    """

    def __init__(self, schema: BinarySchema) -> None:
        self.schema = schema
        self.edges: dict[Node, list[_Edge]] = {}
        # empties[y] = [(x, statement, premise)]: empty(y) empties x.
        self.empties: dict[Node, list[tuple[Node, str, str | None]]] = {}
        # into[y] = [(x, edge)] for every edge x <= y (the reverse
        # adjacency of the lower-bound search), built once.
        self.into: dict[Node, list[tuple[Node, _Edge]]] = {}
        self._lower_cache: dict[Node, dict[Node, tuple[ProofStep, ...]]] = {}
        self._build()

    def _add_edge(
        self, sub: Node, sup: Node, statement: str, premise: str | None
    ) -> None:
        self.edges.setdefault(sub, []).append(_Edge(sup, statement, premise))
        # Inclusion implies downward emptiness propagation.
        self.empties.setdefault(sup, []).append((sub, statement, premise))

    def _build(self) -> None:
        schema = self.schema
        for fact in schema.fact_types:
            first, second = fact.role_ids
            for role_id, player in (
                (first, fact.first.player),
                (second, fact.second.player),
            ):
                node = _role_node(role_id)
                self._add_edge(
                    node,
                    _type_node(player),
                    _inc(node, _type_node(player),
                         "a role's population is included in its player's"),
                    None,
                )
            both = (
                f"one empty role of fact type {fact.name!r} empties the "
                "other (every fact instance populates both roles)"
            )
            self.empties.setdefault(_role_node(first), []).append(
                (_role_node(second), both, None)
            )
            self.empties.setdefault(_role_node(second), []).append(
                (_role_node(first), both, None)
            )
        for sublink in schema.sublinks:
            sub_type = _type_node(sublink.subtype)
            super_type = _type_node(sublink.supertype)
            link = _sublink_node(sublink.name)
            self._add_edge(
                sub_type, super_type,
                _inc(sub_type, super_type,
                     f"subtype inclusion via sublink {sublink.name!r}"),
                None,
            )
            equal = "a sublink's population equals its subtype's"
            self._add_edge(link, sub_type, _inc(link, sub_type, equal), None)
            self._add_edge(sub_type, link, _inc(sub_type, link, equal), None)
        for constraint in schema.constraints:
            if isinstance(constraint, SubsetConstraint):
                sub = _item_node(constraint.subset)
                sup = _item_node(constraint.superset)
                self._add_edge(
                    sub, sup,
                    _inc(sub, sup, "declared subset"),
                    constraint.name,
                )
            elif isinstance(constraint, EqualityConstraint):
                nodes = [_item_node(item) for item in constraint.items]
                for left, right in itertools.combinations(nodes, 2):
                    why = "declared equal"
                    self._add_edge(
                        left, right, _inc(left, right, why), constraint.name
                    )
                    self._add_edge(
                        right, left, _inc(right, left, why), constraint.name
                    )
            elif isinstance(constraint, TotalUnionConstraint):
                if len(constraint.items) == 1:
                    type_node = _type_node(constraint.object_type)
                    item = _item_node(constraint.items[0])
                    self._add_edge(
                        type_node, item,
                        _inc(type_node, item,
                             "total role: every instance participates"),
                        constraint.name,
                    )
        for source, edges in self.edges.items():
            for edge in edges:
                self.into.setdefault(edge.target, []).append((source, edge))

    def find_path(
        self, start: Node, goal: Node, *, exclude: str | None = None
    ) -> tuple[ProofStep, ...] | None:
        """A shortest inclusion chain ``start <= ... <= goal``.

        Edges justified *only* by the ``exclude`` constraint are
        unusable — the implication test must not assume the constraint
        under test.  Returns the proof steps, or ``None``.
        """
        if start == goal:
            return ()
        parent: dict[Node, tuple[Node, _Edge] | None] = {start: None}
        queue: deque[Node] = deque((start,))
        while queue:
            node = queue.popleft()
            for edge in self.edges.get(node, ()):
                if exclude is not None and edge.premise == exclude:
                    continue
                if edge.target in parent:
                    continue
                parent[edge.target] = (node, edge)
                if edge.target == goal:
                    steps: list[ProofStep] = []
                    cursor: Node = goal
                    while True:
                        entry = parent[cursor]
                        if entry is None:
                            break
                        previous, used = entry
                        steps.append(used.step())
                        cursor = previous
                    return tuple(reversed(steps))
                queue.append(edge.target)
        return None

    def lower_bound_paths(
        self, node: Node
    ) -> dict[Node, tuple[ProofStep, ...]]:
        """Every ``x`` with ``pop(x) <= pop(node)``, with its chain.

        Reverse BFS over the inclusion edges; the node itself is a
        lower bound with an empty chain.  Cached per node (the
        exclusion seeding probes the same items repeatedly).
        """
        cached = self._lower_cache.get(node)
        if cached is not None:
            return cached
        paths: dict[Node, tuple[ProofStep, ...]] = {node: ()}
        queue: deque[Node] = deque((node,))
        while queue:
            current = queue.popleft()
            for source, edge in self.into.get(current, ()):
                if source in paths:
                    continue
                paths[source] = (edge.step(),) + paths[current]
                queue.append(source)
        self._lower_cache[node] = paths
        return paths


# A short memo: a graph is shared while one schema version is analyzed,
# saturated and linted, then dropped.  Keeping 64 of them (the default)
# doubles the live heap of an advisor run, one graph per candidate.
@memoized_on_schema_version(maxsize=4)
def labeled_graph_for(schema: BinarySchema) -> _LabeledGraph:
    """The (shared, read-only) inclusion graph for this schema version."""
    return _LabeledGraph(schema)


def _dedupe(steps) -> tuple[ProofStep, ...]:
    """Steps deduplicated preserving first occurrence."""
    seen: dict[ProofStep, None] = {}
    for step in steps:
        seen.setdefault(step)
    return tuple(seen)


def _role_subject(role_id: RoleId) -> str:
    return f"{role_id.fact}.{role_id.role}"


def _node_subject(node: Node) -> str:
    if node[0] == "role":
        return f"{node[1]}.{node[2]}"
    return node[1]


def _effective_interval(
    constraint: FrequencyConstraint,
) -> tuple[int, int | None] | None:
    """The play-count interval over *participating* instances.

    Clipped to ``>= 1`` (an instance that plays at all plays at least
    once); ``None`` when the bound admits no participation at all —
    the ``maximum == 0`` "never plays" form.
    """
    low = max(constraint.minimum, 1)
    if constraint.maximum is not None and constraint.maximum < low:
        return None
    return (low, constraint.maximum)


def _interval_text(constraint: FrequencyConstraint) -> str:
    upper = "N" if constraint.maximum is None else str(constraint.maximum)
    return f"[{constraint.minimum}..{upper}]"


# ----------------------------------------------------------------------
# The saturation pass
# ----------------------------------------------------------------------


@memoized_on_schema_version()
def set_algebraic_closure(schema: BinarySchema) -> dict[Node, Proof]:
    """Every node the set-algebraic constraints force empty, with proof.

    Exclusion constraints seed the emptiness of every common lower
    bound of two of their items; the seeds then propagate down the
    inclusion preorder, across fact types and through total unions.
    Memoized on the schema version stamp and shared: treat the mapping
    as read-only.
    """
    graph = labeled_graph_for(schema)
    empty: dict[Node, Proof] = {}
    worklist: list[Node] = []
    _exclusion_seeds(schema, graph, _seeder(empty, worklist))
    _propagate_emptiness(schema, graph, empty, worklist)
    return empty


@memoized_on_schema_version()
def check_implications(schema: BinarySchema) -> ImplicationResult:
    """Prove implication, contradiction and forced-emptiness verdicts.

    Memoized on the schema version stamp — consumers (lint, executor
    pruning, generator guards, advisor) share one saturation run per
    schema state.
    """
    with _obs_span("analyzer.implication", schema=schema.name):
        return _saturate(schema)


def _seeder(empty: dict[Node, Proof], worklist: list[Node]):
    """A ``seed(node, proof)`` that keeps the first proof per node."""

    def seed(node: Node, proof: Proof) -> None:
        if node not in empty:
            empty[node] = proof
            worklist.append(node)

    return seed


def _saturate(schema: BinarySchema) -> ImplicationResult:
    graph = labeled_graph_for(schema)
    verdicts: list[Verdict] = []

    freq_by_role: dict[RoleId, list[FrequencyConstraint]] = {}
    unique_by_role: dict[RoleId, UniquenessConstraint] = {}
    values_by_type: dict[str, list[ValueConstraint]] = {}
    for constraint in schema.constraints:
        if isinstance(constraint, FrequencyConstraint):
            freq_by_role.setdefault(constraint.role, []).append(constraint)
        elif isinstance(constraint, UniquenessConstraint):
            if constraint.is_simple:
                unique_by_role.setdefault(constraint.roles[0], constraint)
        elif isinstance(constraint, ValueConstraint):
            values_by_type.setdefault(
                constraint.object_type, []
            ).append(constraint)

    verdicts.extend(
        _implied_verdicts(
            schema, graph, freq_by_role, unique_by_role, values_by_type
        )
    )

    # Start from the set-algebraic closure, then add the frequency and
    # value seeds and close again.
    empty = dict(set_algebraic_closure(schema))
    worklist: list[Node] = []
    seed = _seeder(empty, worklist)
    verdicts.extend(
        _frequency_conflicts(freq_by_role, unique_by_role, seed)
    )
    verdicts.extend(_value_conflicts(values_by_type, seed))
    _propagate_emptiness(schema, graph, empty, worklist)

    for node, proof in sorted(empty.items(), key=lambda kv: repr(kv[0])):
        if node[0] == "type":
            verdicts.append(
                Verdict(
                    VerdictKind.CONTRADICTION, "empty-type",
                    node[1], proof,
                )
            )
        elif node[0] == "role":
            verdicts.append(
                Verdict(
                    VerdictKind.FORCED_EMPTY, "empty-role",
                    _node_subject(node), proof,
                )
            )
        else:
            verdicts.append(
                Verdict(
                    VerdictKind.FORCED_EMPTY, "empty-sublink",
                    node[1], proof,
                )
            )

    return ImplicationResult(
        schema_name=schema.name,
        verdicts=tuple(sorted(verdicts, key=Verdict.sort_key)),
    )


def _implied_verdicts(
    schema, graph, freq_by_role, unique_by_role, values_by_type
):
    """IMPLIED verdicts, one pass over the declared constraints."""
    for constraint in schema.constraints:
        if isinstance(constraint, SubsetConstraint):
            sub = _item_node(constraint.subset)
            sup = _item_node(constraint.superset)
            steps = graph.find_path(sub, sup, exclude=constraint.name)
            if steps is not None:
                yield Verdict(
                    VerdictKind.IMPLIED, "subset", constraint.name,
                    Proof(
                        f"subset constraint {constraint.name!r} "
                        f"({_render_node(sub)} in {_render_node(sup)}) is "
                        "implied by the rest of the schema",
                        _dedupe(steps),
                    ),
                )
        elif isinstance(constraint, EqualityConstraint):
            nodes = [_item_node(item) for item in constraint.items]
            collected: list[ProofStep] = []
            complete = True
            # A cycle through every item proves pairwise equality.
            for left, right in zip(nodes, nodes[1:] + nodes[:1]):
                steps = graph.find_path(left, right, exclude=constraint.name)
                if steps is None:
                    complete = False
                    break
                collected.extend(steps)
            if complete:
                yield Verdict(
                    VerdictKind.IMPLIED, "equality", constraint.name,
                    Proof(
                        f"equality constraint {constraint.name!r} is "
                        "implied: its items form an inclusion cycle "
                        "without it",
                        _dedupe(collected),
                    ),
                )
        elif isinstance(constraint, UniquenessConstraint):
            if not constraint.is_simple:
                continue
            role_id = constraint.roles[0]
            for frequency in freq_by_role.get(role_id, ()):
                if frequency.maximum is not None and frequency.maximum <= 1:
                    yield Verdict(
                        VerdictKind.IMPLIED, "uniqueness", constraint.name,
                        Proof(
                            f"uniqueness constraint {constraint.name!r} on "
                            f"role {_role_subject(role_id)} is implied",
                            (
                                ProofStep(
                                    "each participating instance plays "
                                    f"role {_role_subject(role_id)} at most "
                                    f"{frequency.maximum} time(s) "
                                    f"({_interval_text(frequency)})",
                                    frequency.name,
                                ),
                            ),
                        ),
                    )
                    break
        elif isinstance(constraint, FrequencyConstraint):
            verdict = _implied_frequency(
                constraint, freq_by_role, unique_by_role
            )
            if verdict is not None:
                yield verdict
        elif isinstance(constraint, ValueConstraint):
            domain = set(constraint.values)
            for other in values_by_type.get(constraint.object_type, ()):
                if other.name == constraint.name:
                    continue
                if set(other.values) <= domain:
                    yield Verdict(
                        VerdictKind.IMPLIED, "value", constraint.name,
                        Proof(
                            f"value constraint {constraint.name!r} on "
                            f"{constraint.object_type!r} is implied",
                            (
                                ProofStep(
                                    f"{other.name!r} already restricts "
                                    f"{constraint.object_type!r} to a "
                                    "subset of these values",
                                    other.name,
                                ),
                            ),
                        ),
                    )
                    break


def _implied_frequency(constraint, freq_by_role, unique_by_role):
    role_id = constraint.role
    subject = _role_subject(role_id)
    if constraint.minimum <= 1 and constraint.maximum is None:
        return Verdict(
            VerdictKind.IMPLIED, "frequency", constraint.name,
            Proof(
                f"frequency constraint {constraint.name!r} "
                f"({_interval_text(constraint)} on role {subject}) is "
                "vacuous",
                (
                    ProofStep(
                        "every participating instance plays the role at "
                        "least once by definition, and no upper bound is "
                        "declared",
                    ),
                ),
            ),
        )
    for other in freq_by_role.get(role_id, ()):
        if other.name == constraint.name:
            continue
        tighter_low = other.minimum >= constraint.minimum
        tighter_high = constraint.maximum is None or (
            other.maximum is not None
            and other.maximum <= constraint.maximum
        )
        if tighter_low and tighter_high:
            return Verdict(
                VerdictKind.IMPLIED, "frequency", constraint.name,
                Proof(
                    f"frequency constraint {constraint.name!r} "
                    f"({_interval_text(constraint)} on role {subject}) is "
                    "implied by a tighter bound",
                    (
                        ProofStep(
                            f"{other.name!r} bounds the same role to "
                            f"{_interval_text(other)}, inside "
                            f"{_interval_text(constraint)}",
                            other.name,
                        ),
                    ),
                ),
            )
    unique = unique_by_role.get(role_id)
    if (
        unique is not None
        and constraint.minimum <= 1
        and constraint.maximum is not None
        and constraint.maximum >= 1
    ):
        return Verdict(
            VerdictKind.IMPLIED, "frequency", constraint.name,
            Proof(
                f"frequency constraint {constraint.name!r} "
                f"({_interval_text(constraint)} on role {subject}) is "
                "implied by uniqueness",
                (
                    ProofStep(
                        f"{unique.name!r} makes each instance play role "
                        f"{subject} at most once",
                        unique.name,
                    ),
                ),
            ),
        )
    return None


def _frequency_conflicts(freq_by_role, unique_by_role, seed):
    """Disjoint frequency intervals and uniqueness-vs-minimum clashes.

    Each conflict is a ``CONTRADICTION`` (no instance can play the
    role at all) and seeds the role's forced emptiness; the lone
    ``maximum == 0`` "never plays" bound only seeds emptiness — it is
    a legal way to retire a role, not a modeling clash.
    """
    for role_id in sorted(freq_by_role, key=str):
        constraints = freq_by_role[role_id]
        subject = _role_subject(role_id)
        node = _role_node(role_id)
        live = []
        for constraint in constraints:
            if _effective_interval(constraint) is None:
                seed(
                    node,
                    Proof(
                        f"pop(role {subject}) is forced empty: the role "
                        "is never played",
                        (
                            ProofStep(
                                f"{constraint.name!r} bounds the role to "
                                f"{_interval_text(constraint)} — no "
                                "instance may play it",
                                constraint.name,
                            ),
                        ),
                    ),
                )
            else:
                live.append(constraint)
        for first, second in itertools.combinations(live, 2):
            low_a, high_a = _effective_interval(first)
            low_b, high_b = _effective_interval(second)
            low = max(low_a, low_b)
            high = high_a if high_b is None else (
                high_b if high_a is None else min(high_a, high_b)
            )
            if high is not None and low > high:
                proof = Proof(
                    f"frequency constraints on role {subject} admit no "
                    "common play count",
                    (
                        ProofStep(
                            f"{first.name!r} requires "
                            f"{_interval_text(first)} plays",
                            first.name,
                        ),
                        ProofStep(
                            f"{second.name!r} requires "
                            f"{_interval_text(second)} plays",
                            second.name,
                        ),
                    ),
                )
                yield Verdict(
                    VerdictKind.CONTRADICTION, "frequency-conflict",
                    subject, proof,
                )
                seed(
                    node,
                    proof.extended(
                        f"pop(role {subject}) is forced empty: no play "
                        "count satisfies both bounds",
                    ),
                )
        unique = unique_by_role.get(role_id)
        if unique is None:
            continue
        for constraint in live:
            if constraint.minimum > 1:
                proof = Proof(
                    f"role {subject} cannot satisfy both its uniqueness "
                    "bar and its frequency minimum",
                    (
                        ProofStep(
                            f"{unique.name!r} makes each instance play "
                            "the role at most once",
                            unique.name,
                        ),
                        ProofStep(
                            f"{constraint.name!r} requires at least "
                            f"{constraint.minimum} plays",
                            constraint.name,
                        ),
                    ),
                )
                yield Verdict(
                    VerdictKind.CONTRADICTION, "frequency-conflict",
                    subject, proof,
                )
                seed(
                    node,
                    proof.extended(
                        f"pop(role {subject}) is forced empty: no play "
                        "count satisfies both constraints",
                    ),
                )


def _value_conflicts(values_by_type, seed):
    """Disjoint enumerated domains on one lexical type."""
    for type_name in sorted(values_by_type):
        for first, second in itertools.combinations(
            values_by_type[type_name], 2
        ):
            if set(first.values) & set(second.values):
                continue
            proof = Proof(
                f"value constraints on {type_name!r} enumerate disjoint "
                "domains — no instance satisfies both",
                (
                    ProofStep(
                        f"{first.name!r} restricts {type_name!r} to "
                        f"{tuple(first.values)!r}",
                        first.name,
                    ),
                    ProofStep(
                        f"{second.name!r} restricts {type_name!r} to "
                        f"{tuple(second.values)!r}",
                        second.name,
                    ),
                ),
            )
            yield Verdict(
                VerdictKind.CONTRADICTION, "value-conflict",
                type_name, proof,
            )
            seed(
                _type_node(type_name),
                proof.extended(
                    f"pop(object type {type_name}) is forced empty: its "
                    "value domain is empty",
                ),
            )


def _exclusion_seeds(schema, graph, seed):
    """Exclusion empties every common lower bound of two items."""
    for constraint in schema.exclusions():
        nodes = [_item_node(item) for item in constraint.items]
        for left, right in itertools.combinations(nodes, 2):
            left_paths = graph.lower_bound_paths(left)
            right_paths = graph.lower_bound_paths(right)
            common = sorted(set(left_paths) & set(right_paths), key=repr)
            for node in common:
                disjoint = ProofStep(
                    f"pop({_render_node(left)}) and "
                    f"pop({_render_node(right)}) are disjoint",
                    constraint.name,
                )
                seed(
                    node,
                    Proof(
                        f"pop({_render_node(node)}) is forced empty: "
                        "included in both sides of exclusion "
                        f"{constraint.name!r}",
                        _dedupe(
                            left_paths[node] + right_paths[node]
                            + (disjoint,)
                        ),
                    ),
                )


def _propagate_emptiness(schema, graph, empty, worklist):
    """Close the seeded emptiness over the schema, composing proofs."""
    totals = [c for c in schema.totals() if len(c.items) > 1]
    while True:
        while worklist:
            node = worklist.pop()
            cause = empty[node]
            for affected, statement, premise in graph.empties.get(node, ()):
                if affected in empty:
                    continue
                empty[affected] = cause.extended(
                    f"pop({_render_node(affected)}) is forced empty "
                    f"because pop({_render_node(node)}) is",
                    ProofStep(statement, premise),
                )
                worklist.append(affected)
        # Hyper-rule: a total union whose covering items are all empty
        # empties the constrained object type.
        progressed = False
        for constraint in totals:
            type_node = _type_node(constraint.object_type)
            if type_node in empty:
                continue
            item_nodes = [_item_node(item) for item in constraint.items]
            if not all(node in empty for node in item_nodes):
                continue
            steps: list[ProofStep] = []
            for node in item_nodes:
                steps.extend(empty[node].steps)
            steps.append(
                ProofStep(
                    f"total union {constraint.name!r} covers "
                    f"{constraint.object_type!r} with only empty items",
                    constraint.name,
                )
            )
            empty[type_node] = Proof(
                f"pop(object type {constraint.object_type}) is forced "
                f"empty: total union {constraint.name!r} covers only "
                "empty roles/subtypes",
                _dedupe(steps),
            )
            worklist.append(type_node)
            progressed = True
        if not worklist and not progressed:
            break


def require_satisfiable(schema: BinarySchema) -> ImplicationResult:
    """Raise :class:`~repro.errors.PopulationError` on contradictions.

    The workload generators call this before entering their fill
    fixpoint: an unsatisfiable schema fails fast with the rendered
    contradiction proofs instead of producing a population that can
    never validate.
    """
    result = check_implications(schema)
    if not result.is_satisfiable:
        proofs = "\n".join(
            verdict.proof.render() for verdict in result.contradictions
        )
        raise PopulationError(
            f"schema {schema.name!r} admits no valid population; "
            f"{len(result.contradictions)} contradiction(s) proven:\n"
            f"{proofs}"
        )
    return result
