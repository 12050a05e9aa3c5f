"""Seeded violation mutators — the negative side of losslessness.

:mod:`repro.robustness.faults` breaks the *mapper*; this sibling
breaks the *data*.  For every lossless-rule kind there is one
deterministic, seeded mutator that takes a valid relational dataset
(``relation name -> list of row dicts``) and produces a minimally
mutated copy violating exactly one target rule:

=====================  ============================================
mutator kind           injected defect
=====================  ============================================
``null-breach``        NULL in a mandatory column
``duplicate-key``      a second row under a primary/candidate key
``orphan-foreign-key`` a referencing tuple with no referenced match
``check-breach``       a row falsifying a CHECK predicate
                       (value restriction, dependent/equal
                       existence, ...)
``equality-asymmetry`` one side of a C_EQ$ pair gains a tuple the
                       other side lacks
``subset-leak``        a C_SUB$ subset tuple that escapes the
                       superset view
=====================  ============================================

Surgical injection is *searched*, not assumed: the lossless rules
overlap (a sub-relation's key columns are simultaneously its primary
key, a foreign key source and one side of an equality view), so each
mutator enumerates candidate mutation sites in a seeded deterministic
order and the planner keeps the first candidate whose full-rule check
flags the target rule *and nothing else*.  That check runs on the
in-memory reference backend; the detection matrix then replays the
accepted injections on the SQL backends, where diagonality is an
empirical result rather than a construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.brm.datatypes import DataTypeKind
from repro.relational.constraints import SelectSpec
from repro.relational.schema import RelationalSchema

if TYPE_CHECKING:  # imported lazily at runtime to avoid the cycle
    # robustness -> executor -> harness -> mapper -> robustness
    from repro.executor.compile import CompiledRule

#: Mutator kind -> the compiled-rule kinds it targets, in plan order.
MUTATOR_KINDS: dict[str, tuple[str, ...]] = {
    "null-breach": ("not-null",),
    "duplicate-key": ("primary-key", "candidate-key"),
    "orphan-foreign-key": ("foreign-key",),
    "check-breach": ("check",),
    "equality-asymmetry": ("equality-view",),
    "subset-leak": ("subset-view",),
}

#: Candidate mutation sites examined per rule before giving up.
MAX_CANDIDATES = 48

Dataset = dict[str, list[dict]]


@dataclass(frozen=True)
class Injection:
    """One accepted violation: a mutated dataset plus its target.

    ``touched`` names the relations whose rows differ from the clean
    dataset; the detection matrix uses it to replay the injection by
    replacing (and later restoring) only those relations instead of
    rebuilding the whole database.  Empty when unknown — consumers
    must then fall back to a full reload.
    """

    kind: str
    rule: str
    rule_kind: str
    relation: str
    description: str
    dataset: Dataset
    touched: frozenset[str] = frozenset()


class _CowDataset(dict):
    """A copy-on-write dataset copy.

    Candidate mutations touch one or two relations of a dataset that
    can hold hundreds of thousands of rows; deep-copying every
    relation per candidate made ``--inject`` setup scale with
    (candidates x dataset size).  This copy shares the base row lists
    and deep-copies a relation the first time it is *indexed* —
    every mutator writes through ``mutated[relation]``, so the write
    paths all trigger materialization.  ``touched`` records exactly
    the materialized (hence possibly mutated) relations.
    """

    __slots__ = ("base", "touched")

    def __init__(self, base: Dataset) -> None:
        super().__init__(base)
        self.base = base
        self.touched: set[str] = set()

    def __getitem__(self, name: str) -> list[dict]:
        rows = super().__getitem__(name)
        if name not in self.touched:
            rows = [dict(row) for row in rows]
            super().__setitem__(name, rows)
            self.touched.add(name)
        return rows


def _cow_copy(dataset: Dataset) -> _CowDataset:
    """A copy-on-write copy for the candidate mutators."""
    if isinstance(dataset, _CowDataset):
        # Copy from the shared base so sibling candidates never see
        # each other's mutations.
        return _CowDataset(dataset.base)
    return _CowDataset(dataset)


#: ``id(dataset) -> (dataset, value set)`` for :func:`fresh_value`.
#: Identity-keyed (with an ``is`` re-check against id reuse) because
#: the planner probes the *same* clean dataset hundreds of times —
#: once per freshened column per candidate — and rebuilding the
#: value set each time scaled with (candidates x dataset size).
#: Bounded: cleared once it holds a handful of datasets.
_VALUES_CACHE: dict[int, tuple[Dataset, frozenset]] = {}


def _known_values(dataset: Dataset) -> frozenset:
    """Every non-NULL value appearing anywhere in the dataset."""
    cached = _VALUES_CACHE.get(id(dataset))
    if cached is not None and cached[0] is dataset:
        return cached[1]
    values = frozenset(
        value
        for rows in dataset.values()
        for row in rows
        for value in row.values()
        if value is not None
    )
    if len(_VALUES_CACHE) >= 4:
        _VALUES_CACHE.clear()
    _VALUES_CACHE[id(dataset)] = (dataset, values)
    return values


def fresh_value(
    schema: RelationalSchema,
    relation: str,
    column: str,
    dataset: Dataset,
    offset: int,
):
    """A value of the column's type appearing nowhere in the dataset.

    Typed (integers for integer-like numerics, floats for scaled
    ones, strings otherwise) so the SQL backends accept it into the
    column, and globally fresh so it cannot accidentally match a
    referenced key or a view tuple elsewhere.
    """
    datatype = schema.domain(
        schema.relation(relation).attribute(column).domain
    ).datatype
    everywhere = _known_values(dataset)
    if datatype.kind in (DataTypeKind.NUMERIC, DataTypeKind.INTEGER,
                         DataTypeKind.SMALLINT, DataTypeKind.REAL):
        scaled = (
            datatype.kind is DataTypeKind.REAL
            or (datatype.kind is DataTypeKind.NUMERIC
                and datatype.scale is not None)
        )
        candidate = 900000 + offset
        while candidate in everywhere or float(candidate) in everywhere:
            candidate += 1
        return float(candidate) + 0.5 if scaled else candidate
    candidate = f"viol_{offset}"
    while candidate in everywhere:
        candidate = candidate + "x"
    return candidate


def _row_order(rows: list[dict], rng: random.Random) -> list[int]:
    """A seeded deterministic visiting order over row indices."""
    indices = list(range(len(rows)))
    rng.shuffle(indices)
    return indices


def _other_key_columns(
    schema: RelationalSchema, relation: str, pinned: tuple[str, ...]
) -> list[str]:
    """Key columns of the relation outside the pinned column set."""
    columns: list[str] = []
    for key in schema.keys_of(relation):
        if tuple(key) == tuple(pinned):
            continue
        for column in key:
            if column not in pinned and column not in columns:
                columns.append(column)
    return columns


# ---------------------------------------------------------------------------
# One candidate generator per mutator kind.  Each yields
# ``(dataset, description)`` pairs in a seeded deterministic order;
# the planner verifies them for surgical-ness.
# ---------------------------------------------------------------------------


def _null_breach(schema, rule, dataset, rng) -> Iterator[tuple[Dataset, str]]:
    rows = dataset.get(rule.relation, [])
    for index in _row_order(rows, rng):
        mutated = _cow_copy(dataset)
        mutated[rule.relation][index][rule.column] = None
        yield mutated, (
            f"set {rule.relation}[{index}].{rule.column} to NULL"
        )


def _duplicate_key(schema, rule, dataset, rng) -> Iterator[tuple[Dataset, str]]:
    constraint = rule.constraint
    rows = dataset.get(rule.relation, [])
    others = _other_key_columns(schema, rule.relation, constraint.columns)
    for index in _row_order(rows, rng):
        base = rows[index]
        if any(base.get(c) is None for c in constraint.columns):
            continue
        # (a) re-insert the row with every *other* key freshened, so
        # only the target key collides.
        clone = dict(base)
        for offset, column in enumerate(others):
            clone[column] = fresh_value(
                schema, rule.relation, column, dataset, offset
            )
        mutated = _cow_copy(dataset)
        mutated[rule.relation].append(clone)
        yield mutated, (
            f"duplicated {rule.relation}[{index}] under key "
            f"({', '.join(constraint.columns)})"
        )
        # (b) a verbatim duplicate (surgical when the relation has a
        # single key and no set-valued semantics elsewhere).
        mutated = _cow_copy(dataset)
        mutated[rule.relation].append(dict(base))
        yield mutated, f"re-inserted {rule.relation}[{index}] verbatim"
    # (c) overwrite another row's key with this row's key values.
    for index in _row_order(rows, rng):
        base = rows[index]
        if any(base.get(c) is None for c in constraint.columns):
            continue
        for victim in _row_order(rows, rng):
            if victim == index:
                continue
            mutated = _cow_copy(dataset)
            for column in constraint.columns:
                mutated[rule.relation][victim][column] = base[column]
            yield mutated, (
                f"overwrote {rule.relation}[{victim}] key with "
                f"{rule.relation}[{index}]'s"
            )
            break


def _orphan_foreign_key(
    schema, rule, dataset, rng
) -> Iterator[tuple[Dataset, str]]:
    constraint = rule.constraint
    rows = dataset.get(rule.relation, [])
    others = _other_key_columns(schema, rule.relation, constraint.columns)
    for index in _row_order(rows, rng):
        base = rows[index]
        # (a) a new row whose FK columns reference nothing; other keys
        # freshened so no key rule fires alongside.
        clone = dict(base)
        for offset, column in enumerate(constraint.columns):
            clone[column] = fresh_value(
                schema, rule.relation, column, dataset, offset
            )
        for offset, column in enumerate(others, start=len(constraint.columns)):
            clone[column] = fresh_value(
                schema, rule.relation, column, dataset, offset
            )
        mutated = _cow_copy(dataset)
        mutated[rule.relation].append(clone)
        yield mutated, (
            f"inserted {rule.relation} row with unmatched "
            f"({', '.join(constraint.columns)})"
        )
        # (b) redirect an existing row's FK to a fresh target.
        mutated = _cow_copy(dataset)
        for offset, column in enumerate(constraint.columns):
            mutated[rule.relation][index][column] = fresh_value(
                schema, rule.relation, column, dataset, offset
            )
        yield mutated, (
            f"redirected {rule.relation}[{index}] "
            f"({', '.join(constraint.columns)}) to a fresh target"
        )


def _check_breach(schema, rule, dataset, rng) -> Iterator[tuple[Dataset, str]]:
    predicate = rule.constraint.predicate
    rows = dataset.get(rule.relation, [])
    for index in _row_order(rows, rng):
        base = rows[index]
        for column in sorted(predicate.columns()):
            for value in (
                None,
                fresh_value(schema, rule.relation, column, dataset, 0),
            ):
                candidate = dict(base)
                candidate[column] = value
                if predicate.evaluate(candidate):
                    continue  # still satisfied — not a breach
                mutated = _cow_copy(dataset)
                mutated[rule.relation][index] = candidate
                yield mutated, (
                    f"set {rule.relation}[{index}].{column} to "
                    f"{value!r}, falsifying the CHECK"
                )


def _spec_mutations(
    schema, spec: SelectSpec, dataset, rng
) -> Iterator[tuple[Dataset, str]]:
    """Datasets where ``spec``'s tuple set gains a fresh member."""
    rows = dataset.get(spec.relation, [])
    for index in _row_order(rows, rng):
        base = rows[index]
        candidate = dict(base)
        for offset, column in enumerate(spec.columns):
            candidate[column] = fresh_value(
                schema, spec.relation, column, dataset, offset
            )
        if spec.where is not None and not spec.where.evaluate(candidate):
            continue
        # (a) in-place: the row now projects to a fresh tuple.
        mutated = _cow_copy(dataset)
        mutated[spec.relation][index] = candidate
        yield mutated, (
            f"rewrote {spec.relation}[{index}] "
            f"({', '.join(spec.columns)}) to a fresh tuple"
        )
        # (b) as a new row (other keys freshened to stay surgical).
        clone = dict(candidate)
        for offset, column in enumerate(
            _other_key_columns(schema, spec.relation, spec.columns),
            start=len(spec.columns),
        ):
            clone[column] = fresh_value(
                schema, spec.relation, column, dataset, offset
            )
        mutated = _cow_copy(dataset)
        mutated[spec.relation].append(clone)
        yield mutated, (
            f"inserted a {spec.relation} row projecting to a fresh "
            f"({', '.join(spec.columns)}) tuple"
        )


def _equality_asymmetry(
    schema, rule, dataset, rng
) -> Iterator[tuple[Dataset, str]]:
    constraint = rule.constraint
    for spec, side in ((constraint.right, "right"), (constraint.left, "left")):
        for mutated, description in _spec_mutations(
            schema, spec, dataset, rng
        ):
            yield mutated, f"[{side} side] {description}"


def _subset_leak(schema, rule, dataset, rng) -> Iterator[tuple[Dataset, str]]:
    constraint = rule.constraint
    # (a/b) the subset side gains a tuple the superset lacks.
    yield from _spec_mutations(schema, constraint.subset, dataset, rng)
    # (c) a superset witness disappears, stranding a subset tuple.
    spec = constraint.superset
    rows = dataset.get(spec.relation, [])
    for index in _row_order(rows, rng):
        row = rows[index]
        if spec.where is not None and not spec.where.evaluate(row):
            continue
        mutated = _cow_copy(dataset)
        del mutated[spec.relation][index]
        yield mutated, (
            f"deleted superset witness {spec.relation}[{index}]"
        )


MUTATORS: dict[str, Callable] = {
    "null-breach": _null_breach,
    "duplicate-key": _duplicate_key,
    "orphan-foreign-key": _orphan_foreign_key,
    "check-breach": _check_breach,
    "equality-asymmetry": _equality_asymmetry,
    "subset-leak": _subset_leak,
}


def default_verifier(
    schema: RelationalSchema, rules: tuple[CompiledRule, ...]
) -> Callable[[Dataset], set[str]]:
    """An incremental full-rule checker on the in-memory backend.

    Copy-on-write candidates (:class:`_CowDataset`) are checked
    against a *cached* load of their clean base: the baseline
    database (and its violation set) is built once per base dataset,
    and each candidate forks it by sharing the untouched tables and
    re-loading only the touched ones.  On the fork, only rules whose
    dependency relations (:attr:`CompiledRule.relations`) intersect
    the candidate's touched set are re-run — a rule reading only
    shared tables must return its baseline verdict, which is carried
    over instead of recomputed.  ``--inject`` planning therefore runs
    a handful of rules per candidate instead of the full rule set.
    """
    from repro.engine.database import Database
    from repro.executor.backends import MemoryBackend

    baselines: dict[int, tuple[Database, set[str]]] = {}

    def verify(dataset: Dataset) -> set[str]:
        backend = MemoryBackend()
        base = dataset.base if isinstance(dataset, _CowDataset) else None
        if base is None:
            backend.load_schema(schema)
            for relation, rows in dataset.items():
                backend.insert_rows(relation, rows)
            return {violation.rule for violation in backend.check(rules)}
        key = id(base)
        cached = baselines.get(key)
        if cached is None:
            baseline = Database(schema)
            for relation, rows in base.items():
                baseline.insert_many(relation, rows)
            backend.database = baseline
            base_violations = {
                violation.rule for violation in backend.check(rules)
            }
            baselines[key] = (baseline, base_violations)
        else:
            baseline, base_violations = cached
        touched = dataset.touched
        affected = tuple(r for r in rules if r.relations & touched)
        fork = Database(schema)
        for name in list(fork._tables):
            if name in touched:
                fork.insert_many(name, dataset[name])
            else:
                # Shared by reference: checking never mutates rows.
                fork._tables[name] = baseline._tables[name]
        backend.database = fork
        fired = {violation.rule for violation in backend.check(affected)}
        carried = {
            rule.name
            for rule in rules
            if rule.name in base_violations
            and not (rule.relations & touched)
        }
        return fired | carried

    return verify


def plan_injections(
    schema: RelationalSchema,
    rules: tuple[CompiledRule, ...],
    dataset: Dataset,
    *,
    seed: int = 7,
    verify: Callable[[Dataset], set[str]] | None = None,
    kinds: tuple[str, ...] | None = None,
) -> list[Injection]:
    """One surgical injection per mutator kind, where plannable.

    For each kind, candidate rules are visited in name order and
    candidate mutations in seeded order; the first mutated dataset
    whose verified violation set is exactly ``{rule}`` is accepted.
    Kinds whose rules admit no surgical site (or that have no rules
    in this schema) are skipped — the harness reports them.
    """
    if verify is None:
        verify = default_verifier(schema, rules)
    injections: list[Injection] = []
    for kind in kinds or tuple(MUTATOR_KINDS):
        targets = sorted(
            (r for r in rules if r.kind in MUTATOR_KINDS[kind]),
            key=lambda r: r.name,
        )
        accepted = None
        for rule in targets:
            rng = random.Random((seed, kind, rule.name).__repr__())
            candidates = MUTATORS[kind](schema, rule, dataset, rng)
            for _ in range(MAX_CANDIDATES):
                pair = next(candidates, None)
                if pair is None:
                    break
                mutated, description = pair
                if verify(mutated) == {rule.name}:
                    touched = (
                        frozenset(mutated.touched)
                        if isinstance(mutated, _CowDataset)
                        else frozenset()
                    )
                    accepted = Injection(
                        kind, rule.name, rule.kind, rule.relation,
                        description, mutated, touched,
                    )
                    break
            if accepted is not None:
                break
        if accepted is not None:
            injections.append(accepted)
    return injections
