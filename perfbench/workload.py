"""Combined world, seeded statement generators and workload configs.

Everything the benchmark feeds the engine is derived here from the run's
``--seed``: the same seed gives the same statement sequence.  The engine
itself only ever receives the generated SQL text.

The world is fixed (it is the model's "knowledge", not an input): the
geography snapshot plus ``movies_world(512)`` and ``company_world(320)``
in one catalog, answered by one ``SimulatedLLM`` under a fixed model
seed, with the noise its workload names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.config import EngineConfig
from repro.core.engine import LLMStorageEngine
from repro.eval.worlds import (
    company_world,
    constraints_for,
    geography_world,
    movies_world,
)
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.llm.world import World

#: Seed of the simulated model's beliefs (its noise draws).  Fixed: it is
#: part of the system under test, not of the workload's inputs.
MODEL_SEED = 7

#: Real reply delay = simulated ``latency_ms`` x this factor.
LATENCY_SCALE = 0.05

#: Statements per ``execute_many`` call on the ``batch`` workload.
BATCH_SIZE = 16


def combined_world() -> World:
    """Geography, 512 movies and 320 employees in one world."""
    tables = []
    for part in (geography_world(), movies_world(512), company_world(320)):
        tables.extend(part.table(name) for name in part.table_names())
    return World(
        "perfbench",
        tables,
        description="geography + movies(512) + company(320)",
    )


#: Noise of the simulated model, by name.
NOISE = {"default": NoiseConfig, "perfect": NoiseConfig.perfect}


def simulated_model(world: World, noise: str) -> SimulatedLLM:
    """The model the server stand-in serves."""
    return SimulatedLLM(world, noise=NOISE[noise](), seed=MODEL_SEED)


def registration(world: World) -> List[tuple]:
    """What a practitioner registers for each table: its schema, true
    row count and plausibility constraints, but no rows."""
    return [
        (schema, world.row_count(schema.name), constraints_for(world, schema.name))
        for schema in world.schemas()
    ]


def register(engine: LLMStorageEngine, tables: List[tuple]) -> None:
    """Register every table of ``registration(world)`` as virtual."""
    for schema, row_estimate, constraints in tables:
        engine.register_virtual_table(
            schema, row_estimate=row_estimate, constraints=constraints
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape and engine configuration of one workload."""

    name: str
    config: EngineConfig
    #: Noise of the model the server stand-in serves (a ``NOISE`` key).
    noise: str
    #: Statements per request: 1 = one ``execute`` per statement,
    #: N > 1 = one ``execute_many`` call of N statements.
    batch: int = 1
    #: Parallel statements inside one ``execute_many`` call.
    jobs: int = 1


def workload_spec(name: str) -> WorkloadSpec:
    """The configuration of a workload, by name."""
    if name == "interactive":
        # Storage off: results are byte-identical to the serial reference
        # at any concurrency, injected noise included, so the noisy model
        # is served and ``answer_f1`` measures its answers.
        return WorkloadSpec(
            name, EngineConfig(max_in_flight=8, storage_mode="off"), "default"
        )
    if name == "batch":
        # Continuous batching is required here: over a network transport
        # the default dispatcher path parks FlightBudget slot waits on the
        # event loop's default executor, which the slot holders also need
        # for Transport.complete_async, and concurrent statements deadlock.
        # The storage tier promises byte-identity with storage off only
        # without injected noise (a stored cell replays the answer to the
        # prompt that first fetched it), so this workload's model is
        # noise-free.
        return WorkloadSpec(
            name,
            EngineConfig(
                max_in_flight=8,
                enable_continuous_batching=True,
                batch_slots=8,
                storage_mode="materialize",
            ),
            "perfect",
            batch=BATCH_SIZE,
            jobs=8,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("interactive", "batch")


# ---------------------------------------------------------------------
# Statement generators
# ---------------------------------------------------------------------


class _Draws:
    """Seeded constants that cover each parameter's range evenly.

    Every named parameter cycles through its pool (a categorical domain,
    or one value from each of ``strata`` equal slices of a numeric range)
    in a fresh seeded order per cycle.  Any run of a few cycles therefore
    sees about the same spread of constants, whatever its seed, so
    seed-to-seed differences in cost stay small.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._queues: Dict[str, list] = {}

    def _next(self, name: str, fill) -> object:
        queue = self._queues.get(name)
        if not queue:
            queue = self._queues[name] = fill()
            self._rng.shuffle(queue)
        return queue.pop()

    def pick(self, name: str, pool: List) -> object:
        return self._next(name, lambda: list(pool))

    def between(
        self, name: str, low: float, high: float, strata: int = 8, digits: int = 0
    ):
        width = (high - low) / strata

        def fill():
            return [
                round(low + (i + self._rng.random()) * width, digits or None)
                for i in range(strata)
            ]

        return self._next(name, fill)


class _Domains:
    """Constant pools drawn from the world's ground truth."""

    def __init__(self, world: World):
        def column(table: str, name: str) -> List:
            return sorted(
                {v for v in world.table(table).column_values(name) if v is not None}
            )

        self.countries = column("countries", "name")
        self.continents = column("countries", "continent")
        self.titles = column("movies", "title")
        self.genres = column("movies", "genre")
        self.employees = column("employees", "name")
        self.departments = column("employees", "department")
        self.roles = column("employees", "role")


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _mixed_templates(d: _Domains, draw: _Draws) -> List[tuple]:
    """One (class, sql) per template, with this round's constants."""
    return [
        ("lookup", "SELECT continent, population FROM countries "
                   f"WHERE name = {_quote(draw.pick('l1.name', d.countries))}"),
        ("lookup", "SELECT year, director, rating FROM movies "
                   f"WHERE title = {_quote(draw.pick('l2.title', d.titles))}"),
        ("lookup", "SELECT department, salary FROM employees "
                   f"WHERE name = {_quote(draw.pick('l3.name', d.employees))}"),
        ("filter", "SELECT title, rating FROM movies "
                   f"WHERE genre = {_quote(draw.pick('f1.genre', d.genres))} "
                   f"AND gross > {draw.between('f1.gross', 2, 40, digits=1)}"),
        ("filter", "SELECT name, salary FROM employees "
                   "WHERE department = "
                   f"{_quote(draw.pick('f2.dept', d.departments))} "
                   f"AND salary > {draw.between('f2.salary', 60000, 150000)}"),
        ("filter", "SELECT city, city_population FROM cities "
                   "WHERE city_population > "
                   f"{draw.between('f3.pop', 3000, 12000)}"),
        ("join", "SELECT m.title, d.country FROM movies m JOIN directors d "
                 "ON d.name = m.director "
                 f"WHERE m.genre = {_quote(draw.pick('j1.genre', d.genres))} "
                 f"AND m.rating >= {draw.between('j1.rating', 7, 8.8, digits=2)}"),
        ("join", "SELECT e.name, d.hq_city FROM employees e "
                 "JOIN departments d ON d.dept_name = e.department "
                 f"WHERE e.role = {_quote(draw.pick('j2.role', d.roles))} "
                 f"AND e.salary > {draw.between('j2.salary', 120000, 170000)}"),
        ("join", "SELECT c.city, k.continent FROM cities c "
                 "JOIN countries k ON k.name = c.country "
                 "WHERE c.city_population > "
                 f"{draw.between('j3.pop', 5000, 15000)}"),
        ("aggregate", "SELECT COUNT(*) FROM movies "
                      f"WHERE genre = {_quote(draw.pick('a1.genre', d.genres))} "
                      f"AND rating >= {draw.between('a1.rating', 4, 8, digits=2)}"),
        ("aggregate", "SELECT role, COUNT(*) AS n, AVG(salary) AS avg_salary "
                      "FROM employees WHERE department = "
                      f"{_quote(draw.pick('a2.dept', d.departments))} "
                      f"AND salary > {draw.between('a2.salary', 40000, 120000)} "
                      "GROUP BY role ORDER BY role"),
        ("aggregate", "SELECT continent, SUM(population) AS pop "
                      f"FROM countries WHERE gdp > {draw.between('a3.gdp', 50, 800)} "
                      "GROUP BY continent ORDER BY continent"),
        ("topk", "SELECT title, gross FROM movies "
                 f"WHERE genre = {_quote(draw.pick('t1.genre', d.genres))} "
                 f"AND rating >= {draw.between('t1.rating', 4, 8, digits=2)} "
                 f"ORDER BY gross DESC LIMIT {draw.pick('t1.k', range(3, 9))}"),
        ("topk", "SELECT name, salary FROM employees "
                 "WHERE department = "
                 f"{_quote(draw.pick('t2.dept', d.departments))} "
                 f"AND hired >= {draw.between('t2.hired', 2005, 2018)} "
                 f"ORDER BY salary DESC LIMIT {draw.pick('t2.k', range(3, 9))}"),
        ("topk", "SELECT name, gdp FROM countries "
                 f"WHERE continent = {_quote(draw.pick('t3.cont', d.continents))} "
                 f"AND population > {draw.between('t3.pop', 500, 20000)} "
                 f"ORDER BY gdp DESC LIMIT {draw.pick('t3.k', range(3, 7))}"),
    ]


@dataclass(frozen=True)
class Statement:
    index: int
    query_class: str
    sql: str


def statements(world: World, workload: str, seed: int) -> Iterator[Statement]:
    """The workload's endless, seeded statement sequence.

    Statements come in rounds that use every template exactly once, in
    a seeded order with seeded constants, so every run sees the same
    template mix whatever its seed and length.
    """
    rng = random.Random(f"perfbench/{workload}/{seed}")
    domains = _Domains(world)
    draw = _Draws(rng)
    index = 0
    while True:
        batch = _mixed_templates(domains, draw)
        rng.shuffle(batch)
        for query_class, sql in batch:
            yield Statement(index, query_class, sql)
            index += 1


def class_counts(items: List[Statement]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for item in items:
        counts[item.query_class] = counts.get(item.query_class, 0) + 1
    return counts
