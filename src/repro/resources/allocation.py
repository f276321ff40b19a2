"""Resource-partition configurations.

A *configuration* assigns an integer number of units of every shared
resource to every co-located job (e.g. "3 cores + 4 LLC ways + 30% memory
bandwidth to job 0, ...").  Configurations are the points of the search
space that CLITE's Bayesian optimizer navigates, so this module also
provides the mappings between integer configurations and the continuous
unit cube the Gaussian process operates in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .contracts import partition_contract
from .spec import ServerSpec


@dataclass(frozen=True)
class Configuration:
    """An immutable (n_jobs x n_resources) integer allocation matrix.

    ``units[j][r]`` is the number of units of resource ``r`` (in
    ``spec.resources`` order) held by job ``j``.
    """

    units: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_matrix(matrix: Iterable[Iterable[int]]) -> "Configuration":
        return Configuration(tuple(tuple(int(v) for v in row) for row in matrix))

    @property
    def n_jobs(self) -> int:
        return len(self.units)

    @property
    def n_resources(self) -> int:
        return len(self.units[0]) if self.units else 0

    def get(self, job: int, resource: int) -> int:
        return self.units[job][resource]

    def as_array(self) -> np.ndarray:
        """Return a fresh ``(n_jobs, n_resources)`` int array."""
        return np.array(self.units, dtype=int)

    def flat(self) -> Tuple[int, ...]:
        """Row-major flattening, job-major: (j0r0, j0r1, ..., j1r0, ...)."""
        return tuple(v for row in self.units for v in row)

    def with_transfer(
        self, resource: int, donor: int, receiver: int, amount: int = 1
    ) -> "Configuration":
        """Move ``amount`` units of one resource between two jobs.

        Raises:
            ValueError: if the donor would drop below one unit.
        """
        if donor == receiver:
            raise ValueError("donor and receiver must differ")
        matrix = [list(row) for row in self.units]
        if matrix[donor][resource] - amount < 1:
            raise ValueError(
                f"job {donor} holds {matrix[donor][resource]} units of "
                f"resource {resource}; cannot give away {amount}"
            )
        matrix[donor][resource] -= amount
        matrix[receiver][resource] += amount
        return Configuration.from_matrix(matrix)

    def job_allocation(self, job: int) -> Tuple[int, ...]:
        """All resource units held by one job."""
        return self.units[job]

    def resource_column(self, resource: int) -> Tuple[int, ...]:
        """Units of one resource across all jobs."""
        return tuple(row[resource] for row in self.units)

    def distance(self, other: "Configuration") -> float:
        """Euclidean distance in raw unit space (used by RAND+ dedup)."""
        a = np.asarray(self.flat(), dtype=float)
        b = np.asarray(other.flat(), dtype=float)
        return float(np.linalg.norm(a - b))


def pairwise_sum(terms: List[Any]) -> Any:
    """Sum ``terms`` bitwise as numpy's ``add.reduce`` sums one row.

    numpy adds a row into 0.0, with one running sum below 8 terms, 8
    interleaved ones up to 128, and halves beyond.  The terms may be
    Python floats or equally shaped arrays (summed elementwise), so a
    scalar path and an array path can both reproduce a numpy row sum.
    """
    n = len(terms)
    if n < 8:
        # One running sum, from 0.0.
        total = 0.0 + terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    if n <= 128:
        tail = n - n % 8
        acc = terms[:8]
        for i in range(8, tail, 8):
            acc = [a + b for a, b in zip(acc, terms[i : i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for term in terms[tail:]:
            total = total + term
    else:
        # Adding 0.0 inside each half as well changes only a -0.0 half,
        # which the final 0.0 + would have turned into 0.0 anyway.
        half = n // 2
        half -= half % 8
        total = pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
    return 0.0 + total


def _round_column(weights: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative weights to integers >= 1 summing to ``total``.

    Uses the largest-remainder method on top of a guaranteed one-unit
    floor per job, which is Eq. 5's lower bound.
    """
    weights = np.asarray(weights, dtype=float)
    return _round_columns_batch(weights[None, :], total)[0]


def _round_columns_batch(
    weights: np.ndarray, total: Union[int, np.ndarray]
) -> np.ndarray:
    """Vectorized :func:`_round_column` over a batch of weight rows.

    Args:
        weights: Non-negative weights, shape (batch, n_jobs).
        total: Units each output row must sum to: one count for every
            row, or a per-row ``(batch,)`` array, so the columns of
            several resources round in one call.

    Returns:
        Integer array of shape (batch, n_jobs), every entry >= 1 and
        row ``i`` summing to its total, with exactly the same rounding
        (largest remainder, ties broken by job index) as the scalar
        version.
    """
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    if w.ndim != 2:
        raise ValueError("batch weights must be 2-D (batch, n_jobs)")
    n = w.shape[1]
    spare = np.asarray(total, dtype=int) - n
    if (spare < 0).any():
        raise ValueError(
            f"cannot give {n} jobs >=1 unit out of {int(spare.min()) + n}"
        )
    sums = w.sum(axis=1)
    degenerate = sums <= 0
    if degenerate.any():
        w[degenerate] = 1.0
        sums = np.where(degenerate, float(n), sums)
    shares = w / sums[:, None] * spare[..., None]
    base = np.floor(shares).astype(int)
    remainder = spare - base.sum(axis=1)
    # Highest fractional parts get the leftover units; ties broken by
    # job index for determinism (stable sort on the negated fractions).
    # Sorting the order again inverts it: each job's rank.
    order = np.argsort(-(shares - base), axis=1, kind="stable")
    ranks = order.argsort(axis=1)
    base += ranks < remainder[:, None]
    return base + 1


def _round_resources_batch(vec: np.ndarray, totals: Sequence[int]) -> np.ndarray:
    """Round every resource column of a ``(batch, n_jobs, n_resources)``
    weight stack in one :func:`_round_columns_batch` call.

    ``totals[r]`` is what column ``r`` must sum to.  Each (matrix,
    resource) column becomes one contiguous weight row, so the result
    equals rounding column by column, bit for bit.
    """
    batch, n_jobs, n_res = vec.shape
    rows = np.ascontiguousarray(vec.transpose(0, 2, 1)).reshape(-1, n_jobs)
    per_row = np.repeat(np.asarray(totals)[None, :], batch, axis=0).ravel()
    rounded = _round_columns_batch(rows, per_row)
    return np.ascontiguousarray(
        rounded.reshape(batch, n_res, n_jobs).transpose(0, 2, 1)
    )


class ConfigurationSpace:
    """The discrete space of all valid partitions of a server among jobs.

    Provides the combinatorics from Sec. 2 (the space has
    ``prod(C(units_r - 1, n_jobs - 1))`` points), canonical bootstrap
    points, uniform random sampling, lattice enumeration for ORACLE, and
    the [0, 1] unit-cube encoding used by the Gaussian process.
    """

    def __init__(self, spec: ServerSpec, n_jobs: int) -> None:
        if n_jobs < 1:
            raise ValueError("need at least one job")
        max_jobs = spec.max_jobs()
        if n_jobs > max_jobs:
            raise ValueError(
                f"{n_jobs} jobs cannot each get one unit of every resource "
                f"on this server (max {max_jobs})"
            )
        self.spec = spec
        self.n_jobs = n_jobs
        self._units = np.array([r.units for r in spec.resources], dtype=int)
        self._units.setflags(write=False)
        self._units_list = [int(r.units) for r in spec.resources]
        #: Units above the one-unit floor, per resource.
        self._spares = [units - n_jobs for units in self._units_list]
        self._equal = self._build_equal_partition()

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def of(spec: ServerSpec, n_jobs: int) -> "ConfigurationSpace":
        """The shared space of ``n_jobs`` jobs on ``spec``.

        A space holds nothing but what its shape implies (capacities and
        the equal partition, both computed at construction and never
        written again), so every node and isolation layer of one shape
        shares one instance instead of rebuilding it per probe.
        """
        return ConfigurationSpace(spec, n_jobs)

    @property
    def n_resources(self) -> int:
        return self.spec.n_resources

    @property
    def n_dims(self) -> int:
        """Dimensionality of the (job, resource) allocation vector."""
        return self.n_jobs * self.n_resources

    # ------------------------------------------------------------------
    # Combinatorics
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Total number of valid configurations (Sec. 2 formula)."""
        from math import comb

        total = 1
        for units in self._units:
            total *= comb(int(units) - 1, self.n_jobs - 1)
        return total

    def strided_size(self, stride: int) -> int:
        """Number of points :meth:`enumerate` yields for this stride."""
        total = 1
        for units in self._units:
            total *= sum(
                1 for _ in self._compositions(int(units), self.n_jobs, stride)
            )
        return total

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, config: Configuration) -> None:
        """Raise ``ValueError`` if ``config`` is not a point of this space."""
        if config.n_jobs != self.n_jobs:
            raise ValueError(
                f"expected {self.n_jobs} jobs, got {config.n_jobs}"
            )
        if config.n_resources != self.n_resources:
            raise ValueError(
                f"expected {self.n_resources} resources, got {config.n_resources}"
            )
        # Pure-Python checks: configurations are tiny (jobs x resources),
        # so tuple arithmetic beats round-tripping through numpy arrays.
        units = config.units
        if any(v < 1 for row in units for v in row):
            raise ValueError(
                f"every job needs >= 1 unit of every resource: "
                f"{[list(row) for row in units]}"
            )
        sums = [sum(col) for col in zip(*units)]
        if sums != self._units_list:
            raise ValueError(
                f"resource columns must sum to {self._units_list}, got {sums}"
            )

    def contains(self, config: Configuration) -> bool:
        try:
            self.validate(config)
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------
    # Canonical points (CLITE's bootstrap set, Sec. 4)
    # ------------------------------------------------------------------
    def _build_equal_partition(self) -> Configuration:
        matrix = np.empty((self.n_jobs, self.n_resources), dtype=int)
        for r, units in enumerate(self._units):
            base, extra = divmod(int(units), self.n_jobs)
            column = np.full(self.n_jobs, base, dtype=int)
            column[:extra] += 1
            matrix[:, r] = column
        return Configuration.from_matrix(matrix)

    @partition_contract
    def equal_partition(self) -> Configuration:
        """Divide every resource as equally as possible among the jobs.

        Computed once, when the space is built.
        """
        return self._equal

    @partition_contract
    def max_allocation(self, job: int) -> Configuration:
        """Give ``job`` everything except the one-unit floor of the others."""
        if not 0 <= job < self.n_jobs:
            raise IndexError(f"job index {job} out of range")
        matrix = np.ones((self.n_jobs, self.n_resources), dtype=int)
        for r, units in enumerate(self._units):
            matrix[job, r] = int(units) - self.n_jobs + 1
        return Configuration.from_matrix(matrix)

    # ------------------------------------------------------------------
    # Sampling and enumeration
    # ------------------------------------------------------------------
    @partition_contract
    def random(self, rng: np.random.Generator) -> Configuration:
        """Draw a configuration uniformly at random.

        Each resource column is a uniform random composition of its units
        into ``n_jobs`` positive parts (classic stars-and-bars sampling).
        """
        matrix = np.empty((self.n_jobs, self.n_resources), dtype=int)
        for r, units in enumerate(self._units):
            units = int(units)
            if self.n_jobs == 1:
                matrix[0, r] = units
                continue
            cuts = rng.choice(units - 1, size=self.n_jobs - 1, replace=False)
            cuts.sort()
            bounds = np.concatenate(([0], cuts + 1, [units]))
            matrix[:, r] = np.diff(bounds)
        return Configuration.from_matrix(matrix)

    @partition_contract
    def random_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` uniform random configurations as one integer array.

        Returns a ``(n, n_jobs, n_resources)`` array; each slice is a
        valid partition (columns sum to the resource capacity, every
        entry >= 1).  The sampler is the same stars-and-bars construction
        as :meth:`random` — each resource column is a uniformly random
        composition, here drawn as the ``n_jobs - 1`` smallest of
        ``units - 1`` iid uniforms (a uniform random cut subset) — so
        the two are distributionally identical, but the batch form
        consumes the generator stream differently and is one vectorized
        numpy pass instead of ``n`` Python-level round trips.
        """
        if n < 0:
            raise ValueError(f"batch size must be >= 0, got {n}")
        out = np.empty((n, self.n_jobs, self.n_resources), dtype=int)
        if n == 0:
            return out
        for r, units in enumerate(self._units):
            units = int(units)
            if self.n_jobs == 1:
                out[:, 0, r] = units
                continue
            u = rng.random((n, units - 1))
            # Indices of the (n_jobs - 1) smallest uniforms form a
            # uniform random (n_jobs - 1)-subset of the cut positions.
            cuts = np.argpartition(u, self.n_jobs - 2, axis=1)[
                :, : self.n_jobs - 1
            ]
            cuts.sort(axis=1)
            bounds = np.concatenate(
                [
                    np.zeros((n, 1), dtype=int),
                    cuts + 1,
                    np.full((n, 1), units, dtype=int),
                ],
                axis=1,
            )
            out[:, :, r] = np.diff(bounds, axis=1)
        return out

    def neighbor_matrices(self, config: Configuration) -> np.ndarray:
        """All single-unit-transfer neighbors as one integer array.

        Returns a ``(k, n_jobs, n_resources)`` array in the same order
        :meth:`neighbors` yields them.
        """
        base = config.as_array()
        moves = [
            (r, donor, receiver)
            for r in range(self.n_resources)
            for donor in range(self.n_jobs)
            if base[donor, r] > 1
            for receiver in range(self.n_jobs)
            if receiver != donor
        ]
        mats = np.repeat(base[None, :, :], len(moves), axis=0)
        for i, (r, donor, receiver) in enumerate(moves):
            mats[i, donor, r] -= 1
            mats[i, receiver, r] += 1
        return mats

    def enumerate(self, stride: int = 1) -> Iterable[Configuration]:
        """Yield every configuration (optionally on a coarser lattice).

        With ``stride > 1`` only allocations congruent to 1 modulo
        ``stride`` (plus the boundary maximum) are considered per job,
        shrinking the lattice for tractable ORACLE sweeps.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        columns = [
            list(self._compositions(int(units), self.n_jobs, stride))
            for units in self._units
        ]

        def product(idx: int, rows: list) -> Iterable[Configuration]:
            if idx == len(columns):
                matrix = np.column_stack(rows)
                yield Configuration.from_matrix(matrix)
                return
            for column in columns[idx]:
                yield from product(idx + 1, rows + [np.asarray(column)])

        yield from product(0, [])

    @staticmethod
    def _compositions(total: int, parts: int, stride: int) -> Iterable[Tuple[int, ...]]:
        """All compositions of ``total`` into ``parts`` positive integers.

        With ``stride > 1``, each part except the last is restricted to
        ``{1, 1 + stride, 1 + 2*stride, ...}``; the last part absorbs the
        remainder so column sums stay exact.
        """
        if parts == 1:
            yield (total,)
            return
        first = 1
        while total - first >= parts - 1:
            for rest in ConfigurationSpace._compositions(
                total - first, parts - 1, stride
            ):
                yield (first,) + rest
            first += stride

    def neighbors(self, config: Configuration) -> Iterable[Configuration]:
        """All configurations one single-unit transfer away."""
        for r in range(self.n_resources):
            for donor in range(self.n_jobs):
                if config.get(donor, r) <= 1:
                    continue
                for receiver in range(self.n_jobs):
                    if receiver != donor:
                        yield config.with_transfer(r, donor, receiver)

    # ------------------------------------------------------------------
    # Unit-cube encoding for the Gaussian process
    # ------------------------------------------------------------------
    def to_unit_cube(self, config: Configuration) -> np.ndarray:
        """Map a configuration to a vector in ``[0, 1]^n_dims``.

        Each (job, resource) cell is scaled by that resource's feasible
        range ``[1, units - n_jobs + 1]`` (Eq. 5).  A degenerate resource
        whose range is a single point maps to 0.
        """
        arr = config.as_array().astype(float)
        spans = (self._units - self.n_jobs).astype(float)
        scaled = np.zeros_like(arr)
        nonzero = spans > 0
        scaled[:, nonzero] = (arr[:, nonzero] - 1.0) / spans[nonzero]
        return scaled.reshape(-1)

    def to_unit_cube_batch(self, matrices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_unit_cube` over a stack of allocations.

        Args:
            matrices: Integer allocations, shape
                ``(n, n_jobs, n_resources)`` (as produced by
                :meth:`random_batch` / :meth:`neighbor_matrices`).

        Returns:
            ``(n, n_dims)`` float array of unit-cube encodings, row ``i``
            identical to ``to_unit_cube`` of configuration ``i``.
        """
        arr = np.asarray(matrices, dtype=float)
        if arr.ndim != 3 or arr.shape[1:] != (self.n_jobs, self.n_resources):
            raise ValueError(
                f"expected (n, {self.n_jobs}, {self.n_resources}) matrices, "
                f"got {arr.shape}"
            )
        spans = (self._units - self.n_jobs).astype(float)
        scaled = np.zeros_like(arr)
        nonzero = spans > 0
        scaled[:, :, nonzero] = (arr[:, :, nonzero] - 1.0) / spans[nonzero]
        return scaled.reshape(len(arr), -1)

    @partition_contract
    def from_unit_cube(self, x: Sequence[float]) -> Configuration:
        """Project a unit-cube vector back onto the feasible lattice.

        The continuous vector is interpreted per resource as relative
        weights of the spare units (everything above the one-unit floor)
        and rounded with the largest-remainder method, so the result
        always satisfies Eqs. 5-6 exactly.  Computed on Python floats,
        it returns bitwise what a :meth:`from_unit_cube_batch` row
        returns: the same clipping, the same weight sums
        (:func:`pairwise_sum`, numpy's order), the same divisions and
        ties broken by job index.  A NaN entry raises ``ValueError``.
        """
        values = (
            x if isinstance(x, (list, tuple))
            else np.asarray(x, dtype=float).ravel().tolist()
        )
        n_jobs, n_res = self.n_jobs, self.n_resources
        if len(values) != n_jobs * n_res:
            raise ValueError(
                f"expected a cube vector of {n_jobs * n_res} entries, "
                f"got {len(values)}"
            )
        columns = []
        for r, spare in enumerate(self._spares):
            # np.clip(v, 0.0, 1.0) on a number; a NaN stays NaN, and the
            # floor below rejects it.
            weights = [
                0.0 if v <= 0.0 else (1.0 if v >= 1.0 else v)
                for v in values[r::n_res]
            ]
            total = pairwise_sum(weights)
            if total <= 0:
                weights, total = [1.0] * n_jobs, float(n_jobs)
            shares = [w / total * spare for w in weights]
            # Shares are >= 0, so int() is the floor.
            base = [int(share) for share in shares]
            remainder = spare - sum(base)
            if remainder > 0:
                # Largest fractional part first; sorted() is stable, so
                # equal fractions keep job order, as argsort(-frac) does.
                fractions = [share - b for share, b in zip(shares, base)]
                order = sorted(
                    range(n_jobs), key=fractions.__getitem__, reverse=True
                )
                for j in order[:remainder]:
                    base[j] += 1
            columns.append([b + 1 for b in base])
        return Configuration(tuple(zip(*columns)))

    @partition_contract
    def from_unit_cube_batch(self, x: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`from_unit_cube` over a batch of cube vectors.

        Args:
            x: Cube vectors, shape ``(n, n_dims)``.

        Returns:
            ``(n, n_jobs, n_resources)`` integer allocations, row ``i``
            identical to ``from_unit_cube`` of vector ``i`` (same
            largest-remainder rounding and tie-breaking).
        """
        vec = np.asarray(x, dtype=float)
        if vec.ndim != 2 or vec.shape[1] != self.n_dims:
            raise ValueError(
                f"expected (n, {self.n_dims}) cube vectors, got {vec.shape}"
            )
        vec = np.clip(
            vec.reshape(len(vec), self.n_jobs, self.n_resources), 0.0, 1.0
        )
        return _round_resources_batch(vec, self._units)

    def bounds(self) -> np.ndarray:
        """``(n_dims, 2)`` box bounds of the unit cube (always [0, 1])."""
        return np.tile(np.array([0.0, 1.0]), (self.n_dims, 1))
