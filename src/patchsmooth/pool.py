"""Prompt canvases, the scorer interface, and prompt-pool construction.

A prompt is the symbolic four-cell canvas [in-context input, in-context
output, anchor, blank region]; scoring it yields one probability
distribution per masked patch. A pool collects, for every patch slot,
the distributions obtained from several prompts built around different
in-context pairs. Backends must be deterministic: scoring the same
prompt twice yields bitwise-identical grids, which makes pools cacheable.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .divergence import frozen, normalize_scores, simplex_rows
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    MissingItemError,
    ValidationError,
    refused_in,
)
from .retrieval import RetrievedSet
from .tensorfile import read_json, read_tensor, write_tensor


@dataclass(frozen=True)
class PromptSpec:
    """Symbolic four-cell canvas; ids are resolved by the active backend."""

    in_context_input: str
    in_context_output: str
    anchor: str
    masked_region: tuple[int, int]

    def __post_init__(self):
        rows, cols = self.masked_region
        if rows < 1 or cols < 1:
            raise ValidationError(f"masked region must be at least 1x1, got {self.masked_region}")

    @property
    def patch_count(self) -> int:
        return self.masked_region[0] * self.masked_region[1]


def _check_mask(prompt: PromptSpec | None, patches: int, owner: str) -> None:
    """A DimensionError unless ``prompt``, if any, masks the ``patches`` of its ``owner``."""
    if prompt is not None and prompt.patch_count != patches:
        raise DimensionError(f"{owner} has {patches} patches, prompt masks {prompt.patch_count}")


def _frozen_keys(keys, leading: tuple[int, ...], name: str):
    """Optional key array whose leading axes must match ``leading``, whose
    rows must not be empty and whose entries must be finite, as a
    read-only float64 array that ``frozen`` keeps or copies."""
    if keys is None:
        return None
    array = np.asarray(keys, dtype=np.float64)
    if array.ndim != len(leading) + 1 or array.shape[:-1] != leading:
        raise DimensionError(f"{name} must be ({', '.join(map(str, leading))}, dim), got {array.shape}")
    if array.shape[-1] == 0:
        raise DimensionError(f"{name} of shape {array.shape} have rows of width 0")
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} contain non-finite entries")
    return frozen(array, keys)


@dataclass(frozen=True)
class ScoreGrid:
    """Per-patch assignment-score distributions from one prompt.

    ``probs`` is (L, |V|), one distribution per masked patch.
    ``feature_keys`` / ``patch_keys`` are optional (L, dim) arrays used when
    neighbor selection keys off intermediate features or decoded patches
    instead of the scores themselves.
    """

    probs: np.ndarray = field(repr=False)
    prompt: PromptSpec | None = None
    feature_keys: np.ndarray | None = field(default=None, repr=False)
    patch_keys: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.ndim(self.probs) != 2:
            raise DimensionError(f"score grid must be (L, |V|), got shape {np.shape(self.probs)}")
        if len(self.probs) == 0:
            raise ValidationError("score grid has no patches")
        probs = simplex_rows(self.probs)
        _check_mask(self.prompt, len(probs), "grid")
        object.__setattr__(self, "probs", probs)
        for name in ("feature_keys", "patch_keys"):
            object.__setattr__(self, name, _frozen_keys(getattr(self, name), (len(probs),), name))

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def codebook_size(self) -> int:
        return self.probs.shape[1]


class ScorerBackend(Protocol):
    """Deterministic mapping from prompts to score grids."""

    @property
    def grid_shape(self) -> tuple[int, int]: ...

    def pair_for(self, item_id: str) -> tuple[str, str]:
        """Resolve an item id to its (input id, output id) in-context pair."""
        ...

    def score(self, prompt: PromptSpec) -> ScoreGrid: ...


class PoolMode(enum.Enum):
    """Anchor/pair configurations for pool construction."""

    Q = "q"        # each retrieved pair, query as anchor (default)
    RAND = "rand"  # best pair fixed, random retrieved inputs as anchors
    SEQ = "seq"    # best pair fixed, remaining inputs as anchors in order
    SELF = "self"  # each retrieved pair, its own input as anchor


@dataclass(frozen=True)
class PromptPool:
    """Candidate distributions for every patch slot, plus provenance.

    ``probs`` is (W, L, |V|): row ``probs[j, l]`` is patch l as scored by
    the prompt built around retrieved pair ``pair_indices[j]``, one of
    distinct pair ranks in [1, m], and ``prompts`` is empty or holds
    prompt j for row j, each masking the L patches. The optional key
    arrays are (W, L, dim).
    """

    probs: np.ndarray = field(repr=False)
    pair_indices: np.ndarray
    prompts: tuple[PromptSpec, ...]
    mode: PoolMode | None
    m: int
    feature_keys: np.ndarray | None = field(default=None, repr=False)
    patch_keys: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.ndim(self.probs) != 3:
            raise DimensionError(f"pool must be (W, L, |V|), got shape {np.shape(self.probs)}")
        if 0 in np.shape(self.probs)[:2]:
            raise ValidationError("pool has no entries")
        probs = simplex_rows(self.probs)
        indices = np.array(self.pair_indices)
        if (
            indices.shape != (len(probs),)
            or indices.dtype.kind not in "iu"
            or len(set(indices.tolist())) != len(indices)
            or not 1 <= indices.min() <= indices.max() <= self.m
        ):
            raise ValidationError(
                f"provenance indices {indices.tolist()} are not {len(probs)} distinct"
                f" pair ranks in [1, m={self.m}]"
            )
        if self.prompts and len(self.prompts) != len(probs):
            raise ValidationError(f"{len(self.prompts)} prompts for a pool of width {len(probs)}")
        for prompt in self.prompts:
            _check_mask(prompt, probs.shape[1], "pool")
        indices = indices.astype(np.int64, copy=False)
        indices.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "pair_indices", indices)
        for name in ("feature_keys", "patch_keys"):
            object.__setattr__(self, name, _frozen_keys(getattr(self, name), probs.shape[:2], name))

    @property
    def patch_count(self) -> int:
        return self.probs.shape[1]

    @property
    def width(self) -> int:
        return self.probs.shape[0]

    @property
    def codebook_size(self) -> int:
        return self.probs.shape[2]


def score_prompt(backend: ScorerBackend, prompt: PromptSpec) -> ScoreGrid:
    """Score one prompt and check the backend honored the grid contract."""
    grid = backend.score(prompt)
    if len(grid) != prompt.patch_count:
        raise DimensionError(
            f"backend produced {len(grid)} patches for a {prompt.patch_count}-patch prompt"
        )
    return grid


def build_pool(
    backend: ScorerBackend,
    retrieved: RetrievedSet,
    query: str,
    mode: PoolMode = PoolMode.Q,
    seed: int | None = None,
) -> PromptPool:
    """Construct the per-patch prompt pool for one query.

    Mode Q scores [x_i, y_i, query] for every retrieved pair i; SELF uses
    x_i itself as anchor. SEQ and RAND hold the best pair (x_1, y_1) fixed
    and vary only the anchor: SEQ walks x_2..x_m in order, RAND draws m-1
    anchors uniformly without replacement from all retrieved inputs (the
    best input itself included), so both produce pools of width m-1.
    RAND needs a ``seed``, and no other mode takes one.
    """
    item_ids = list(retrieved.ids)
    m = len(item_ids)
    if mode in (PoolMode.SEQ, PoolMode.RAND) and m < 2:
        raise ConfigError(f"mode {mode.value} needs m >= 2, got {m}")
    if (mode is PoolMode.RAND) != (seed is not None):  # no other mode draws
        raise ConfigError("mode rand requires a seed" if seed is None
                          else f"a seed is for mode rand, not mode {mode.value}")

    region = backend.grid_shape
    prompts: list[PromptSpec] = []
    indices: list[int] = []

    if mode in (PoolMode.Q, PoolMode.SELF):
        for i, item in enumerate(item_ids, start=1):
            pair_in, pair_out = backend.pair_for(item)
            anchor = query if mode is PoolMode.Q else pair_in
            prompts.append(PromptSpec(pair_in, pair_out, anchor, region))
            indices.append(i)
    else:
        best_in, best_out = backend.pair_for(item_ids[0])
        if mode is PoolMode.SEQ:
            anchor_positions = range(1, m)
        else:
            rng = np.random.default_rng(seed)
            anchor_positions = [int(p) for p in rng.choice(m, size=m - 1, replace=False)]
        for pos in anchor_positions:
            anchor_in, _ = backend.pair_for(item_ids[pos])
            prompts.append(PromptSpec(best_in, best_out, anchor_in, region))
            indices.append(pos + 1)

    grids = [score_prompt(backend, p) for p in prompts]
    probs = np.stack([g.probs for g in grids])
    probs.flags.writeable = False  # frozen and owned: the pool keeps it uncopied
    return PromptPool(
        probs=probs,
        pair_indices=indices,
        prompts=tuple(prompts),
        mode=mode,
        m=m,
        feature_keys=_stacked_keys([g.feature_keys for g in grids]),
        patch_keys=_stacked_keys([g.patch_keys for g in grids]),
    )


def _stacked_keys(keys):
    if any(k is None for k in keys):
        return None
    stacked = np.stack(keys)
    stacked.flags.writeable = False  # frozen and owned: the pool keeps it uncopied
    return stacked


class FileScorerBackend:
    """Scorer fed by exported score tensors.

    The directory holds a ``manifest.json`` naming the grid geometry,
    codebook size, patch ordering used by the exporter (only
    ``row-major`` is understood), the input->output pair mapping, and one
    (L, |V|) f32 tensor file per prompt keyed by ``input__output__anchor``.
    Rows are renormalized on import.
    """

    def __init__(self, scores_dir: str | Path):
        self._dir = Path(scores_dir)
        manifest_path = self._dir / "manifest.json"
        if not manifest_path.exists():
            raise MissingItemError(f"no manifest.json in {self._dir}")
        manifest = read_json(manifest_path, FormatError)
        rows, cols = meta_field(manifest, "grid", manifest_path, list, 2, int)
        if rows < 1 or cols < 1:
            raise FormatError(
                f"{manifest_path}: field 'grid' must be at least 1x1, got {rows}x{cols}"
            )
        self._grid = (rows, cols)
        self._codebook_size = meta_field(manifest, "codebook_size", manifest_path, int)
        if self._codebook_size < 2:
            raise FormatError(
                f"{manifest_path}: field 'codebook_size' must be >= 2, got {self._codebook_size}"
            )
        self._pairs = meta_field(manifest, "pairs", manifest_path, dict, items=str)
        self._prompt_files = meta_field(manifest, "prompts", manifest_path, dict, items=str)
        if manifest.get("patch_order", "row-major") != "row-major":
            raise FormatError(
                f"{manifest_path}: patch_order {manifest['patch_order']!r} is not 'row-major'"
            )

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self._grid

    def pair_for(self, item_id: str) -> tuple[str, str]:
        if item_id not in self._pairs:
            raise MissingItemError(f"no in-context pair registered for {item_id!r}")
        return item_id, self._pairs[item_id]

    def score(self, prompt: PromptSpec) -> ScoreGrid:
        key = f"{prompt.in_context_input}__{prompt.in_context_output}__{prompt.anchor}"
        if key not in self._prompt_files:
            raise MissingItemError(f"no exported scores for prompt {key!r}")
        path = self._dir / self._prompt_files[key]
        probs, _ = _read_scores(path, 2)
        if probs.shape[1] != self._codebook_size:
            raise DimensionError(f"{path}: rows of {probs.shape[1]} codes, "
                                 f"expected the manifest's {self._codebook_size}")
        with refused_in(path):
            return ScoreGrid(probs=probs, prompt=prompt)


def meta_field(meta, name: str, source, kind: type, length: int | None = None,
               items: type | None = None):
    """``meta[name]`` if it is a ``kind`` (of ``length`` entries, each of
    type exactly ``items``, as JSON decodes them: a bool is no int);
    otherwise a FormatError naming the field."""
    value = meta.get(name) if isinstance(meta, dict) else None
    entries = value.values() if isinstance(value, dict) else value
    if not (
        isinstance(value, kind)
        and not isinstance(value, bool)
        and (length is None or len(value) == length)
        and (items is None or set(map(type, entries)) <= {items})
    ):
        raise FormatError(
            f"{source}: field {name!r} is missing, short or not a {kind.__name__}: {value!r}"
        )
    return value


def _prompt_from_meta(meta, source) -> PromptSpec:
    ids = [meta_field(meta, name, source, str)
           for name in ("in_context_input", "in_context_output", "anchor")]
    rows, cols = meta_field(meta, "masked_region", source, list, 2, int)
    return PromptSpec(*ids, (rows, cols))


def save_pool(pool: PromptPool, path: str | Path) -> None:
    """Serialize to a (width, L, |V|) f32 tensor with a provenance sidecar."""
    meta = {
        "schema_version": 1,
        "kind": "prompt-pool",
        "mode": pool.mode.value if pool.mode is not None else None,
        "m": pool.m,
        "patch_count": pool.patch_count,
        "codebook_size": pool.codebook_size,
        "pair_indices": pool.pair_indices.tolist(),
        "prompts": [asdict(p) for p in pool.prompts],
    }
    write_tensor(pool.probs, path, meta=meta)


def _read_scores(path: str | Path, rank: int, kind: str | None = None) -> tuple[np.ndarray, dict]:
    """The f32 score tensor of ``rank`` in ``path``, rows normalized, and
    its sidecar, whose ``kind`` must be ``kind`` if that is given. Scores
    that cannot be normalized are a FormatError, and rows shorter than 2
    a DimensionError, naming the file."""
    array, meta = read_tensor(path)
    if kind is not None and meta.get("kind") != kind:
        raise FormatError(f"{path} is not a {kind} file")
    if array.dtype.kind != "f":
        raise FormatError(f"{path}: scores must be f32, got {array.dtype.name}")
    if array.ndim != rank:
        raise DimensionError(f"{path}: score tensor must be rank {rank}, got shape {array.shape}")
    if array.shape[-1] < 2:
        raise DimensionError(f"{path}: score rows must have length >= 2, got shape {array.shape}")
    with refused_in(path):
        return normalize_scores(array), meta


def load_pool(path: str | Path) -> PromptPool:
    """The pool in ``path``; a sidecar ``PromptPool`` refuses is refused
    naming the file (``refused_in``)."""
    probs, meta = _read_scores(path, 3, kind="prompt-pool")
    try:
        mode = PoolMode(meta["mode"]) if meta.get("mode") else None
    except ValueError as exc:
        raise FormatError(f"{path}: field 'mode': {exc}") from exc
    prompts = meta_field(meta, "prompts", path, list, items=dict)
    with refused_in(path):
        return PromptPool(
            probs=probs,
            pair_indices=meta_field(meta, "pair_indices", path, list, items=int),
            prompts=tuple(_prompt_from_meta(p, path) for p in prompts),
            mode=mode,
            m=meta_field(meta, "m", path, int),
        )


def save_grid(grid: ScoreGrid, path: str | Path) -> None:
    """Serialize a score grid to an (L, |V|) f32 tensor."""
    meta = {"schema_version": 1, "kind": "score-grid"}
    if grid.prompt is not None:
        meta["prompt"] = asdict(grid.prompt)
    write_tensor(grid.probs, path, meta=meta)


def load_grid(path: str | Path) -> tuple[ScoreGrid, tuple[int, int]]:
    """The score grid in ``path`` and the (rows, cols) its L patches form:
    the sidecar's ``grid``, else the prompt's masked region, else (1, L).
    A sidecar prompt that ``ScoreGrid`` refuses is refused naming the file."""
    probs, meta = _read_scores(path, 2)
    with refused_in(path):
        prompt = _prompt_from_meta(meta["prompt"], path) if "prompt" in meta else None
        grid = ScoreGrid(probs=probs, prompt=prompt)
    rows, cols = prompt.masked_region if prompt is not None else (1, len(grid))
    if "grid" in meta:
        rows, cols = meta_field(meta, "grid", path, list, 2, int)
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: field 'grid' must be at least 1x1, got {[rows, cols]}")
    if rows * cols != len(grid):
        raise DimensionError(f"{path}: {len(grid)} patches for a {rows}x{cols} grid")
    return grid, (rows, cols)


def token_grid(tokens: np.ndarray, shape: tuple[int, int],
               config: dict | None = None) -> tuple[np.ndarray, dict]:
    """(L,) decoded tokens as a (rows, cols) token grid and its sidecar,
    which names the smoothing config that produced them if given."""
    meta = {"kind": "token-grid", "grid": list(shape)}
    if config is not None:
        meta["config"] = config
    return tokens.reshape(shape), meta


def save_tokens(tokens: np.ndarray, shape: tuple[int, int], path: str | Path) -> None:
    """Write (L,) decoded tokens as a (rows, cols) u32 token grid."""
    array, meta = token_grid(tokens, shape)
    write_tensor(array, path, meta=meta)
