"""Reference computations the benchmark checks the library against.

Nothing here calls into ``patchsmooth``: each function works from the
arrays the benchmark generated itself and from the formulas the library
documents (natural-log JS, ties broken by (distance, pair index, patch
index), a tau-softmax over negated distances, an alpha blend, argmax with
ties to the lowest token id).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

#: Patches whose reference top-two gap is at most this are exempt from
#: the token comparison: the two leading tokens are tied within rounding.
GAP_EXEMPT = 1e-9


class CheckFailed(AssertionError):
    """The library's output disagreed with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- files -------------------------------------------------------------------


def read_pncl(path) -> np.ndarray:
    """Parse a PNCL tensor file (magic, version, dtype, rank, dims, meta,
    payload, CRC32) without the library's reader."""
    blob = open(path, "rb").read()
    require(blob[:4] == b"PNCL", f"{path}: bad magic")
    require(zlib.crc32(blob[:-4]) & 0xFFFFFFFF == struct.unpack("<I", blob[-4:])[0],
            f"{path}: bad checksum")
    _, code, rank = struct.unpack_from("<III", blob, 4)
    dims = struct.unpack_from(f"<{rank}Q", blob, 16)
    offset = 16 + 8 * rank
    (meta_len,) = struct.unpack_from("<I", blob, offset)
    start = offset + 4 + meta_len
    dtype = {1: "<f4", 2: "<u4"}[code]
    return np.frombuffer(blob[start:-4], dtype=dtype).reshape(dims)


# -- retrieval ---------------------------------------------------------------


def retrieval_orders(features: np.ndarray, queries: np.ndarray, m: int) -> list[list[int]]:
    """For each query, the indices of the m rows with the largest cosine
    similarity to it, by a full stable sort (ties to the lower row)."""
    q = queries.reshape(len(queries), -1).astype(np.float64)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    scores = np.empty((len(queries), len(features)))
    for lo in range(0, len(features), 512):
        rows = features[lo:lo + 512]
        rows = rows.reshape(len(rows), -1).astype(np.float64)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        scores[:, lo:lo + 512] = q @ rows.T
    return [[int(i) for i in np.argsort(-row, kind="stable")[:m]] for row in scores]


# -- smoothing ---------------------------------------------------------------


def normalise(scores: np.ndarray) -> np.ndarray:
    rows = np.asarray(scores, dtype=np.float64)
    return rows / rows.sum(axis=-1, keepdims=True)


def through_f32_file(probs: np.ndarray) -> np.ndarray:
    """What a distribution becomes after an f32 tensor file round trip."""
    return normalise(probs.astype(np.float32))


def js_rows(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Natural-log JS divergence between every row of p and the vector s."""
    z = (p + s) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(p > 0, p * np.log(p / z), 0.0)
        right = np.where(s > 0, s * np.log(s / z), 0.0)
    return np.maximum(0.5 * (left.sum(axis=-1) + right.sum(axis=-1)), 0.0)


def smooth_reference(query: np.ndarray, pool: np.ndarray, k: int, tau: float,
                     alpha: float, all_patch: bool) -> np.ndarray:
    """Dense JS k-NN smoothing.

    ``query`` is (L, V), ``pool`` is (W, L, V), both already normalised.
    Returns the (L, V) smoothed distributions.
    """
    width, patches, _ = pool.shape
    out = np.empty_like(query)
    for l in range(patches):
        if all_patch:
            candidates = pool.reshape(width * patches, -1)
            pair_idx = np.repeat(np.arange(width), patches)
            patch_idx = np.tile(np.arange(patches), width)
        else:
            candidates = pool[:, l, :]
            pair_idx = np.arange(width)
            patch_idx = np.full(width, l)
        d = js_rows(candidates, query[l])
        chosen = np.lexsort((patch_idx, pair_idx, d))[:k]
        w = np.exp(-(d[chosen] - d[chosen].min()) / tau)
        w /= w.sum()
        pooled = (w[:, None] * candidates[chosen]).sum(axis=0)
        out[l] = (1.0 - alpha) * query[l] + alpha * pooled
    return out


def argmax_with_exempt(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmax, and a mask of rows whose top-two gap is too small
    for the argmax to be decided by the formula alone."""
    top_two = np.sort(dists, axis=1)[:, -2:]
    return np.argmax(dists, axis=1), (top_two[:, 1] - top_two[:, 0]) <= GAP_EXEMPT


# -- the desk-scale sweep ----------------------------------------------------


def _desk_scores(world_items, pair_id, anchor_id, size, weights):
    beta_truth, beta_pair, noise = weights
    truth = world_items[anchor_id].output_tokens
    pair = world_items[pair_id].output_tokens
    vec = np.full((len(truth), size), noise / size)
    rows = np.arange(len(truth))
    vec[rows, truth] += beta_truth
    vec[rows, pair] += beta_pair
    return vec / vec.sum(axis=1, keepdims=True)


def _desk_js(p, q):
    z = (p + q) / 2.0
    total = 0.0
    for side in (p, q):
        mask = (side > 0) & (z > 0)
        total += float(np.sum(side[mask] * (np.log(side[mask]) - np.log(z[mask]))))
    return max(0.5 * total, 0.0)


def desk_sweep_reference(world, seed: int, m_values, n_queries: int,
                         weights=(0.45, 0.45, 0.1), alpha=1.0, tau=1.0) -> dict:
    """Accuracies of one seed of the desk sweep, from the documented
    formulas: queries drawn with ``default_rng(seed)`` from the query
    split, cosine retrieval over the flattened feature maps, the
    truth/pair/uniform mixture scorer, pool mode q (query as anchor),
    JS k-NN with k = min(5, m), tau-softmax, alpha blend, argmax."""
    total = sum(weights)
    weights = tuple(w / total for w in weights)
    size = world.codebook.size
    items = world.items
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(world.query_ids), size=n_queries, replace=False))
    queries = [world.query_ids[i] for i in picked]

    support = world.support_ids
    feats = [items[i].features.ravel() / np.linalg.norm(items[i].features.ravel())
             for i in support]
    row = {}
    for m in m_values:
        k = min(5, m)
        base_acc, smooth_acc = [], []
        for q in queries:
            qf = items[q].features.ravel() / np.linalg.norm(items[q].features.ravel())
            sims = [float(np.dot(f, qf)) for f in feats]
            order = sorted(range(len(support)), key=lambda i: (-sims[i], i))[:m]
            pool = [_desk_scores(items, support[i], q, size, weights) for i in order]
            s = pool[0]
            truth = items[q].output_tokens
            smoothed = np.empty_like(s)
            for l in range(len(truth)):
                d = np.array([_desk_js(u[l], s[l]) for u in pool])
                chosen = sorted(range(len(pool)), key=lambda j: (d[j], j))[:k]
                w = np.exp(-(d[chosen] - d[chosen].min()) / tau)
                w = w / w.sum()
                pooled = np.zeros(size)
                for wj, j in zip(w, chosen):
                    pooled += wj * pool[j][l]
                smoothed[l] = (1.0 - alpha) * s[l] + alpha * pooled
            base_acc.append(float(np.mean(np.argmax(s, axis=1) == truth)))
            smooth_acc.append(float(np.mean(np.argmax(smoothed, axis=1) == truth)))
        row["baseline"] = float(np.mean(base_acc))
        row[f"m={m}"] = float(np.mean(smooth_acc))
    return row
