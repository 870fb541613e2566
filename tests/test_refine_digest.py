"""Byte-level oracle for ``refine``.

SHA-256 digests of the exact ``(nodes, elements)`` that ``refine`` returns
on seeded markings.  Any change in node coordinates, node numbering,
element order or cycle start shows up as a digest mismatch.
"""

import hashlib

import numpy as np
import pytest

from polyrefine import refine, structured_quad_mesh

from sample_meshes import base_mesh_pool


def mesh_digest(nodes, elements) -> str:
    h = hashlib.sha256()
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    h.update(np.array(nodes.shape, dtype=np.int64).tobytes())
    h.update(nodes.tobytes())
    h.update(np.array([len(c) for c in elements], dtype=np.int64).tobytes())
    for cycle in elements:
        h.update(np.asarray(cycle, dtype=np.int64).tobytes())
    return h.hexdigest()


def refine_pool_mesh(mesh_index: int, seed: int):
    """Two passes of seeded random marking on one mesh of the pool."""
    rng = np.random.default_rng(1000 * mesh_index + seed)
    nodes, elements = base_mesh_pool()[mesh_index]
    for _ in range(2):
        k = int(rng.integers(1, max(2, len(elements) // 3) + 1))
        nodes, elements = refine(nodes, elements, rng.choice(len(elements), k, replace=False))
    return nodes, elements


POOL_DIGESTS = {
    (0, 0): "9fae415be494b476718a24eb82fdfe2800cc7b3bc6e3e1c3cef0a4f6b3fd4225",
    (0, 1): "59047a69e667d75b8845d57d151acb1c5f6274b717e14d940f5f9e6b2dbab6e5",
    (0, 2): "36be74405e5f41f60dfddd3487062073e9dea4cce145fac7e88808a7093ce05b",
    (1, 0): "0a7b1b93383602a6142c6b25636fae3d36bbef3c99335c5af7a0e2aa5d4b6157",
    (1, 1): "955de66a6ac06540b9d5f73d8577301139755b723cfe73405ced3381b2ee1fac",
    (1, 2): "6122e73151667cd08eaab5140ce1a521fa55fd4e25e85e4ea12343dcf45d384c",
    (2, 0): "3ebb2973baa9e283f378011cc6735f902ee96d530b0373ed6222848a0ea6f6ad",
    (2, 1): "3f4e1c976b5c35baadc9594c934679227a9ec06bf24679f4aaf61e2ca5388924",
    (2, 2): "1f1a6fcd90f528b435eec9c4fa70843b99960d49b18c59c3dd4663b84c464750",
    (3, 0): "2c8cdc5140bc30cb1c1e048616e2366abc039890c991db6846537c6e5cf1e9a5",
    (3, 1): "43a2aba24b7e272c322dabbbe5409c1c06ddab6ff9a787127c7a148e49475b8f",
    (3, 2): "ad98a1f3e707d7fafea144649db4dcbed5a05befdeefd9a21faa2715a6895d82",
    (4, 0): "66829ec12c893571db4f13094e44f3328edce716d067d40befe6ce9bf706541e",
    (4, 1): "5420d4ccabb44c74d4cfab07c8106cda65f63fb4cd9772302e832c811eaca169",
    (4, 2): "1a2452bab33607c82aaeccea7f46fd5c0e1e6fc5f70135531229b4f7970d5f8e",
    (5, 0): "7cb29615be5d0995db83650b0a232f452e84c0f26bdd57518fa7785befcdcdc4",
    (5, 1): "7c43aab075bfab50b58ed85f5dd0eae1c23fae603ac817f88e8c701041ce5d6c",
    (5, 2): "e947ad24b0971491dd981589d38b5b3084cf359e218d91176128faa1ba5ac95c",
    (6, 0): "6c69695fb2734198b42809f56b328367898ee7510ded1d1779bb6d9fdd58b8f1",
    (6, 1): "b63ed0b8ed23559f6a780ea35e99ae9a44a1eb432d3cc4d889f6d80e152703b5",
    (6, 2): "12b714078499eed7a757fe7dbb4f697cca0636f5a5b9123ce0696cc79532f2cd",
    (7, 0): "ff436fd334e04126504d8ce24959b61f54be4efb98e762543720308a65b5fc02",
    (7, 1): "a10eab3f0e1ba4dde7a4d656ed83a6635c9fd2c4b87d12fc383eb79b428e488e",
    (7, 2): "947018fb2d527f77507c7b1e28a6cb17a0e6c512ab904009dffe1288bc46d22e",
}

MULTI_PASS_DIGESTS = {
    1: "2f8f055d225ded7887a9c00d3385f127992d24290ef37b26227d4cb019993d60",
    2: "ac306d5ced0a7b2f3a50d1b4facd8423a424bcebfb44215ebb1f8adac3ac5c38",
}


@pytest.mark.parametrize("key", sorted(POOL_DIGESTS))
def test_pool_digest(key):
    assert mesh_digest(*refine_pool_mesh(*key)) == POOL_DIGESTS[key]


@pytest.mark.parametrize("seed", sorted(MULTI_PASS_DIGESTS))
def test_multi_pass_digest(seed):
    rng = np.random.default_rng(seed)
    nodes, elements = structured_quad_mesh(8)
    for _ in range(4):
        k = max(1, int(0.15 * len(elements)))
        nodes, elements = refine(nodes, elements, rng.choice(len(elements), k, replace=False))
    assert mesh_digest(nodes, elements) == MULTI_PASS_DIGESTS[seed]
