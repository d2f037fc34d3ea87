"""BERT encoder multi-head attention (Sec. 6.1 / Fig. 5).

The case study optimizes the element-wise loop nests of the multi-head
attention (MHA) with DaCe's vectorization transformation; the Fig. 5 walk
through extracts the loop nest that scales the attention-score tensor ``tmp``
and shows how the minimum input-flow cut swaps the large ``tmp`` input for
the two smaller matmul operands.

Two builders are provided:

* :func:`build_attention_scores` -- the minimal Fig. 5 structure: the batched
  ``Q @ K^T`` matmul producing ``tmp`` followed by the scaling loop nest,
* :func:`build_encoder_layer` -- a fuller encoder-layer forward pass (QKV
  projections, scores, scaling, softmax, context matmul, output projection,
  bias adds) providing many vectorizable loop-nest instances.

``BERT_LARGE`` matches the paper's model configuration (B=8, H=16, SM=512,
P=64, N=1024, emb=4096); ``BERT_TINY`` is a laptop-friendly configuration
with the same shape relationships, used by tests and benchmarks.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.frontend import add_batched_matmul
from repro.sdfg import SDFG, Memlet, float64

__all__ = [
    "BERT_LARGE",
    "BERT_TINY",
    "build_attention_scores",
    "build_encoder_layer",
    "reference_attention_scores",
]

#: The BERT-large configuration used in the paper (Sec. 6.1).
BERT_LARGE: Dict[str, int] = {"B": 8, "H": 16, "SM": 512, "P": 64, "N": 1024, "emb": 4096}

#: A scaled-down configuration with identical shape relationships
#: (SM >> P, so the Fig. 5 input-space reduction still applies).
BERT_TINY: Dict[str, int] = {"B": 2, "H": 2, "SM": 16, "P": 4, "N": 8, "emb": 16}


def build_attention_scores() -> SDFG:
    """Attention-score computation: ``tmp = Q @ K^T``, ``att = tmp * scale``.

    ``Q`` has shape (B, H, SM, P) and ``K_t`` (B, H, P, SM); the score tensor
    ``tmp`` has shape (B, H, SM, SM) and is transient.  The scaling loop nest
    over ``tmp`` is the vectorization target of Fig. 5.
    """
    sdfg = SDFG("bert_attention_scores")
    sdfg.add_array("Q", ["B", "H", "SM", "P"], float64)
    sdfg.add_array("K_t", ["B", "H", "P", "SM"], float64)
    sdfg.add_transient("tmp", ["B", "H", "SM", "SM"], float64)
    sdfg.add_array("att", ["B", "H", "SM", "SM"], float64)
    sdfg.add_scalar("scale", float64)
    state = sdfg.add_state("mha_scores")
    add_batched_matmul(sdfg, state, "Q", "K_t", "tmp", label="qk_matmul")
    tmp_node = [n for n in state.data_nodes() if n.data == "tmp"][0]
    state.add_mapped_tasklet(
        "scale_tmp",
        {"b": "0:B-1", "h": "0:H-1", "i": "0:SM-1", "j": "0:SM-1"},
        {"in_val": Memlet.simple("tmp", "b, h, i, j"), "s": Memlet.simple("scale", "0")},
        "out_val = in_val * s",
        {"out_val": Memlet.simple("att", "b, h, i, j")},
        input_nodes={"tmp": tmp_node},
    )
    return sdfg


def build_encoder_layer() -> SDFG:
    """A fuller MHA forward pass with several vectorizable loop nests.

    Structure (all heavy matmuls are coarse block tasklets, all element-wise
    steps are map loop nests so the vectorization sweep has targets):

    1. ``Q = X @ Wq``, ``K = X @ Wk``, ``V = X @ Wv``  (projections)
    2. bias adds on Q, K, V  (element-wise loop nests)
    3. ``scores = Q @ K^T`` per (batch, head)
    4. scaling of the scores  (element-wise loop nest)
    5. softmax over the last dimension
    6. ``context = probs @ V``
    7. output projection + bias  (matmul + element-wise loop nest)
    """
    sdfg = SDFG("bert_encoder_layer")
    # Projections operate on (B, H, SM, P) tensors directly to keep the
    # dataflow close to the loop nests the paper optimizes.
    sdfg.add_array("X", ["B", "H", "SM", "P"], float64)
    sdfg.add_array("Wq", ["P", "P"], float64)
    sdfg.add_array("Wk", ["P", "P"], float64)
    sdfg.add_array("Wv", ["P", "P"], float64)
    sdfg.add_array("Wo", ["P", "P"], float64)
    sdfg.add_array("bq", ["P"], float64)
    sdfg.add_array("bk", ["P"], float64)
    sdfg.add_array("bv", ["P"], float64)
    sdfg.add_array("bo", ["P"], float64)
    sdfg.add_scalar("scale", float64)
    for name in ("Q", "K", "V", "Qb", "Kb", "Vb", "scores", "scaled", "probs",
                 "context", "proj"):
        shape = (
            ["B", "H", "SM", "SM"] if name in ("scores", "scaled", "probs")
            else ["B", "H", "SM", "P"]
        )
        sdfg.add_transient(name, shape, float64)
    sdfg.add_array("out", ["B", "H", "SM", "P"], float64)

    state = sdfg.add_state("encoder")

    def node_of(data):
        nodes = [n for n in state.data_nodes() if n.data == data]
        return nodes[-1] if nodes else state.add_access(data)

    # 1. Projections.
    add_batched_matmul(sdfg, state, "X", "Wq", "Q", label="proj_q")
    add_batched_matmul(sdfg, state, "X", "Wk", "K", label="proj_k")
    add_batched_matmul(sdfg, state, "X", "Wv", "V", label="proj_v")

    # 2. Bias adds (element-wise loop nests -> vectorization targets).
    for src, bias, dst in (("Q", "bq", "Qb"), ("K", "bk", "Kb"), ("V", "bv", "Vb")):
        src_node = node_of(src)
        state.add_mapped_tasklet(
            f"bias_{dst}",
            {"b": "0:B-1", "h": "0:H-1", "i": "0:SM-1", "j": "0:P-1"},
            {"in_val": Memlet.simple(src, "b, h, i, j"),
             "b_val": Memlet.simple(bias, "j")},
            "out_val = in_val + b_val",
            {"out_val": Memlet.simple(dst, "b, h, i, j")},
            input_nodes={src: src_node},
        )

    # 3. Attention scores: Qb @ Kb^T via a transposition block tasklet.
    qb, kb = node_of("Qb"), node_of("Kb")
    scores = state.add_access("scores")
    t = state.add_tasklet("qk_scores", ["q", "k"], ["s_out"],
                          "s_out = np.matmul(q, np.swapaxes(k, -1, -2))")
    state.add_edge(qb, None, t, "q", Memlet.full("Qb", ["B", "H", "SM", "P"]))
    state.add_edge(kb, None, t, "k", Memlet.full("Kb", ["B", "H", "SM", "P"]))
    state.add_edge(t, "s_out", scores, None, Memlet.full("scores", ["B", "H", "SM", "SM"]))

    # 4. Scaling loop nest (the Fig. 5 cutout target).
    state.add_mapped_tasklet(
        "scale_scores",
        {"b": "0:B-1", "h": "0:H-1", "i": "0:SM-1", "j": "0:SM-1"},
        {"in_val": Memlet.simple("scores", "b, h, i, j"),
         "s": Memlet.simple("scale", "0")},
        "out_val = in_val * s",
        {"out_val": Memlet.simple("scaled", "b, h, i, j")},
        input_nodes={"scores": scores},
    )

    # 5. Softmax.
    scaled_node = node_of("scaled")
    probs = state.add_access("probs")
    sm = state.add_tasklet(
        "softmax", ["x"], ["y"],
        "m = np.max(x, axis=-1, keepdims=True)\n"
        "e = np.exp(x - m)\n"
        "y = e / np.sum(e, axis=-1, keepdims=True)",
    )
    state.add_edge(scaled_node, None, sm, "x", Memlet.full("scaled", ["B", "H", "SM", "SM"]))
    state.add_edge(sm, "y", probs, None, Memlet.full("probs", ["B", "H", "SM", "SM"]))

    # 6. Context.
    vb = node_of("Vb")
    context = state.add_access("context")
    ctx = state.add_tasklet("context_mm", ["p", "v"], ["c"], "c = np.matmul(p, v)")
    state.add_edge(probs, None, ctx, "p", Memlet.full("probs", ["B", "H", "SM", "SM"]))
    state.add_edge(vb, None, ctx, "v", Memlet.full("Vb", ["B", "H", "SM", "P"]))
    state.add_edge(ctx, "c", context, None, Memlet.full("context", ["B", "H", "SM", "P"]))

    # 7. Output projection + bias.
    add_batched_matmul(sdfg, state, "context", "Wo", "proj", label="proj_out")
    proj_node = node_of("proj")
    state.add_mapped_tasklet(
        "bias_out",
        {"b": "0:B-1", "h": "0:H-1", "i": "0:SM-1", "j": "0:P-1"},
        {"in_val": Memlet.simple("proj", "b, h, i, j"),
         "b_val": Memlet.simple("bo", "j")},
        "out_val = in_val + b_val",
        {"out_val": Memlet.simple("out", "b, h, i, j")},
        input_nodes={"proj": proj_node},
    )
    return sdfg


def reference_attention_scores(Q: np.ndarray, K_t: np.ndarray, scale: float) -> np.ndarray:
    """NumPy reference for :func:`build_attention_scores`."""
    return np.matmul(Q, K_t) * scale
