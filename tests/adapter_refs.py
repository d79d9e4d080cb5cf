"""Plain-numpy references for one input vector, and the tape forward they check.

The library has one forward per adapter scheme, `tape_branch`; tests run it
through `linear_forward`, a one-projection linear model, and compare the rows
it gives with these references.
"""

import numpy as np

from hydra_peft import toy_model as tm


def lora_ref(x, w0, ad):
    """W0 x + (alpha/r) B (A x)."""
    return w0 @ x + ad.scaling * (ad.b @ (ad.a @ x))


def hydra_ref(x, w0, ad):
    """(W0 x + (alpha/r) sum_i w_i B_i (A x), the gate weights w = softmax(W_g^T A x))."""
    z = ad.a_shared @ x
    logits = ad.w_gate.T @ z
    gate = np.exp(logits - logits.max())
    gate = gate / gate.sum()
    return w0 @ x + ad.scaling * sum(w * (b @ z) for w, b in zip(gate, ad.experts)), gate


def linear_forward(w0, adapter, x):
    """(output rows, gate rows or None) of the base weight w0, with `adapter`
    (or None) on it, for the input rows x, through toy_model's tape graph."""
    x = np.atleast_2d(x)
    d, k = w0.shape
    # the layout tm.linear_model(k, d, seed) gives, without drawing a weight
    model = tm.ToyModel("linear", d, k, d, {"proj": w0},
                        {} if adapter is None else {"proj": adapter})
    graph = tm.build_graph(model, tm.Batch(inputs=x, targets=np.zeros((len(x), d))),
                           trainable="none")
    gate = graph.gate_slots.get("proj")
    return (graph.tape.value(graph.logits_slot),
            None if gate is None else graph.tape.value(gate))
