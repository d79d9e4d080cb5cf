"""Plain-numpy references for one input vector, and the tape forward they check.

The library has one forward per adapter scheme, `tape_branch`; tests run it
through `linear_forward`, a one-projection tape built as merge-infer builds
it, and compare the rows it gives with these references.
"""

import numpy as np

from hydra_peft.autodiff import Tape


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
    (or None) on it, for the input rows x: x w0^T plus the adapter's branch."""
    tape = Tape()
    xs = tape.input(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    out = tape.matmul(xs, tape.input(w0), transpose_b=True)
    if adapter is None:
        return tape.value(out), None
    branch, gate = adapter.tape_branch(tape, xs, "proj", False)
    return (tape.value(tape.add(out, branch)),
            None if gate is None else tape.value(gate))
