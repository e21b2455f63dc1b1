"""Fault injection for the tests that check a verify row can fail."""

import numpy as np

from fusionneck.tensor import _accum


def corrupted(build):
    """A gradient case builder like ``build`` whose backward pass is wrong.

    The built loss records one extra, bogus 1e-2 gradient on its first param,
    as a faulty backward rule would.
    """

    def build_corrupted(rng):
        loss_fn, params = build(rng)
        target = params[0]

        def loss(tape):
            out = loss_fn(tape)
            if tape is not None:
                tape.record(lambda: _accum(target, np.full_like(target.data, 1e-2)))
            return out

        return loss, params

    return build_corrupted
