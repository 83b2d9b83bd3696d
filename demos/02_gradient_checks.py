#!/usr/bin/env python3
"""Verify the hand-written gradients against central finite differences."""

import numpy as np

from atmarl.nn import (
    DenseLayer,
    GruCell,
    dense_backward,
    gru_caches,
    gru_forward,
    gru_sequence_backward,
    stack_caches,
    stack_forward,
)


def finite_difference(fn, arr, h=1e-5):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        plus = fn()
        arr[idx] = orig - h
        minus = fn()
        arr[idx] = orig
        grad[idx] = (plus - minus) / (2 * h)
        it.iternext()
    return grad


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def main():
    rng = np.random.default_rng(0)

    print("Dense layer, tanh, 3 -> 4:")
    layer = DenseLayer.create(rng, 3, 4)
    x = rng.normal(size=3)
    target = rng.normal(size=4)

    def dense_run():
        # buffers of one step: the forward fills row 0, the backward reads the step axis
        (cache,) = stack_caches([layer], x[None])
        stack_forward([layer], [cache])
        return cache

    def dense_loss():
        return float(((dense_run()[2] - target) ** 2).sum())

    cache = dense_run()
    grads = {name: np.zeros_like(param) for name, param in layer.params().items()}
    dense_backward(layer, cache, 2 * (cache[2] - target), grads)
    for name, param in layer.params().items():
        err = rel_err(grads[name], finite_difference(dense_loss, param))
        print(f"  {name}: relative error {err:.2e}")

    print("GRU cell, BPTT over a length-5 sequence:")
    cell = GruCell.create(rng, 3, 4)
    xs = [rng.normal(size=3) for _ in range(5)]
    targets = [rng.normal(size=4) for _ in range(5)]
    h0 = np.zeros(4)

    def gru_run():
        # row t of ``a`` holds step t's input and the hidden state it starts from
        a, zr, a_n, n = gru_caches(cell, len(xs))
        a[0, 3:] = h0
        for t, x in enumerate(xs):
            a[t, :3] = x
            gru_forward(cell, a[t], zr[t], a_n[t], n[t], a[t + 1, 3:])
        return a[1:, 3:], (a[:-1], zr, a_n, n)

    def gru_loss():
        hs, _ = gru_run()
        return float(sum(((h - t) ** 2).sum() for h, t in zip(hs, targets)))

    hs, caches = gru_run()
    dhs = [2 * (h - t) for h, t in zip(hs, targets)]
    grads = cell.zeros_like()  # the backward adds into an accumulator cell
    gru_sequence_backward(cell, caches, dhs, grads)
    for name, param in cell.params().items():
        err = rel_err(grads.params()[name], finite_difference(gru_loss, param))
        print(f"  {name}: relative error {err:.2e}")

    print("All gradients agree with finite differences.")


if __name__ == "__main__":
    main()
