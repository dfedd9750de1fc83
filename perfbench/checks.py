"""Correctness checks on the program's outputs.

Each check returns a list of problems (empty when it passes). Expected values
come from properties of the method or from the independent code in refnet.py,
never from a stored copy of an earlier run's output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import refnet

# a float32 DMAP cell carries a relative rounding error of at most 2**-24;
# this leaves a wide margin over that and none over one head
COUNT_RTOL = 1e-5
# stored float32 forward vs the float64 direct forward, per map cell
FORWARD_ATOL = 1e-4
FORWARD_RTOL = 1e-3
# central differences on one quadratic piece of the loss are exact up to
# float64 rounding, so any analytic error shows far above this; a smaller
# step is tried when a ReLU input sits too close to zero for the larger one
FD_STEPS = (1e-5, 1e-6, 1e-7)
FD_RTOL = 1e-4
FD_ROUNDING = 1e-12  # relative rounding of the loss, divided by the step below
FD_WEIGHTS_PER_LAYER = 2
FD_BIASES_PER_LAYER = 1
FD_TRIES = 12


def _count_close(value: float, expected: int) -> bool:
    return abs(value - expected) <= COUNT_RTOL * max(expected, 1)


def gt_counts(manifest_path: Path) -> list[str]:
    """Each ground-truth density_q map sums to its annotation's dot count."""
    root, entries = refnet.read_manifest(manifest_path)
    problems = []
    for e in entries:
        n = refnet.dot_count(root / e["annotation_path"])
        total = refnet.read_dmap(root / e["density_q_path"]).sum()
        if not _count_close(total, n) or e["count"] != n:
            problems.append(f"{manifest_path}: {e['id']} density sums to {total!r}, "
                            f"manifest count {e['count']}, annotation has {n} dots")
    return problems


def dropped(n: int, fraction: float) -> int:
    return int(np.rint(fraction * n))


def missing_counts(manifest_path: Path, fraction: float) -> list[str]:
    """Each missing-label map sums to n - rint(fraction * n)."""
    root, entries = refnet.read_manifest(manifest_path)
    problems = []
    for e in entries:
        n = refnet.dot_count(root / e["annotation_path"])
        expected = n - dropped(n, fraction)
        total = refnet.read_dmap(root / e["density_q_path"]).sum()
        if not _count_close(total, expected):
            problems.append(f"{manifest_path}: {e['id']} missing-label map sums to "
                            f"{total!r}, expected {expected} of {n}")
    return problems


def annotated_maps(manifest_path: Path, spec: dict, params: list[np.ndarray],
                   n_images: int = 3) -> list[str]:
    """The first label maps equal the clamped direct forward of the checkpoint."""
    root, entries = refnet.read_manifest(manifest_path)
    problems = []
    for e in entries[:n_images]:
        image = refnet.read_pgm(root / e["image_path"])
        ref = np.maximum(refnet.forward(spec, params, image)[0], 0.0)
        stored = refnet.read_dmap(root / e["density_q_path"])
        err = np.abs(stored - ref) - FORWARD_RTOL * np.abs(ref)
        if stored.shape != ref.shape or err.max() > FORWARD_ATOL:
            problems.append(f"{manifest_path}: {e['id']} label map differs from the "
                            f"direct forward pass by up to {np.abs(stored - ref).max():.3g}")
    return problems


def gradients(checkpoint: Path, image: np.ndarray, target: np.ndarray,
              seed: int) -> list[str]:
    """Program backprop on a float64 copy vs central differences.

    The analytic gradients come from the program (float64 load, forward,
    mse_loss, backward); the differences come from refnet's forward. A probe
    whose step changes a ReLU sign or a pooling argmax straddles a kink; it is
    retried one-sided and with smaller steps, then the next sampled element
    is tried.
    """
    from crowdcount.nn import load_checkpoint, mse_loss

    net = load_checkpoint(checkpoint, dtype=np.float64)
    x = image[None, None].astype(np.float64)
    y = target[None, None].astype(np.float64)
    _, grad = mse_loss(net.forward(x), y)
    net.backward(grad)
    analytic = [p.grad for p in net.parameters()]

    spec, params = refnet.read_nnck(checkpoint)

    def loss_at(pi: int, ei: int, delta: float):
        flat = params[pi].reshape(-1)
        orig = flat[ei]
        flat[ei] = orig + delta
        try:
            out, decisions = refnet.forward(spec, params, image)
        finally:
            flat[ei] = orig
        return float(np.sum((out - target) ** 2)), decisions

    loss0, base = loss_at(0, 0, 0.0)

    def difference(pi: int, ei: int) -> tuple[float, float, float] | None:
        """(derivative, step, loss) from probes that all keep the base decisions.

        Within one linear region the loss is quadratic in a single parameter,
        so both the central and the one-sided three-point formula are exact
        up to rounding; the one-sided one serves when a kink lies on one side.
        """
        for h in FD_STEPS:
            up, dec_up = loss_at(pi, ei, h)
            down, dec_down = loss_at(pi, ei, -h)
            ok_up = refnet.same_decisions(base, dec_up)
            ok_down = refnet.same_decisions(base, dec_down)
            if ok_up and ok_down:
                return (up - down) / (2.0 * h), h, up
            if ok_up or ok_down:
                side, near = (1.0, up) if ok_up else (-1.0, down)
                far, dec_far = loss_at(pi, ei, 2.0 * side * h)
                if refnet.same_decisions(base, dec_far):
                    return side * (4.0 * near - 3.0 * loss0 - far) / (2.0 * h), h, far
        return None

    rng = np.random.default_rng(seed)
    problems = []
    for pi, (p, a) in enumerate(zip(params, analytic)):
        want = FD_WEIGHTS_PER_LAYER if p.ndim == 4 else FD_BIASES_PER_LAYER
        a_flat = a.reshape(-1)
        live = np.flatnonzero(a_flat)
        pool = live if live.size else np.arange(a_flat.size)
        checked = 0
        for ei in rng.permutation(pool)[:FD_TRIES]:
            found = difference(pi, ei)
            if found is None:
                continue
            fd, h, loss = found
            an = float(a_flat[ei])
            if abs(an - fd) > FD_RTOL * max(abs(an), abs(fd)) + FD_ROUNDING * (1.0 + abs(loss)) / h:
                problems.append(f"{checkpoint}: parameter {pi}[{ei}] gradient {an!r} "
                                f"vs central difference {fd!r} (step {h:g})")
            checked += 1
            if checked == want:
                break
        if checked < want:
            problems.append(f"{checkpoint}: parameter {pi}: only {checked} of {want} "
                            f"probes avoided a kink")
    return problems


def metric_rows(rows: list[dict], where: str) -> list[str]:
    """GAME at grid 4 bounds MAE from above, and SSIM never exceeds 1."""
    problems = []
    for r in rows:
        if r["game_grid"] != 4 or r["game"] < r["mae"] - 1e-9 * max(1.0, r["mae"]) \
                or r["ssim"] > 1.0 + 1e-12:
            problems.append(f"{where}: metrics row {r['model']}/{r['regime']} has "
                            f"GAME({r['game_grid']}) {r['game']!r}, MAE {r['mae']!r}, "
                            f"SSIM {r['ssim']!r}")
    return problems
