"""Train once, ship a deployment artifact, classify from it.

FINN's deployment story is "train offline, bake weights+thresholds into
the bitstream".  This example shows the software equivalent: fold a
trained binarized network, save the compact `.npz` artifact, reload it in
a fresh process-like context (no training code, no RNG state), and verify
bit-exact classification — plus the size win binarisation buys.

Run:  python examples/deploy_artifact.py        (~1 minute)
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.bnn import clip_weights, fold_network, load_folded_bnn, save_folded_bnn
from repro.data import normalize_to_pm1, synthetic_cifar10
from repro.models import build_finn_cnv
from repro.nn import Adam, SquaredHinge, Trainer


def main() -> None:
    rng = np.random.default_rng(0)
    splits = synthetic_cifar10(num_train=600, num_test=200, seed=0)
    x_train = normalize_to_pm1(splits.train.images)
    x_test = normalize_to_pm1(splits.test.images)

    print("training a small binarized CNV ...")
    net = build_finn_cnv(scale=0.1, rng=rng)
    trainer = Trainer(
        net, SquaredHinge(), Adam(net.params(), lr=0.003, post_update=clip_weights), rng=rng
    )
    trainer.fit(x_train, splits.train.labels, epochs=4, batch_size=64)

    print("folding to deployment form (BN+sign -> thresholds, ±1 weights) ...")
    folded = fold_network(net, num_classes=10)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cnv_deploy.npz"
        save_folded_bnn(folded, path)
        artifact_kib = path.stat().st_size / 1024

        float_params_kib = sum(p.size for p in net.params()) * 8 / 1024
        print(f"artifact size: {artifact_kib:.1f} KiB "
              f"(float64 training weights: {float_params_kib:.1f} KiB)")

        print("reloading and verifying bit-exact classification ...")
        loaded = load_folded_bnn(path)
        original = folded.predict(x_test)
        reloaded = loaded.predict(x_test)
        assert (original == reloaded).all(), "deployment artifact mismatch!"

    accuracy = float((original == splits.test.labels).mean())
    print(f"OK — {len(splits.test)} images classified identically; "
          f"accuracy {100 * accuracy:.1f}%")


if __name__ == "__main__":
    main()
