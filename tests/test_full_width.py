"""The paper-width model still learns: the full profile (d = 576, 4 layers,
8 heads, lr 3e-5) pre-trained for two epochs on a desk-sized corpus lowers
its held-out masked loss by criterion 5's bound of 20%. Criterion 5 checks
learning at the tiny profile only, so this guards changes that move
full-width numbers and not tiny ones. It takes about 16 s on 2 CPUs."""

import time

from bertplm import cli


def test_full_profile_learns_in_two_epochs(tmp_path, capsys):
    started = time.monotonic()
    corpus, vocab = tmp_path / "c.pps", tmp_path / "v.txt"
    log = tmp_path / "pretrain.log"
    assert cli.main(["gen-data", "--utterances", "400", "--seed", "51",
                     "--out", str(corpus), "--vocab", str(vocab)]) == cli.EXIT_OK
    assert cli.main(["pretrain", "--data", str(corpus), "--vocab", str(vocab),
                     "--out", str(tmp_path / "pre.ckpt"), "--log", str(log),
                     "--seed", "1", "--set", "epochs=2"]) == cli.EXIT_OK
    held = [float(line.split("\t")[3])
            for line in log.read_text().splitlines()
            if line.split("\t")[1:3] == ["heldout", "plm_loss"]]
    assert len(held) == 3  # step 0 plus one per epoch
    drop = (held[0] - held[-1]) / held[0]
    assert drop >= 0.20
    print(f"\nfull profile: held-out masked loss {held[0]:.3f} -> "
          f"{held[-1]:.3f} ({100 * drop:.0f}% drop >= 20%) in "
          f"{time.monotonic() - started:.0f}s")
