"""Golden bytes: sha256 digests of the CLI's stdout for fixed argv.

The digests pin every byte the CLI prints, so a change to formatting,
row order or a floating-point route shows here even when the numbers it
prints would still pass every tolerance.  They were recorded with numpy
2.4.6 on x86-64; regenerate one only for an intended output change and
say which one changed and why.
"""

import hashlib

import pytest

from recycled_mzi.cli import main

GOLDEN = {
    "point --phi 2.5702 --theta0 0.3524 --loss 0.10 --alpha 1":
        "1fb9738ae509069ea141a25446da65a0bb1e09afca4ddefff96aa04c690ea1c5",
    # Zero amplitude: the sensitivities print as the JSON literal Infinity.
    "point --phi 2.5702 --theta0 0.3524 --loss 0.10 --alpha 0":
        "36ff17d81ec3a7d1ed02740b84e2ea59f19fe99e7bfb5e7eb8a47cff305e9542",
    "sweep --metric lambda1 --loss 0.1 --n 50":
        "371f49eebf63eaf4b0fe82d7226b3a0ca0298d7778dec46133612da7af65176e",
    "sweep --metric lambda2 --loss 0.1 --n 50":
        "d47eb785f20fbffba7c701ce9e8d1dfd001cdc83de255847f162b61de2001e8e",
    "sweep --metric lambda3 --loss 0.1 --n 50":
        "0ba18760e76d16ee073918a142cc9a1a40b2e414d360983c3b54f6b941eff6dd",
    # README's figure-data landscapes at 4 x 4 cells.  These digests were
    # recorded from the files of the figure script the CLI replaced.
    "sweep --metric lambda1 --loss 0.05 --n 4":
        "66b75765d396e3ad977374838bdeaaff739f44f189aa90084e057e2929e8e196",
    "sweep --metric lambda1 --loss 0.1 --n 4":
        "4153efcc61ea6d45a21f116b5a5db5a43e419bde7b46e530d57635eb8b1db9d1",
    "sweep --metric lambda1 --loss 0.15 --n 4":
        "154266dfda3ae8b3d6af40fd6600a64a77f49f1c94928cc3515e6a722381f56a",
    "sweep --metric lambda1 --loss 0.2 --n 4":
        "0a276295f12eee0bd83e4e525962f0a677bc88e44a043fc5236184a957bab207",
    "sweep --metric lambda2 --loss 0.05 --n 4":
        "7527a46d4922365a4a4121637655950f3e17d65061ec575214209fa176516dfb",
    "sweep --metric lambda2 --loss 0.1 --n 4":
        "c835efba7f6b7e69e7b5db48e732e123119e7278e7cd2478fcb171e86eab855c",
    "sweep --metric lambda2 --loss 0.15 --n 4":
        "64c0e202cce4b3723cfc51234ddec2445545973da9f2fe2d1d50a41d10a77b04",
    "sweep --metric lambda2 --loss 0.2 --n 4":
        "f66cfd67c426bec2b888199c57e862f2cc4f126aaac8ce840ba519424364d13a",
    "sweep --metric lambda3 --loss 0.05 --n 4":
        "45c42c4ee3b2e83b30af6b8346dc946248e7ab5236dccf39896a600c7ebc82c6",
    "sweep --metric lambda3 --loss 0.1 --n 4":
        "805f3b06a7272e00c62d997bbb75078a8c32d084e6702526f3c6234b1b6a7f9b",
    "sweep --metric lambda3 --loss 0.15 --n 4":
        "bdd316ba7c411a3418cd2d302ff43e271ab92743021d45fb06f01d0ac6700c40",
    "sweep --metric lambda3 --loss 0.2 --n 4":
        "e5389806ef7dec831534751e88d5f650050bd8bbc4833375bfb31efeeb3707b3",
    # README's optimum-versus-loss curves, on five of its losses.
    "optimize --metric lambda1 --losses 0.02,0.14,0.26,0.38,0.5":
        "31f6df166e8f5439805a9f19d4bad2514238c760a0f96592b396e50e8fe0b942",
    "optimize --metric lambda2 --losses 0.02,0.14,0.26,0.38,0.5":
        "eea82f1114d2854736933ab5fe4b1c6301ebd881b6746237766d58d8469666e0",
    # These two ran at --grid-seed 60 (d98f8be6...a5c1, cf184505...54b9)
    # until that flag was deleted; the digests below were recorded from the
    # same argv without it at the commit before the deletion.
    "optimize --metric lambda1 --losses 0.05,0.1,0.2":
        "5aa8718e2b37839d84c280d3a568fadfef2d2489480ffab0143aa0357b1514b1",
    "optimize --metric lambda1 --losses 0.05,0.1,0.2 --format json":
        "02895bb69811268d951cfee322e0210ffbee3addb668d135296ffeed97ae338e",
    # Three lines changed when the cascade became the one oracle: the two
    # factor lines compare the kernels with the cascade's phase slope instead
    # of the closed-form derivative (3.996e-13 -> 4.018e-13, 2.834e-13 ->
    # 4.482e-13), and the photon line the lambda3 kernel with the cascade's
    # coefficients instead of the closed form's (6.079e-14 -> 6.176e-14);
    # before that the digest was 5a80fbeb...3037.
    # The oracle line changed when every point of the sample began making
    # the same 2**k cascade passes, set by the sample's largest loop ratio,
    # instead of its own minimal count (4.441e-14 -> 1.986e-15); before that
    # the digest was 91b98a56...fd9e.
    # The two derivative lines changed when the exact phase derivative of
    # upsilon replaced the Richardson finite differences, and were renamed
    # "vs exact derivative" (5.059e-09 -> 3.996e-13, 2.731e-09 -> 2.834e-13);
    # before that the digest was af3f499a...7948.
    # The two finite-difference lines changed when the derivative oracle
    # became Richardson-extrapolated at step 1e-4 (3.015e-07 -> 5.059e-09,
    # 8.286e-08 -> 2.731e-09); before that the digest was 3460da15...407e.
    # The oracle line changed when the cascade began composing its passes
    # by repeated squaring (4.530e-14 -> 4.441e-14); before that the digest
    # was eb0c5f93...8c35.
    "verify":
        "b7a790ec795f0794cfbeb3043a06dd5aa38a1c52ba0339b75409d5955ea89fd7",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_digest(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
