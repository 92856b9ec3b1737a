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
    # The CSV lost its always-empty trailing error column; before that the
    # digest was 97614211...79f4.
    "optimize --metric lambda1 --losses 0.05,0.1,0.2 --grid-seed 60":
        "d98f8be6ac1667a61e9411f01b5474fb3aa67da48cf894d67139b9fe8080a5c1",
    "optimize --metric lambda1 --losses 0.05,0.1,0.2 --grid-seed 60 --format json":
        "cf184505073782fc8e45097bc452a1fd862d6af721704e28da11f20a997b54b9",
    # The two finite-difference lines changed when the derivative oracle
    # became Richardson-extrapolated at step 1e-4 (3.015e-07 -> 5.059e-09,
    # 8.286e-08 -> 2.731e-09); before that the digest was 3460da15...407e.
    # The oracle line changed when the cascade began composing its passes
    # by repeated squaring (4.530e-14 -> 4.441e-14); before that the digest
    # was eb0c5f93...8c35.
    "verify":
        "af3f499a70b8f0abbd5e66e2671cdeb951db75de5ecd6e6f5913eb378e3e7948",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_digest(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
