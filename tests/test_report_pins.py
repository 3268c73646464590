"""Exit code and sha256 of `cli.run`'s stdout on a sweep of command lines,
and sha256 pins of the group laws and sum tables the benchmark builds.

The pins were computed before the kernel solves left the rank table and
the law checks left `fgl`; the p = 5 `verify` pins and the left sides of
`check_additive`, before `substitute` built the powers of an image to
fewer digits; the inconclusive `verify`, `--help` and `--config` pins,
before the functions no command reached left `src`.  A change that keeps
every report byte for byte leaves them as they are.  The supersingular
digits of the p = 3 cross-D runs are pinned as they are printed today,
not as they should read.
"""

import contextlib
import hashlib
import io
import json

import pytest

from arithjet.characters import (jet_group_law, kernel_group_law,
                                 solve_additive)
from arithjet.cli import run
from arithjet.fgl import formal_group_from_weierstrass
from arithjet.ring import BaseRingSpec
from arithjet.witt import structural_polynomials

RINGS = [(3, 1), (5, 1), (5, 2), (7, 1), (5, 3), (7, 5)]   # (p, e)
CURVES = [(1, 1), (0, 1), (2, 0)]                           # (a4, a6)

ARGVS = (
    [f"--cmd crystal --p {p} --e {e} --a4 {a4} --a6 {a6} --deg {D}"
     for p, e in RINGS for D in (p * p + 2, p ** 3) for a4, a6 in CURVES]
    + [f"--cmd crystal --p {p} --e {e} --deg {p ** 3}" for p, e in RINGS]
    # the degree cap boundary of the order-3 and order-2 solves
    + [f"--cmd crystal --p 3 --a4 1 --a6 1 --deg {D} --nmax {n}"
       for D in range(2, 12) for n in (3, 2)]
    + ["--cmd crystal --p 3 --a4 1 --a6 1 --nmax 1",
       "--cmd crystal --p 3 --a4 1 --a6 1 --nmax 4",
       "--cmd crystal --p 5 --a4 0 --a6 0",
       "--cmd crystal --p x",
       "--cmd witt --p 3 --nmax 2",
       "--cmd witt --p 5 --e 2 --nmax 1",
       "--cmd verify --p 3 --a4 1 --a6 1 --prec 1 --deg 27",
       "--cmd verify --p 3 --a4 1 --a6 1 --prec 1 --deg 9"]
    # pullbacks that substitute into characters with non-unit coefficients,
    # at e = 1, 2 and 3, ordinary and supersingular
    + ["--cmd verify --p 5 --a4 1 --a6 1 --deg 125 --prec 2",
       "--cmd verify --p 5 --e 2 --a4 1 --a6 1 --deg 27 --prec 2",
       "--cmd verify --p 5 --e 3 --a4 1 --a6 1 --deg 27 --prec 2",
       "--cmd verify --p 5 --a4 0 --a6 1 --deg 27 --prec 3"]
    # below the Psi_3 cap q^(n-1) = 9: psi_tower is inconclusive, exit 2;
    # and the usage text
    + ["--cmd verify --p 3 --a4 1 --a6 1 --prec 1 --deg 8",
       "--help"]
)

PINS = {
    "--cmd crystal --p 3 --e 1 --a4 1 --a6 1 --deg 11": (
        0, "5506112d41febf51bd1f130d4e1ecdad625ae4a4ddfa4f639d252875a4209dbd"),
    "--cmd crystal --p 3 --e 1 --a4 0 --a6 1 --deg 11": (
        1, "9ba0ead6cf90dd649d56395d7a4d2db500e3931678db4eb856eefd0bdeab444c"),
    "--cmd crystal --p 3 --e 1 --a4 2 --a6 0 --deg 11": (
        0, "d321639ad51b50c34cc5d49915fee683214e402f1f6f7e4b0546a320ccc1f598"),
    "--cmd crystal --p 3 --e 1 --a4 1 --a6 1 --deg 27": (
        0, "e50052102194fe320840cd789352f31451685f9224557d2faa8341899ea36dc4"),
    "--cmd crystal --p 3 --e 1 --a4 0 --a6 1 --deg 27": (
        1, "7fa56a3c554072911ee6b8a1074a9df68a29bc30ea7d734d6b02faa991893b2e"),
    "--cmd crystal --p 3 --e 1 --a4 2 --a6 0 --deg 27": (
        0, "636deb015aeddf2579949d48781287bd8c5f9393a6e743a3c5f1434ab9ce6162"),
    "--cmd crystal --p 5 --e 1 --a4 1 --a6 1 --deg 27": (
        0, "3a0651007577e609aa942344f973d3105865d41b6002edbbf91f08cfb7c523d7"),
    "--cmd crystal --p 5 --e 1 --a4 0 --a6 1 --deg 27": (
        0, "57c84aa1243377e2409eca7ba0b1d1d169b6219c17355fc435e98fdf248aa31c"),
    "--cmd crystal --p 5 --e 1 --a4 2 --a6 0 --deg 27": (
        0, "6121721c58eac88a81e26f3d24916a1433b74027272a70972806aa1593887e0a"),
    "--cmd crystal --p 5 --e 1 --a4 1 --a6 1 --deg 125": (
        0, "0bd3715da5dc5bc6edc4b7e8b957e12fa8f08f0c7586769ecce412d7efba201d"),
    "--cmd crystal --p 5 --e 1 --a4 0 --a6 1 --deg 125": (
        0, "228c9322e365b4c5d38dbde960947598a50efd1a88d6426ddd7a56abc77f55ec"),
    "--cmd crystal --p 5 --e 1 --a4 2 --a6 0 --deg 125": (
        0, "b427c69d748ec0a6cc9b5b540f5a2079400db52bd758ffb3389db9aad629d3e6"),
    "--cmd crystal --p 5 --e 2 --a4 1 --a6 1 --deg 27": (
        0, "258b35d4f6f3a56042742b9a40207dcf879da6ce2d547f84ef912d495629634e"),
    "--cmd crystal --p 5 --e 2 --a4 0 --a6 1 --deg 27": (
        0, "f7d39947ffa5b347d94f98157d5ac78fe3f8cd1edde2772feb268df070f5ca86"),
    "--cmd crystal --p 5 --e 2 --a4 2 --a6 0 --deg 27": (
        0, "d7ab0a81d645e4b6e59504705c6c51c1296aaad7f19701d3606e18880d283c20"),
    "--cmd crystal --p 5 --e 2 --a4 1 --a6 1 --deg 125": (
        0, "41dd3e8c34e3bbfaa09726ceebddfd387e676c8b458ad1b34259cf4de1e7bde6"),
    "--cmd crystal --p 5 --e 2 --a4 0 --a6 1 --deg 125": (
        0, "b539398cee4b7f3806467a8e79145595d549cbb6c3e43eb53dbe14ce96996f09"),
    "--cmd crystal --p 5 --e 2 --a4 2 --a6 0 --deg 125": (
        0, "892a4b47271d008a8a0e40e3d3a346bca31d0797d1bd56ca19727652d6bfe433"),
    "--cmd crystal --p 7 --e 1 --a4 1 --a6 1 --deg 51": (
        0, "c5f255b66345b09c39fe87089d7cb99c2d88336a1829301cc3b1e59f50abf164"),
    "--cmd crystal --p 7 --e 1 --a4 0 --a6 1 --deg 51": (
        0, "ebd68bd92e8355936e6477b9a84e77acba9c4ce4bf262f5165c24798f139e9f1"),
    "--cmd crystal --p 7 --e 1 --a4 2 --a6 0 --deg 51": (
        0, "fb21951e0702f228133fa128f549b6ba084f2c3fb73c1b509daa5283b3223faf"),
    "--cmd crystal --p 7 --e 1 --a4 1 --a6 1 --deg 343": (
        0, "082941a2a7c1aec292b32e79a188f547a696e8eb2ec552c5109cca1b038b81d1"),
    "--cmd crystal --p 7 --e 1 --a4 0 --a6 1 --deg 343": (
        0, "d179672e8bbe671fe82098535f74b39b845abcfe6681e941035b9e646d55c976"),
    "--cmd crystal --p 7 --e 1 --a4 2 --a6 0 --deg 343": (
        0, "cab07c19e121139de0f88af935198cb40f9da4ff83635d712f3e437500575598"),
    "--cmd crystal --p 5 --e 3 --a4 1 --a6 1 --deg 27": (
        0, "c2c5048fb65d529c6e84934d0e1c4e8d9ffd42f38b686d61abe6c9f90bb1724b"),
    "--cmd crystal --p 5 --e 3 --a4 0 --a6 1 --deg 27": (
        0, "2392d02a7cfa88e3d607bbec5c02b8bc9acb8ddcb78585a019d5dbe659926eb2"),
    "--cmd crystal --p 5 --e 3 --a4 2 --a6 0 --deg 27": (
        0, "a76c9762ef338f18d1c2ab92e18e56465e243410b797b5b54b036f4c26fb94ee"),
    "--cmd crystal --p 5 --e 3 --a4 1 --a6 1 --deg 125": (
        0, "4ddad236c435bdf900b0e841577f8da5e604758e43a1d462c4ff76413a93ff5c"),
    "--cmd crystal --p 5 --e 3 --a4 0 --a6 1 --deg 125": (
        0, "b87a261fea173e950f75d0ff8295e0c3d1116d68ae4c74029cee3b31574ada0d"),
    "--cmd crystal --p 5 --e 3 --a4 2 --a6 0 --deg 125": (
        0, "7551be5f7b4f8f9db33e89ae753b2b07f1854d68d80267e6862423dbfc3959d5"),
    "--cmd crystal --p 7 --e 5 --a4 1 --a6 1 --deg 51": (
        0, "c7ce6891b1e2bf4b6489c57d21136d0aebef6ad0a7b320070647f59971d9b9b9"),
    "--cmd crystal --p 7 --e 5 --a4 0 --a6 1 --deg 51": (
        0, "5a322371f261d20ba0eabd2547280bb25d93c1c794a019a468494c6c2f56e947"),
    "--cmd crystal --p 7 --e 5 --a4 2 --a6 0 --deg 51": (
        0, "a21e9f5272d27a31df03efc57bd700048ed295a32cf4b7245ed6d79d389b0b76"),
    "--cmd crystal --p 7 --e 5 --a4 1 --a6 1 --deg 343": (
        0, "4ff3c03aeba4e255a368c3c58161a9f34c54c18f8b6e3483120a5a0472f18472"),
    "--cmd crystal --p 7 --e 5 --a4 0 --a6 1 --deg 343": (
        0, "94cb0a992d1ff5de34891d334c37a721d6c8761ed1ffabef549e9e75dd3196f4"),
    "--cmd crystal --p 7 --e 5 --a4 2 --a6 0 --deg 343": (
        0, "393e85239868a24af1a527f3cced1ad4928608b2cef1aed3128f62b9e903b1df"),
    "--cmd crystal --p 3 --e 1 --deg 27": (
        0, "352c50b29c744273cd4cb5e6ac7a04ff210d81c981ec88e65659eeccdf1667b4"),
    "--cmd crystal --p 5 --e 1 --deg 125": (
        0, "5850f6f416926c58b241b7f5d0290abbcf9b4fff48b3cd539745026f79629de2"),
    "--cmd crystal --p 5 --e 2 --deg 125": (
        0, "10876de7e7443756308e59e6000458fb3d31ecda5b41a52ef5e4e1127bf81603"),
    "--cmd crystal --p 7 --e 1 --deg 343": (
        0, "e5de954f5a09e3190daa577648a42870130f9eddb6f3b9c6fb2dd76cfc0cebb8"),
    "--cmd crystal --p 5 --e 3 --deg 125": (
        0, "df7873375f5a848d7b7e7f4e26683af00762af4d4f40c415db6c74600e130505"),
    "--cmd crystal --p 7 --e 5 --deg 343": (
        0, "b7fa5d5cd3f78e0fee21d22fcd5fb660508ee999a9c3f9680298a0ce90331de5"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 2 --nmax 3": (
        2, "2e777b681dad52137a03c1f8d184de0ebd9d9aff45c262db61331ff181ade304"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 2 --nmax 2": (
        2, "99bb5eb33356f5c3b7a59920a2825dc50357c80bd94ce91dfb5207ec957e0622"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 3 --nmax 3": (
        2, "8156f147c90414def10ed4cdc95d7add4ce3dbaafaa27c5de379955be152434c"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 3 --nmax 2": (
        2, "fbae483ca05b7efae38a81a0b29a196dada790f1addd248582e66dedd8dab275"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 4 --nmax 3": (
        2, "c4e0b48d45bc67825a5e4b9be42648c8120b462db8440dd87edfd62510057fad"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 4 --nmax 2": (
        2, "8345cb5033f47e022f73aa3d63722952dd990b5bb479cd672ac5e6d330dba31b"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 5 --nmax 3": (
        2, "085dd892efe3b4c334917f4f20256238117b82474f4581ea52ab6fb1b48f43c3"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 5 --nmax 2": (
        2, "b5b0c3c6af86f453dc87122334627ec511f560df480a4c7ea0d73aa73b5249d7"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 6 --nmax 3": (
        2, "44b5fab0b485486e505432477ff0921492053af377c298716743b6f0b64594e4"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 6 --nmax 2": (
        2, "f9ba5ba26055c915c1e5ef8bbde301afa3487f6d31fe291e3242a61bbcb27a25"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 7 --nmax 3": (
        2, "c5e4447f484124c6fe80c22041c004652e11c1a8f34c6493eb429e5d7e5a8a4f"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 7 --nmax 2": (
        2, "4ce7641a15d42451d4998033b6781aa9469a70f7b4f77a256b694f4da54e7e81"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 8 --nmax 3": (
        2, "80848db4e53847d0452a05d6f0c4c8b00db58841608b8b7ec078c138aa9033d5"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 8 --nmax 2": (
        2, "add1dc9fbc58dae74a6474153594eed0f8d0d077572949851cf889a8ad8507cd"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 9 --nmax 3": (
        2, "28121e5237146aa1b197433f9a5905f402229dd551b6eaa2b8e5e0e30b5cf0c9"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 9 --nmax 2": (
        0, "65d45105ad36d6603475f189a2ce83ff17b52d42e0eaf19e81b0b2b74663a84d"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 10 --nmax 3": (
        0, "754a9330506c30fb19ba2da0b705f778f1a0059b057aa733bbe471582960903a"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 10 --nmax 2": (
        0, "8d2422a9c4e20641c6e7e284f876d51a7d329be00f4bff5166873dda735f8916"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 11 --nmax 3": (
        0, "5506112d41febf51bd1f130d4e1ecdad625ae4a4ddfa4f639d252875a4209dbd"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 11 --nmax 2": (
        0, "165cc55dde25bcf511537743c7451db2ff8ec65b807317cbef9e77328549c78f"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --nmax 1": (
        2, "46bb31fa1ab40109542a6e90bdf0927ca774c9da956bf421a968256822639737"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --nmax 4": (
        2, "a83557dfe05d71edd55a6978f1ab0fc81511492130ac3fcbda0ac9c13bcf5063"),
    "--cmd crystal --p 5 --a4 0 --a6 0": (
        1, "5fda00b05d3f2e31b03d89f78fea9eeccc7d771b6172f0f285c38543519d2e88"),
    "--cmd crystal --p x": (
        1, "3b254c2aea47ad28c76431f4cb9d8055d66fc58ce9c04810f50d64e86362a921"),
    "--cmd witt --p 3 --nmax 2": (
        0, "57071b4ccf34781ca574278c90069658e1a6ed8acdf5c9a6004007486ec4edb3"),
    "--cmd witt --p 5 --e 2 --nmax 1": (
        0, "113c70ab5d850e35dfbfc9934a015d9f28f2c2b3ec97552fcc8c472f9a93647d"),
    "--cmd verify --p 3 --a4 1 --a6 1 --prec 1 --deg 27": (
        0, "f3d38897a930e7f285b01b48e45ffcf1f082c6e82d1bc3a8ddeb0905aeb4cced"),
    "--cmd verify --p 3 --a4 1 --a6 1 --prec 1 --deg 9": (
        0, "b49a4428f7bfdf50f182df0e4afa6c4a079627e4fb0795c831cd71a721d25ddc"),
    "--cmd verify --p 5 --a4 1 --a6 1 --deg 125 --prec 2": (
        0, "ab5ad60597fedfd231030d74fc90d479ac797ed9eceb38989a0dcc64136ed048"),
    "--cmd verify --p 5 --e 2 --a4 1 --a6 1 --deg 27 --prec 2": (
        0, "e6e44b1386ce6687e5447f3bdf04e0dc498d5aeff728fb0d7829d360129d86fe"),
    "--cmd verify --p 5 --e 3 --a4 1 --a6 1 --deg 27 --prec 2": (
        0, "c60031fb48f75709c856bbd556a40bec075d8f2f7c8d59eead358b0c51fdfc35"),
    "--cmd verify --p 5 --a4 0 --a6 1 --deg 27 --prec 3": (
        0, "f7f6026e1158d4156bd6656a9e53ce02363f0262ca2c3801db216899b2993c3a"),
    "--cmd verify --p 3 --a4 1 --a6 1 --prec 1 --deg 8": (
        2, "173158f78efb36886cc7e225dfb131b0b1bccb7b807dbf20522b0b525a5881b7"),
    "--help": (
        0, "5fb67abea36d50913e227426b2114830df881f1209aa14c471fc0e04ecb7b6d3"),
}

# a --config file: its lines are read as flags, and the report's params
# leave out the path, so stdout is the same wherever the file lies (and
# equals that of the same flags on the command line)
CONFIG_TEXT = ("# y^2 = x^3 + x + 1 over Z_5, its crystal at D = 27\n"
               "cmd = crystal\np = 5\na4 = 1\na6 = 1\ndeg = 27\n")
CONFIG_PIN = (
    0, "3a0651007577e609aa942344f973d3105865d41b6002edbbf91f08cfb7c523d7")


def config_argv(directory) -> list:
    """The argv of a run of CONFIG_TEXT, written to a file in directory."""
    path = directory / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return ["--config", str(path)]


def _report(argv: list):
    """(exit code, sha256 of stdout) of `cli.run` on argv."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", ARGVS)
def test_report_pinned(argv):
    assert _report(argv.split()) == PINS[argv]


def test_every_argv_is_pinned():
    assert sorted(PINS) == sorted(ARGVS)


def test_config_report_pinned(tmp_path):
    assert _report(config_argv(tmp_path)) == CONFIG_PIN


def _digest(series) -> str:
    """sha256 of the sorted-key JSON of a list of series."""
    blob = json.dumps([s.to_json() for s in series], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# the componentwise laws of the group-law workload's shapes on the curve
# y^2 = x^3 + x + 1 at precision 12, pinned before series products were
# run on packed keys end to end: (p, D, kind, n) -> (characters, sha256)
LAW_PINS = {
    (3, 11, "kernel", 1): (
        1, "a5c64094c35c3e1fb1b8f4af2259f35cf671ae04d6ae92976c142a3f4762fe40"),
    (3, 11, "kernel", 2): (
        2, "6ac78e5f66d4977eee788870b6b25e611de825e90aea670935973c992214fd68"),
    (3, 11, "jet", 1): (
        0, "5401633a1b0f35c906a49c0150a903f80d0759e54a3937db47f130e2a602d4f2"),
    (5, 18, "kernel", 1): (
        1, "a4b143d2477c14bc256f8f48fd1b5fcef9f03684755df5097b57b449f39ac867"),
    (5, 18, "kernel", 2): (
        2, "1e2789896ee0e27fc0b5c5824e4a21a248d22f42267b51ab40e36c76c1f49d13"),
    (5, 18, "jet", 1): (
        0, "1f5b6ed04bafd2eda61fb5990546901f862923328a3fe9f31becd53ae68d9a5b"),
}


# the left sides of check_additive on those shapes: each character's
# numerator with the law's components substituted in: (p, D, kind, n) ->
# sha256 (the jet laws have no character)
LEFT_SIDE_PINS = {
    (3, 11, "kernel", 1):
        "02a5f6ff9aad285ae8f977289c85e385c34011c526df48aa29a350a9a9fb02c3",
    (3, 11, "kernel", 2):
        "3dc9e01d2d48157b8ddf707418dc37064a3b5706df8edd56e01fd7a6f5063282",
    (3, 11, "jet", 1):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (5, 18, "kernel", 1):
        "5ceb7b44e0467bbabc6c087b2378b31af6c686c7fa60fb0adaab094e33b4986d",
    (5, 18, "kernel", 2):
        "be88cbaf66b6a2a940102cdf0ad1455b95e0ec772fb553cbbadf45978400748f",
    (5, 18, "jet", 1):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
}


@pytest.mark.parametrize("p,D", [(3, 11), (5, 18)])
def test_group_laws_pinned(p, D):
    spec = BaseRingSpec(p, 1)
    E = formal_group_from_weierstrass(spec, spec.scalar(1, 12),
                                      spec.scalar(1, 12), D)
    for law in (kernel_group_law(E, 1), kernel_group_law(E, 2),
                jet_group_law(E, 1)):
        chars = solve_additive(law)[0]
        assert all(ch.check_additive(law) for ch in chars)
        assert (len(chars), _digest(law.laws)) \
            == LAW_PINS[p, D, law.kind, law.n]
        left = [ch.frac.num.substitute(dict(zip(law.vars_x, law.laws)))
                for ch in chars]
        assert _digest(left) == LEFT_SIDE_PINS[p, D, law.kind, law.n]


# the W_n sum tables of the witt-scalar workload, built uncapped at
# precision 8: (p, e, n) -> sha256
SUM_TABLE_PINS = {
    (2, 1, 3):
        "f3f5f27569de399abbc9827bd6d05f11aefe34db5ff0281320ee9c51fb69a0b9",
    (3, 1, 3):
        "2b33402f7223c999496d11bec3b9867da77e434a916e3b0d747ed215a1944571",
    (5, 1, 2):
        "19dd880173e8d9b0d36348814de29f4c16d20d32e718b95586dfef91b3252342",
    (5, 2, 2):
        "b066b2e8a99e60d620f47e7a3af57e6ca7c4ae4e5860f9da057af7837b9c37a2",
}


@pytest.mark.parametrize("p,e,n", sorted(SUM_TABLE_PINS))
def test_sum_tables_pinned(p, e, n):
    polys = structural_polynomials(BaseRingSpec(p, e), n, "sum", 8)
    assert _digest(polys) == SUM_TABLE_PINS[p, e, n]
