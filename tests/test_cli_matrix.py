"""CLI golden matrix: small invocations of every command, each pinned by
the sha256 of its stdout, its exit code and the head of its stderr
(``error: <Class>``, empty when nothing is written there).  An entry
changes only with a behaviour change of the CLI."""

import hashlib
import json

import pytest

from rearrange_lab.cli import run

_LORENTZ = {"kind": "lorentz", "phi": [["0", "0"], ["1/2", "3/4"], ["1", "1"]]}
NORMS = {
    "lorentz": json.dumps(_LORENTZ),
    "associate": json.dumps({"kind": "associate", "base": _LORENTZ}),
    "lp3": json.dumps({"kind": "lp", "p": "3"}),
    "generated-p-half": json.dumps(
        {"kind": "generated", "base": {"kind": "lp", "p": "2"}, "p": "1/2"}),
    "decreasing-phi": json.dumps(
        {"kind": "lorentz",
         "phi": [["0", "0"], ["1/4", "3/4"], ["1/2", "1/2"], ["1", "1"]]}),
    "generated-lorentz": json.dumps(
        {"kind": "generated", "base": _LORENTZ, "p": "1"}),
    "lp-1e6": json.dumps({"kind": "lp", "p": "1e6"}),
}
INPUTS = {
    "instance": {"space": {"weights": ["0.2", "0.3", "0.5"]},
                 "functions": {"f": ["3", "-1", "2"]}},
    "zero_mean": {"space": {"weights": ["1/4", "1/4", "1/4", "1/4"]},
                  "functions": {"g": ["3", "1", "-2", "-2"]}},
}

_VERIFY = ["verify", "--atoms", "4", "--seed", "3"]
_SEARCH = ["search", "--iters", "30", "--restarts", "2", "--seed", "1"]

#: id -> (argv, REARRANGE_LAB_PRECISION or None); "{name}" is an INPUTS
#: file and "<name>" a NORMS descriptor
MATRIX = {
    "rearrange": (["rearrange", "--input", "{instance}", "--function", "f"],
                  None),
    "decompose": (["decompose", "--input", "{zero_mean}", "--function", "g"],
                  None),
    "decompose-not-zero-mean": (
        ["decompose", "--input", "{instance}", "--function", "f"], None),
    "thm32": (_VERIFY + ["--suite", "thm32", "--trials", "140"], None),
    "thm32-float": (_VERIFY + ["--suite", "thm32", "--trials", "140",
                               "--mode", "float"], None),
    "thm32-weighted": (_VERIFY + ["--suite", "thm32", "--trials", "140",
                                  "--weights", "random-rational"], None),
    "thm32-unread-flags": (_VERIFY + ["--suite", "thm32", "--trials", "5",
                                      "--norm", "<lp3>",
                                      "--exponents", "2,4,4,4,4"], None),
    "lemma31": (_VERIFY + ["--suite", "lemma31", "--trials", "30"], None),
    "lemma31-float": (_VERIFY + ["--suite", "lemma31", "--trials", "30",
                                 "--mode", "float"], None),
    "lemma31-weighted": (_VERIFY + ["--suite", "lemma31", "--trials", "30",
                                    "--weights", "random-rational"], None),
    "thm41": (_VERIFY + ["--suite", "thm41", "--trials", "30"], None),
    "thm41-exact": (_VERIFY + ["--suite", "thm41", "--trials", "30",
                               "--mode", "exact"], None),
    "thm41-weighted-exponents": (
        _VERIFY + ["--suite", "thm41", "--trials", "30", "--weights",
                   "random-rational", "--exponents", "2,4,4,4,4"], None),
    "thm41-precision-80": (_VERIFY + ["--suite", "thm41", "--trials", "30"],
                           "80"),
    "thm41-precision-48": (_VERIFY + ["--suite", "thm41", "--trials", "30"],
                           "48"),
    "thm43": (_VERIFY + ["--suite", "thm43", "--trials", "20"], None),
    "thm43-lorentz-exact-weighted": (
        _VERIFY + ["--suite", "thm43", "--trials", "20", "--mode", "exact",
                   "--weights", "random-rational", "--norm", "<lorentz>"],
        None),
    "thm43-associate-float": (
        _VERIFY + ["--suite", "thm43", "--trials", "20", "--mode", "float",
                   "--norm", "<associate>"], None),
    "rearrange-suite": (_VERIFY + ["--suite", "rearrange", "--trials", "10"],
                        None),
    "rearrange-suite-weighted": (
        _VERIFY + ["--suite", "rearrange", "--trials", "10",
                   "--weights", "random-rational"], None),
    "rearrange-suite-float": (
        _VERIFY + ["--suite", "rearrange", "--trials", "10",
                   "--mode", "float"], None),
    "all": (_VERIFY + ["--suite", "all", "--trials", "10"], None),
    "all-float": (_VERIFY + ["--suite", "all", "--trials", "10",
                             "--mode", "float"], None),
    "all-exact": (_VERIFY + ["--suite", "all", "--trials", "10",
                             "--mode", "exact"], None),
    "search-thm32": (_SEARCH + ["--target", "thm32-ratio"], None),
    "search-thm32-unread-flags": (
        _SEARCH + ["--target", "thm32-ratio", "--norm", "<lp3>",
                   "--exponents", "2,4,4,4,4"], None),
    "search-thm41": (_SEARCH + ["--target", "thm41-ratio", "--atoms", "3"],
                     None),
    "search-thm43-lorentz": (
        _SEARCH + ["--target", "thm43-ratio", "--atoms", "3",
                   "--norm", "<lorentz>"], None),
    "search-thm43-unread-exponents": (
        _SEARCH + ["--target", "thm43-ratio", "--exponents", "2,4,4,4,4"],
        None),
    "landscape-thm32": (["landscape", "--target", "thm32-ratio", "--grid",
                         "5"], None),
    "landscape-thm41": (["landscape", "--target", "thm41-ratio", "--grid",
                         "5"], None),
    "landscape-thm43": (["landscape", "--target", "thm43-ratio", "--grid",
                         "5", "--norm", "<associate>"], None),
    "error-unknown-flag": (["verify", "--suite", "thm32", "--bogus"], None),
    "error-exponents": (_VERIFY + ["--suite", "thm41", "--exponents",
                                   "1,2,2,3,3"], None),
    "error-exact-rooty-exponents": (
        _VERIFY + ["--suite", "thm41", "--mode", "exact", "--exponents",
                   "2,4,4,4,4"], None),
    "error-exponent-literal": (_VERIFY + ["--suite", "thm41", "--exponents",
                                          "2,x,4,4,4"], None),
    "error-generated-p-below-one": (
        _VERIFY + ["--suite", "thm43", "--norm", "<generated-p-half>"], None),
    "error-decreasing-phi": (
        _VERIFY + ["--suite", "thm43", "--norm", "<decreasing-phi>"], None),
    # the norm is exactly evaluable, its associate is not
    "error-exact-generated-lorentz": (
        _VERIFY + ["--suite", "thm43", "--mode", "exact",
                   "--norm", "<generated-lorentz>"], None),
    "error-exact-lp-1e6": (
        ["verify", "--suite", "thm43", "--mode", "exact", "--atoms", "8",
         "--trials", "1", "--norm", "<lp-1e6>"], None),
    "error-search-one-atom": (["search", "--target", "thm32-ratio",
                               "--atoms", "1"], None),
    "error-precision-bogus": (_VERIFY + ["--suite", "thm32", "--trials",
                                         "5"], "bogus"),
    "error-precision-24": (["verify", "--suite", "thm41", "--mode", "float",
                            "--atoms", "6", "--trials", "5"], "24"),
}

#: id -> (sha256 of stdout, exit code, stderr head)
EXPECTED = {
    "all": (
        "ffe490bbfb55b86a0006465ba70d0f211c678dc0afcc21adbe892ab643edb189",
        0, ""),
    # exited 0 before --suite all refused --mode
    "all-exact": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: FlagError"),
    # exited 0 before --suite all refused --mode
    "all-float": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: FlagError"),
    "decompose": (
        "8e65f6f6abe1b5a6a81ed313b63685dbdae7079cd9f8f9815d03e7089ab3c51d",
        0, ""),
    "decompose-not-zero-mean": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        3, "error: NotZeroMean"),
    "error-exact-rooty-exponents": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    # ran for minutes, raising the values to the 1e6-th power, before the
    # exact root was refused ahead of the power
    "error-exact-lp-1e6": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-decreasing-phi": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-exact-generated-lorentz": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-exponent-literal": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-exponents": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-generated-p-below-one": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-precision-24": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-precision-bogus": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "error-search-one-atom": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        3, "error: InfeasibleProblem"),
    "error-unknown-flag": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: FlagError"),
    # exited 0 with a CSV before the landscape subcommand was removed
    "landscape-thm32": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: FlagError"),
    # exited 0 with a CSV before the landscape subcommand was removed
    "landscape-thm41": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: FlagError"),
    # exited 0 with a CSV before the landscape subcommand was removed
    "landscape-thm43": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: FlagError"),
    "lemma31": (
        "8d00f7db2162fd4df2a86eb06152ca455186c2beeb1d49e4230270c7ef2002b7",
        0, ""),
    "lemma31-float": (
        "ca747a58e1e296567f42f60e55958f84012e8ba6bced51285cab11ab9a792cdc",
        0, ""),
    "lemma31-weighted": (
        "5d79a8ca566029a8b49af922105963179ba59e44135be8ac16a24198718b6e2e",
        0, ""),
    "rearrange": (
        "1c6408f8b2346d577bfac1fc4e03e0d257f63804393d18512bc9efb01041c970",
        0, ""),
    "rearrange-suite": (
        "f62adf518da4c87be3dce40db722ee19d432aa09f9795d566bf76facf659fde0",
        0, ""),
    # exited 0 before the suite refused float mode
    "rearrange-suite-float": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "rearrange-suite-weighted": (
        "1a9645831b9ce3eb01fbbb55081d4896b973f6a43f32a6d628cd5cdcf190fbfb",
        0, ""),
    "search-thm32": (
        "cda094ee960bb2f8ef219a9e8bfba97706717733a2d0f7c7e2284c0f7f388bfc",
        0, ""),
    # its config listed the unread flags
    "search-thm32-unread-flags": (
        "cda094ee960bb2f8ef219a9e8bfba97706717733a2d0f7c7e2284c0f7f388bfc",
        0, ""),
    "search-thm41": (
        "6c9eff59372ffdcd004385ef609df7f5ea91db16c576049f6a533e90b0f24ffa",
        0, ""),
    "search-thm43-lorentz": (
        "1c1168be937ab9681602878639491964e5f4613f5b30b43fefa63c05fd4ddada",
        0, ""),
    # its config listed the unread flag
    "search-thm43-unread-exponents": (
        "8b655d8a61daf131d85a66caee4eb0971a920e13c031bad5a1b5b910543b17cf",
        0, ""),
    "thm32": (
        "3fadc4b7aeb68dd2136f5e07d3f108b4ac4c467bf09e055d03c1a735ea0f9044",
        0, ""),
    "thm32-float": (
        "6d6e68e9ed66a6f0efd5d7ca5c668bb822a75ce5fa6aac6a3853d3b37682a574",
        0, ""),
    "thm32-unread-flags": (
        "555063310a6ac6a2de8961e57e66722a514dfb9395c766e8a4b003b85c1571ff",
        0, ""),
    "thm32-weighted": (
        "fccfe72a79402cfad11ebf0485daed2430af1a89c3d2be11dd21a12c11165646",
        0, ""),
    "thm41": (
        "fbaf7ae770edf5c35f05d19a1bf27e7228183b249a47f48c88e906d43629beeb",
        0, ""),
    "thm41-exact": (
        "7a68a20b3847162788565d7281381c1c4b83ec17d9bd45200842f991069a9d44",
        0, ""),
    # exited 0 before the 53-bit precision floor
    "thm41-precision-48": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2, "error: InputError"),
    "thm41-precision-80": (
        "a49679a761bd7373f73c164f5640b28de85e2ed28115000ee15b1346ef22d553",
        0, ""),
    "thm41-weighted-exponents": (
        "7b8939a0fa9e363923f32d066af7a2deb4bd5cf39bdc881fd77623f41a34a2d6",
        0, ""),
    "thm43": (
        "b6bdc8f1a66ede5269f9489208e3272ed69b8479d2132f0b9861cc50b1db2e51",
        0, ""),
    "thm43-associate-float": (
        "f5a6ac6bcf07820f91d27e5f202d5dac454b8d1f8d53a1ff8ed2ed046b98272c",
        0, ""),
    "thm43-lorentz-exact-weighted": (
        "c6f82e8aa41648fec51f7b68bc5e55cf7434661b7e5660299864db0651a799a1",
        0, ""),
}


def _invoke(case, tmp_path, monkeypatch, capsys):
    argv, precision = MATRIX[case]
    resolved = []
    for arg in argv:
        if arg.startswith("{"):
            path = tmp_path / f"{arg[1:-1]}.json"
            path.write_text(json.dumps(INPUTS[arg[1:-1]]))
            arg = str(path)
        elif arg.startswith("<"):
            arg = NORMS[arg[1:-1]]
        resolved.append(arg)
    if precision is None:
        monkeypatch.delenv("REARRANGE_LAB_PRECISION", raising=False)
    else:
        monkeypatch.setenv("REARRANGE_LAB_PRECISION", precision)
    code = run(resolved)
    captured = capsys.readouterr()
    head = ":".join(captured.err.split(":")[:2])
    return hashlib.sha256(captured.out.encode()).hexdigest(), code, head


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_cli_matrix(case, tmp_path, monkeypatch, capsys):
    assert _invoke(case, tmp_path, monkeypatch, capsys) == EXPECTED[case]
