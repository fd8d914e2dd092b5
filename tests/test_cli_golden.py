"""Golden CLI corpus: exit code and stdout digest of a fixed set of commands.

The corpus covers every command and every ``expand --what`` in text and
json on three curves, ``param`` at 53 and 150 bits, ``classical`` with its
defaults, with ``--s`` and at ``--s 102`` (whose terms and bound are all
doubles), ``honda --pmax 199`` on (-7, 13) and
(-3/7, 5/11), the log and a(n) to order 120 on (-3/7, 5/11), s and a(n)
to order 60 on (5/6, -7/9) (its weight u = 72 has the primes 2 and 3),
``bernoulli`` at order 60 on (-7, 13), (-3/7, 5/11) and (5/6, -7/9),
``param`` at order 60 and 150 bits on (-7, 13) and (-3/7, 5/11), wp to
order 61 on (5/6, -7/9) and wp' to the same order, wp and wp' to order 8 on
the pure pole (0, 0) in text and json, ``grouplaw`` at order 18 on (-7, 13) and
(-3/7, 5/11) and at order 13 on (5/6, -7/9) (u = 72) and (-3/7, 5/11) in
text, the exponential to order 61 on (-3/7, 5/11) and (5/6, -7/9) in text
and json, a refusal (exit 1) and the usage-error paths (exit 2, empty
stdout).  The digest is the first 16 hex digits of the sha256 of stdout.
It changes only when a report's bytes do; update the table only for a
report change that is intended and stated.
Print the current table with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import re

import pytest

from ellformal.cli import _COMMANDS, main

CURVES = (("4", "0"), ("-7", "13"), ("-3/7", "5/11"))
FORMATS = ("text", "json")


def _corpus() -> list[tuple[str, ...]]:
    corpus = []
    for g2, g3 in CURVES:
        for fmt in FORMATS:
            curve = (f"--g2={g2}", f"--g3={g3}")
            tail = (f"--format={fmt}",)
            for what in ("fe", "fl", "wp", "wpp", "s", "an"):
                corpus.append(("expand", *curve, "--order=8", f"--what={what}", *tail))
            corpus.append(("grouplaw", *curve, "--order=6", *tail))
            corpus.append(("honda", *curve, "--pmax=13", *tail))
            corpus.append(("bernoulli", *curve, "--order=8", *tail))
            corpus.append(("param", *curve, "--z=0,1", "--order=40", *tail))
            corpus.append(("param", *curve, "--z=0,1", "--order=40",
                           "--precision=150", *tail))
    for fmt in FORMATS:
        corpus.append(("classical", "--nmax=100", f"--format={fmt}"))
        corpus.append(("classical", "--nmax=100", "--s=1", "--s=3", "--order=8",
                       f"--format={fmt}"))
        corpus.append(("classical", "--nmax=1000", "--s=102", f"--format={fmt}"))
    corpus += [
        ("honda", "--g2=4", "--g3=0", "--pmax=20", "--order=23"),
        ("honda", "--g2=-7", "--g3=13", "--pmax=199", "--format=json"),
        ("honda", "--g2=-3/7", "--g3=5/11", "--pmax=199", "--format=json"),
        ("expand", "--g2=5/6", "--g3=-7/9", "--order=60", "--what=s", "--format=json"),
        ("expand", "--g2=5/6", "--g3=-7/9", "--order=60", "--what=an", "--format=json"),
        ("expand", "--g2=-3/7", "--g3=5/11", "--order=120", "--what=fl", "--format=json"),
        ("expand", "--g2=-3/7", "--g3=5/11", "--order=120", "--what=an", "--format=json"),
        ("param", "--g2=-7", "--g3=13", "--z=0.1,0.8", "--order=60", "--precision=150",
         "--format=json"),
        ("param", "--g2=4", "--g3=0", "--z=0.1,0.8", "--order=30", "--nmax=20",
         "--format=json"),
        ("bernoulli", "--g2=1", "--g3=1", "--order=0"),
        ("bernoulli", "--g2=-7", "--g3=13", "--order=60", "--format=json"),
        ("bernoulli", "--g2=-3/7", "--g3=5/11", "--order=60", "--format=json"),
        ("bernoulli", "--g2=5/6", "--g3=-7/9", "--order=60", "--format=json"),
        ("expand", "--g2=5/6", "--g3=-7/9", "--order=61", "--what=wp", "--format=json"),
        ("expand", "--g2=5/6", "--g3=-7/9", "--order=61", "--what=wpp", "--format=json"),
        *(("expand", "--g2=0", "--g3=0", "--order=8", f"--what={what}", f"--format={fmt}")
          for what in ("wp", "wpp") for fmt in FORMATS),
        ("param", "--g2=-3/7", "--g3=5/11", "--z=0.1,0.8", "--order=60", "--precision=150",
         "--format=json"),
        ("grouplaw", "--g2=-7", "--g3=13", "--order=18", "--format=json"),
        ("grouplaw", "--g2=-3/7", "--g3=5/11", "--order=18", "--format=json"),
        ("grouplaw", "--g2=5/6", "--g3=-7/9", "--order=13", "--format=json"),
        ("grouplaw", "--g2=-3/7", "--g3=5/11", "--order=13", "--format=text"),
        *(("expand", f"--g2={g2}", f"--g3={g3}", "--order=61", "--what=fe", f"--format={fmt}")
          for g2, g3 in (("-3/7", "5/11"), ("5/6", "-7/9")) for fmt in FORMATS),
        # refusal: exit 1
        ("param", "--g2=4", "--g3=0", "--z=0,0.01", "--order=50"),
        # usage errors: exit 2
        ("expand", "--g3=0", "--order=4", "--what=fe"),
        ("expand", "--g2=4", "--g3=0", "--order=2", "--what=s"),
        ("expand", "--g2=4", "--g3=0", "--order=4", "--what=xx"),
        ("expand", "--g2=1/0", "--g3=0", "--order=4", "--what=fe"),
        ("expand", "--g2=4", "--g3=0", "--order=4"),
        ("grouplaw", "--g2=4", "--g3=0", "--order=1"),
        ("honda", "--g2=4", "--g3=0", "--pmax=4"),
        ("honda", "--g2=4", "--g3=0", "--pmax=20", "--order=19"),
        ("bernoulli", "--g2=4", "--g3=0", "--order=-1"),
        ("param", "--g2=4", "--g3=0", "--z=0,-1", "--order=50"),
        ("param", "--g2=4", "--g3=0", "--z=0,1", "--order=10", "--nmax=11"),
        ("param", "--g2=4", "--g3=0", "--z=0,1", "--order=10", "--precision=0"),
        ("param", "--g2=4", "--g3=0", "--z=1", "--order=10"),
        ("classical", "--nmax=0"),
        ("classical", "--nmax=10", "--s=0"),
        ("classical", "--nmax=10", "--order=0"),
        ("frobnicate",),
    ]
    return corpus


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def _help_flags(command: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--help"]) == 0
    return re.findall(r"^\s+(?:-h, )?(--\w+)", out.getvalue(), re.M)


GOLDEN: dict[str, tuple[int, str]] = {
    'expand --g2=4 --g3=0 --order=8 --what=fe --format=text': (0, '5fe48e99f424a77f'),
    'expand --g2=4 --g3=0 --order=8 --what=fl --format=text': (0, 'c0c4dd43dff3a374'),
    'expand --g2=4 --g3=0 --order=8 --what=wp --format=text': (0, '1e294647aba22b16'),
    'expand --g2=4 --g3=0 --order=8 --what=wpp --format=text': (0, '684b0cc9d130ac84'),
    'expand --g2=4 --g3=0 --order=8 --what=s --format=text': (0, 'e7e3bd54d9da17fb'),
    'expand --g2=4 --g3=0 --order=8 --what=an --format=text': (0, 'ecc61aac6207c83b'),
    'grouplaw --g2=4 --g3=0 --order=6 --format=text': (0, '5d9457b806c8b8b4'),
    'honda --g2=4 --g3=0 --pmax=13 --format=text': (0, '7f9bf5e95793522b'),
    'bernoulli --g2=4 --g3=0 --order=8 --format=text': (0, '4066ce575031af3e'),
    'param --g2=4 --g3=0 --z=0,1 --order=40 --format=text': (0, '6b3d3e81efe5e3c5'),
    'param --g2=4 --g3=0 --z=0,1 --order=40 --precision=150 --format=text': (0, 'd692ce39589d16b4'),
    'expand --g2=4 --g3=0 --order=8 --what=fe --format=json': (0, '465855a514ca28c8'),
    'expand --g2=4 --g3=0 --order=8 --what=fl --format=json': (0, '1fcf1c8dc4ab0a5b'),
    'expand --g2=4 --g3=0 --order=8 --what=wp --format=json': (0, '8d3250c4d422399d'),
    'expand --g2=4 --g3=0 --order=8 --what=wpp --format=json': (0, '850b3b84e954e998'),
    'expand --g2=4 --g3=0 --order=8 --what=s --format=json': (0, '73cd1470598d4b7e'),
    'expand --g2=4 --g3=0 --order=8 --what=an --format=json': (0, 'ac57d84962c45f2a'),
    'grouplaw --g2=4 --g3=0 --order=6 --format=json': (0, '72f00fe67dffcd96'),
    'honda --g2=4 --g3=0 --pmax=13 --format=json': (0, '16ef53a2ea43044e'),
    'bernoulli --g2=4 --g3=0 --order=8 --format=json': (0, '9d05bab68c1e48fa'),
    'param --g2=4 --g3=0 --z=0,1 --order=40 --format=json': (0, 'a8f60d87e5c36185'),
    'param --g2=4 --g3=0 --z=0,1 --order=40 --precision=150 --format=json': (0, 'eab20fb5f53425ae'),
    'expand --g2=-7 --g3=13 --order=8 --what=fe --format=text': (0, '7e58960cc52514a4'),
    'expand --g2=-7 --g3=13 --order=8 --what=fl --format=text': (0, 'b77bd1ae6c4534f0'),
    'expand --g2=-7 --g3=13 --order=8 --what=wp --format=text': (0, '9f41f067f63e8742'),
    'expand --g2=-7 --g3=13 --order=8 --what=wpp --format=text': (0, '9a4bb24ca0044ce3'),
    'expand --g2=-7 --g3=13 --order=8 --what=s --format=text': (0, 'af1a6b247c3fb81d'),
    'expand --g2=-7 --g3=13 --order=8 --what=an --format=text': (0, '577e4a18ebe22cc9'),
    'grouplaw --g2=-7 --g3=13 --order=6 --format=text': (0, '103d8767ded856ef'),
    'honda --g2=-7 --g3=13 --pmax=13 --format=text': (0, '1389d77e48ec5932'),
    'bernoulli --g2=-7 --g3=13 --order=8 --format=text': (0, '0fa988ae7ff24d1a'),
    'param --g2=-7 --g3=13 --z=0,1 --order=40 --format=text': (0, 'c6864602d86939f5'),
    'param --g2=-7 --g3=13 --z=0,1 --order=40 --precision=150 --format=text': (0, 'dcdc372d5da92029'),
    'expand --g2=-7 --g3=13 --order=8 --what=fe --format=json': (0, '517e34ea3f649a33'),
    'expand --g2=-7 --g3=13 --order=8 --what=fl --format=json': (0, '96f418b9fd25d9ea'),
    'expand --g2=-7 --g3=13 --order=8 --what=wp --format=json': (0, '26076e449ecda4b9'),
    'expand --g2=-7 --g3=13 --order=8 --what=wpp --format=json': (0, 'a5a8824ff6eb9b13'),
    'expand --g2=-7 --g3=13 --order=8 --what=s --format=json': (0, '95fb8471a1bbdf4f'),
    'expand --g2=-7 --g3=13 --order=8 --what=an --format=json': (0, '9d6a581112e7c30f'),
    'grouplaw --g2=-7 --g3=13 --order=6 --format=json': (0, '91d91f7d5a743768'),
    'honda --g2=-7 --g3=13 --pmax=13 --format=json': (0, '7ccc452214a5a696'),
    'bernoulli --g2=-7 --g3=13 --order=8 --format=json': (0, '3b7e77e95e1a76e9'),
    'param --g2=-7 --g3=13 --z=0,1 --order=40 --format=json': (0, '24f3a2c9a153c198'),
    'param --g2=-7 --g3=13 --z=0,1 --order=40 --precision=150 --format=json': (0, '1efcf38af015f510'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=fe --format=text': (0, '191af319b68e6d65'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=fl --format=text': (0, '31a645936a0eba39'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=wp --format=text': (0, 'f2f7d38354161170'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=wpp --format=text': (0, '1c2f63c5203300c0'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=s --format=text': (0, '3cf9ab47da9f4255'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=an --format=text': (0, 'd67d91a9e05f342a'),
    'grouplaw --g2=-3/7 --g3=5/11 --order=6 --format=text': (0, '1a291d6dd392391c'),
    'honda --g2=-3/7 --g3=5/11 --pmax=13 --format=text': (0, 'ca934d7b5390684c'),
    'bernoulli --g2=-3/7 --g3=5/11 --order=8 --format=text': (0, '03fa0869f57d08b2'),
    'param --g2=-3/7 --g3=5/11 --z=0,1 --order=40 --format=text': (0, 'b8441883790252f0'),
    'param --g2=-3/7 --g3=5/11 --z=0,1 --order=40 --precision=150 --format=text': (0, '70cd98e21c50ee57'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=fe --format=json': (0, '12c48d800e7c724a'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=fl --format=json': (0, 'cfb5dcbd71e91823'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=wp --format=json': (0, 'bc2b5b7d88b93535'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=wpp --format=json': (0, 'cdfe251bbf31ebe7'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=s --format=json': (0, '11f3fd139e8f9f6a'),
    'expand --g2=-3/7 --g3=5/11 --order=8 --what=an --format=json': (0, '1a10a1e7aba672ce'),
    'grouplaw --g2=-3/7 --g3=5/11 --order=6 --format=json': (0, '192fa2b00896cc41'),
    'honda --g2=-3/7 --g3=5/11 --pmax=13 --format=json': (0, '7e63078449c3232b'),
    'bernoulli --g2=-3/7 --g3=5/11 --order=8 --format=json': (0, 'e2b4edf73ffda89b'),
    'param --g2=-3/7 --g3=5/11 --z=0,1 --order=40 --format=json': (0, '0f15ec47c5f0814a'),
    'param --g2=-3/7 --g3=5/11 --z=0,1 --order=40 --precision=150 --format=json': (0, '67ef60a3ee2d1359'),
    'classical --nmax=100 --format=text': (0, '84d91ad5ab296e58'),
    'classical --nmax=100 --s=1 --s=3 --order=8 --format=text': (0, 'a2692f0e9a6a0470'),
    'classical --nmax=100 --format=json': (0, '8d4aebc961f9234a'),
    'classical --nmax=100 --s=1 --s=3 --order=8 --format=json': (0, '3918fd13aca61a72'),
    'classical --nmax=1000 --s=102 --format=text': (0, 'ab9dbae863beb530'),
    'classical --nmax=1000 --s=102 --format=json': (0, 'cf3e47b55e90c928'),
    'honda --g2=4 --g3=0 --pmax=20 --order=23': (0, 'cf1c761f0bbd7aca'),
    'honda --g2=-7 --g3=13 --pmax=199 --format=json': (0, 'bd825ea0de6cb8f5'),
    'honda --g2=-3/7 --g3=5/11 --pmax=199 --format=json': (0, '9915fed14a681919'),
    'expand --g2=5/6 --g3=-7/9 --order=60 --what=s --format=json': (0, '56b334b8403f6eaa'),
    'expand --g2=5/6 --g3=-7/9 --order=60 --what=an --format=json': (0, '6f9f993fc748c51f'),
    'expand --g2=-3/7 --g3=5/11 --order=120 --what=fl --format=json': (0, '04186b49334c8b08'),
    'expand --g2=-3/7 --g3=5/11 --order=120 --what=an --format=json': (0, '2044a7006610ccb2'),
    'param --g2=-7 --g3=13 --z=0.1,0.8 --order=60 --precision=150 --format=json': (0, 'b243178f0f69910c'),
    'param --g2=4 --g3=0 --z=0.1,0.8 --order=30 --nmax=20 --format=json': (0, 'bc260a8b9d56a717'),
    'bernoulli --g2=1 --g3=1 --order=0': (0, '2c002a5073fb05bb'),
    'bernoulli --g2=-7 --g3=13 --order=60 --format=json': (0, 'fa7c7e55d4e30438'),
    'bernoulli --g2=-3/7 --g3=5/11 --order=60 --format=json': (0, 'acdcc54fe8b02b26'),
    'bernoulli --g2=5/6 --g3=-7/9 --order=60 --format=json': (0, 'e7da79c717d22450'),
    'expand --g2=5/6 --g3=-7/9 --order=61 --what=wp --format=json': (0, '4877ee63f6966b3b'),
    'expand --g2=5/6 --g3=-7/9 --order=61 --what=wpp --format=json': (0, 'a7f3fd787a04b65b'),
    'expand --g2=0 --g3=0 --order=8 --what=wp --format=text': (0, '5cc396c7f58ffd9e'),
    'expand --g2=0 --g3=0 --order=8 --what=wp --format=json': (0, '33973778d7af7078'),
    'expand --g2=0 --g3=0 --order=8 --what=wpp --format=text': (0, '1b91b817c3b11f1f'),
    'expand --g2=0 --g3=0 --order=8 --what=wpp --format=json': (0, 'e9ec0ed2044be2ba'),
    'param --g2=-3/7 --g3=5/11 --z=0.1,0.8 --order=60 --precision=150 --format=json': (0, '2cad02a03fe2bcfc'),
    'grouplaw --g2=-7 --g3=13 --order=18 --format=json': (0, '3c37780a28c20c30'),
    'grouplaw --g2=-3/7 --g3=5/11 --order=18 --format=json': (0, 'd0f9cfed43631338'),
    'grouplaw --g2=5/6 --g3=-7/9 --order=13 --format=json': (0, '4a363da02f5cde10'),
    'grouplaw --g2=-3/7 --g3=5/11 --order=13 --format=text': (0, '6026eecb1ff9efd3'),
    'expand --g2=-3/7 --g3=5/11 --order=61 --what=fe --format=text': (0, '19bec0a4cf3127c5'),
    'expand --g2=-3/7 --g3=5/11 --order=61 --what=fe --format=json': (0, '076f81fa9f6c4b02'),
    'expand --g2=5/6 --g3=-7/9 --order=61 --what=fe --format=text': (0, '53e5ac83c345c32c'),
    'expand --g2=5/6 --g3=-7/9 --order=61 --what=fe --format=json': (0, 'faf9119e7e1ae0d1'),
    'param --g2=4 --g3=0 --z=0,0.01 --order=50': (1, 'e3b0c44298fc1c14'),
    'expand --g3=0 --order=4 --what=fe': (2, 'e3b0c44298fc1c14'),
    'expand --g2=4 --g3=0 --order=2 --what=s': (2, 'e3b0c44298fc1c14'),
    'expand --g2=4 --g3=0 --order=4 --what=xx': (2, 'e3b0c44298fc1c14'),
    'expand --g2=1/0 --g3=0 --order=4 --what=fe': (2, 'e3b0c44298fc1c14'),
    'expand --g2=4 --g3=0 --order=4': (2, 'e3b0c44298fc1c14'),
    'grouplaw --g2=4 --g3=0 --order=1': (2, 'e3b0c44298fc1c14'),
    'honda --g2=4 --g3=0 --pmax=4': (2, 'e3b0c44298fc1c14'),
    'honda --g2=4 --g3=0 --pmax=20 --order=19': (2, 'e3b0c44298fc1c14'),
    'bernoulli --g2=4 --g3=0 --order=-1': (2, 'e3b0c44298fc1c14'),
    'param --g2=4 --g3=0 --z=0,-1 --order=50': (2, 'e3b0c44298fc1c14'),
    'param --g2=4 --g3=0 --z=0,1 --order=10 --nmax=11': (2, 'e3b0c44298fc1c14'),
    'param --g2=4 --g3=0 --z=0,1 --order=10 --precision=0': (2, 'e3b0c44298fc1c14'),
    'param --g2=4 --g3=0 --z=1 --order=10': (2, 'e3b0c44298fc1c14'),
    'classical --nmax=0': (2, 'e3b0c44298fc1c14'),
    'classical --nmax=10 --s=0': (2, 'e3b0c44298fc1c14'),
    'classical --nmax=10 --order=0': (2, 'e3b0c44298fc1c14'),
    'frobnicate': (2, 'e3b0c44298fc1c14'),
}

HELP_FLAGS = {
    'expand': ['--help', '--g2', '--g3', '--order', '--what', '--format', '--config'],
    'grouplaw': ['--help', '--g2', '--g3', '--order', '--format', '--config'],
    'honda': ['--help', '--g2', '--g3', '--order', '--pmax', '--format', '--config'],
    'bernoulli': ['--help', '--g2', '--g3', '--order', '--format', '--config'],
    'param': ['--help', '--g2', '--g3', '--order', '--z', '--nmax', '--precision', '--format', '--config'],
    'classical': ['--help', '--order', '--nmax', '--s', '--format', '--config'],
}


@pytest.mark.parametrize("argv", _corpus(), ids=" ".join)
def test_golden_report(argv):
    assert _run(argv) == GOLDEN[" ".join(argv)]


def test_corpus_is_fully_recorded():
    assert sorted(" ".join(argv) for argv in _corpus()) == sorted(GOLDEN)


@pytest.mark.parametrize("command", tuple(_COMMANDS))
def test_help_lists_the_same_flags(command):
    assert _help_flags(command) == HELP_FLAGS[command]


if __name__ == "__main__":
    print("GOLDEN = {")
    for argv in _corpus():
        print(f"    {' '.join(argv)!r}: {_run(argv)!r},")
    print("}\n\nHELP_FLAGS = {")
    for command in _COMMANDS:
        print(f"    {command!r}: {_help_flags(command)!r},")
    print("}")
