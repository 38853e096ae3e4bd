"""Byte-for-byte pins of built recognizers and of addition traces.

A recognizer is pinned by the sha256 of its ``to_text()``, which canonical
minimization and sorted transitions make reproducible; an addition trace
by the sha256 of its ``TraceStep`` lines joined with newlines; a compiled
formula by the sha256 of ``compile_formula(...).to_text()``.  Changes to
the rewrite rules, the recognizer constructions or the automata toolkit
that keep behaviour must keep every hash.
"""

import hashlib
import random

import pytest

from ostrowski import ContinuedFraction, add
from ostrowski.cli import _RELATIONS
from ostrowski.logic import compile_formula

RECOGNIZER_PINS = {
    ("1;(1)", "valid"): "29bfbff6dc44538c6705160ed8bda28292430180f9c21e31cffea1aa14cd213a",
    ("1;(1)", "sum"): "bde04d90d03951c1504fae2bfc2ce923d3b143030ba4fa6d6f03012865210c70",
    ("1;(1)", "pass1"): "f2f33bc7b94fddd7561b5cfc90fdf0ed39ff052a4ddabef89b22a33d03c43761",
    ("1;(1)", "pass2"): "8c71869b47383aa01b935b2725a778b7e5ed498808d45d365ab6c455f91a4a8b",
    ("1;(1)", "pass3"): "32c5003363bb966f2eb4caaf01d9b133cf2608fbe7e41e185299a08918b0eaa8",
    ("1;(1)", "adder"): "cf2bce2ee2746c63e31b067f9a3ea1a98a8a3a7c76711ae71b2f876528c866b2",
    ("1;(1)", "eq"): "329af1f04ed3825dcfd49680f303b2520d888808e81207c6e7180e69c666f5eb",
    ("1;(1)", "lt"): "5187e45ba17598ee2eecf6691b1a6fa51d3cc0640d0ba11f12cefe4e9222f548",
    ("1;(1)", "va"): "f0ed511eb3b559c4dfba6b05ae9ee57a0a27202696bac17e62f8859dc8507d3f",
    ("1;(2)", "valid"): "2a95a8e0d7f2fb5ce21061dd5b1441153477d7f7f9fb7cf4491e752931b54ea0",
    ("1;(2)", "sum"): "1fe5b7b8b6f1b3b7d44ae83118a99288d47eb6c0d4522f3d1fb312472136847e",
    ("1;(2)", "pass1"): "12369451969671a0c20bab9ab4380544f6e0d2aa331db81e738fe25c81ccf765",
    ("1;(2)", "pass2"): "b9a0adc730a3152c87f27625313c56fcaf8f4afe41179f567ff0771cfaf29692",
    ("1;(2)", "pass3"): "f0eb917cbef1b90acf44c08693532cc9d575a24f52470682290ab5923e0ad606",
    ("1;(2)", "adder"): "976c7657e5deb48477bed985e7be2fb6744f9b26d3ab0c191bc89919ba23fc7c",
    ("1;(2)", "eq"): "14dae48f2bd8c643e21f14c03ee4459eb583bf93ab573445474fc3dc4aa4e485",
    ("1;(2)", "lt"): "cc643f4e0ab9a0c20f75dbe4154e324945fa1b2b981c4568a2f2589245f8488c",
    ("1;(2)", "va"): "2199da61ddcb206d2438ea51989d6f24c9d7f659ddde39326761921ba86743b9",
    ("0;1,(1,2)", "valid"): "1048df34032e0bc430be7d9246e441fefcaf9bba84148fee1a07904b4c53511a",
    ("0;1,(1,2)", "sum"): "b748e73267d06ed8d5406c7adf800062d4e94f79f7ac5c70a6bf7cada85ab67f",
    ("0;1,(1,2)", "pass1"): "8c864494194fb8d83ac916f42edf47fec962fe13fd9ddf49f74c457cb7dc6d9f",
    ("0;1,(1,2)", "pass2"): "81e5bf1e3069b2d5b4647a3653217486b4e9adfc3f1f6033f3368dc16bc1e27c",
    ("0;1,(1,2)", "pass3"): "280988ddce258427c55534394755673fef2fee4235099acb87517466a2bf38b1",
    ("0;1,(1,2)", "adder"): "1a782cf5a481de11cc13800082a56807fe3a940e412442ee6802d2ef3c600cf7",
    ("0;1,(1,2)", "eq"): "2f662c498058ea7dd45cd656a948e696f45552267303e56a6cdc77bb6d4a8a14",
    ("0;1,(1,2)", "lt"): "08b34ec5beba51dfba8500790ae67b176cf9361561bf945514ec218bb0208f98",
    ("0;1,(1,2)", "va"): "e84d45a0e303a6adb3f37f19a2c9095a99bf75bce80e00477cafe4d301417cee",
    ("1;(3,1,2)", "valid"): "cae82e913c384b51ae790f8afbfa7a581e7487fa8f705935fee43184db1a09fb",
    ("1;(3,1,2)", "sum"): "3b0c66b03bb4f9ca8160ece16c0ecf7620e4fb399f2dd14f2c5c72dc98639e3d",
    ("1;(3,1,2)", "pass1"): "468deac74bfc4b0792f6d2579ccb4a4ea148115d476216f3207cdeaea3e7b33a",
    ("1;(3,1,2)", "pass2"): "a43a8969a2ecb2e82ccbfc13c392649504a0e2cb6d253cd5bd2f36acaa013503",
    ("1;(3,1,2)", "pass3"): "da7b0efb7fe80479b0750c897c9a4c49f8bbc80b59a81fda7844b2c067e177de",
    ("1;(3,1,2)", "adder"): "5c9b3c9c57fc781c8f8598b5a74d0f46706468d57e9aa6720c97b6340e08497b",
    ("1;(3,1,2)", "eq"): "33ac100eb1b42bbf945abdd054b8b9a412425fc80ed8b029fc3dfd3bd8b139b8",
    ("1;(3,1,2)", "lt"): "7b6389d212d5469928afa0def89aa0c8bb87e7e1ba2db1c46dfd0e4fafa69c94",
    ("1;(3,1,2)", "va"): "eadc6a53ad4b5effbb94fdb9763ab3e17e34ec7cfef4e6da4c76b44e09932a4f",
}

TRACE_PINS = {
    "1;(1)": "d6a496515fdd00a104b20c32b3dca6ab019da955e86726fc9d4f9c9a490fd4b7",
    "1;(2)": "268a1a69f445de515a070a8be503379b823a41fdad953de5e11199566b5a1c48",
    "0;1,(1,2)": "314b7d57eda090354f3a4193bcdd62d3582fdc8a7e82e7cf2e29e8ca842ce651",
    "1;(3,1,2)": "a697eeb7fab5b52e4719f5550788ff2f3c17c855a0ffe423a3c7b44e0f15efa7",
}

# Between them: a numeral, a merged repeated variable, a permutation,
# complement, union and projection; the last one has five tracks before
# its projection.  The bounds of one variable by a numeral, both ways and
# at 0, were taken from their restriction of the less-than relation.
FORMULA_PINS = {
    ("1;(1)", "x + 3 = y", "x,y"): "bb63c769146e1d956963c583888b201f03b93cbc30e54e142598c94b4416a3e9",
    ("1;(1)", "x + x = y", "x,y"): "c48cca8c29a9425ff91ff0c1e095c40acc206cdd13efc0a66b731c7313456e10",
    ("1;(1)", "y <= x", "x,y"): "89ac2897643b63ffd0345964283d16eb67051d9f774347f8d8524c6f0457de11",
    ("1;(1)", "~(x = y) | V(x) = y", "x,y"): "1b7d14b7767f97f2310d56ca045cc241c2d11dcd43a775ead164f38b2252a917",
    ("1;(1)", "E z. x + z = y & V(z) = z", "x,y"): "9827d614b8c9d5544ddaac8ac0ff422f43597d451964cb4bea7742aa77ccdbd0",
    ("1;(1)", "E u. x + y = u & u + z = w", "x,y,z,w"): "3b97b73190968fdbfd720a42e701dd89c1c7ec5219f2320624d81be1e2136062",
    ("1;(2)", "x + 3 = y", "x,y"): "22d2170bf3a99702f18fbee825a00a9586f0e2f4c8590401bbbd194938c21e24",
    ("1;(2)", "x + x = y", "x,y"): "a0318b9b85cfa44d8068483633b560c26fc5d5f9ec473cfd92f3cf58d8ecfa20",
    ("1;(2)", "y <= x", "x,y"): "3411fd810795d98b45db08142ce0835893bd806393cd1c3d3627feb41c9bd6ac",
    ("1;(2)", "~(x = y) | V(x) = y", "x,y"): "29bfd495599e4879268ee989cf77ceef5785fdb9ac714b9d0896a973afb20235",
    ("1;(2)", "E z. x + z = y & V(z) = z", "x,y"): "cacac85b6349829347940f813f8c90cc57595ed175f38991dbba97e4b6864aea",
    ("1;(1)", "x <= 537", "x"): "7ff95e16a2d3cef4d4dccdcc474d6c2f84f6526d7ae5bb177953127571784819",
    ("1;(1)", "537 <= x", "x"): "6162554f568a43ecfb2f69e4ddd5a831e29b558e54b8fd5df8ff00486a94af17",
    ("1;(1)", "x <= 0", "x"): "643988c0ad26c1d9ed9671c83aecc4570cd75038448e85a8417433b3b7667d19",
    ("1;(1)", "y <= 20 & 7 <= x", "x,y"): "a21cce1842ec1ae277472b5d23f1bd11e0bf3edddd1ecacc1bc3c40692e60367",
    ("1;(2)", "x <= 537", "x"): "609cefcd46dadef4333897bf807d398c1f72b8440e995255d7bf87629c4d9a45",
    ("1;(2)", "537 <= x", "x"): "1b420887962bf06fabf2e907fa1c9a3a57eae3f2e2c7e6f8f83f4692419aaf51",
    ("1;(2)", "x <= 0", "x"): "50d3d156a83b2399db3f999a72b300189d50c42a5e96a066cdeff1400760c0e3",
    ("1;(2)", "y <= 20 & 7 <= x", "x,y"): "b76f3e7e7d5909a6c78723fff1e1646609dcb2b74ef85f2880afad9229f4ec3d",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_trace(cf_text: str) -> str:
    """Trace lines of 24 seeded additions at about 10^3, 10^20 and 10^60."""
    cf = ContinuedFraction.from_text(cf_text)
    rng = random.Random(1407)
    trace = []
    for magnitude in (3, 20, 60):
        for _ in range(8):
            add(cf, rng.randrange(10**magnitude), rng.randrange(10**magnitude), trace=trace)
    return "\n".join(str(step) for step in trace)


@pytest.mark.parametrize(
    "cf_text,relation", list(RECOGNIZER_PINS), ids=[f"{c}-{r}" for c, r in RECOGNIZER_PINS]
)
def test_recognizer_pinned(cf_text, relation):
    automaton = _RELATIONS[relation](ContinuedFraction.from_text(cf_text))
    assert sha256(automaton.to_text()) == RECOGNIZER_PINS[cf_text, relation]


@pytest.mark.parametrize("cf_text", list(TRACE_PINS))
def test_trace_pinned(cf_text):
    assert sha256(seeded_trace(cf_text)) == TRACE_PINS[cf_text]


@pytest.mark.parametrize(
    "cf_text,formula,order", list(FORMULA_PINS), ids=[f"{c}-{f}" for c, f, _ in FORMULA_PINS]
)
def test_formula_pinned(cf_text, formula, order):
    automaton = compile_formula(ContinuedFraction.from_text(cf_text), formula, order.split(","))
    assert sha256(automaton.to_text()) == FORMULA_PINS[cf_text, formula, order]
