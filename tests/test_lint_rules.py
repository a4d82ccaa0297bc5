"""Per-rule fixtures for repro.lint: every rule must fire on its
known-bad snippet and stay silent on the idiomatic repo pattern.

The fixtures mirror real shapes: the good snippets are distilled from
packed-word kernels, engine-registry use and library code, so a rule
change that would start flagging those idioms fails here first.
"""

from repro.lint import FileContext, lint_sources

REGISTRY_MODULE = '''
from typing import Literal

Engine = Literal["bitand", "kronecker"]
ENGINES: tuple[str, ...] = ("bitand", "kronecker")
'''


def _run(sources, docs=None, select=None):
    contexts = [
        FileContext.from_source(src, path) for path, src in sources.items()
    ]
    return lint_sources(contexts, docs=docs or {}, select=select)


def _rules_fired(sources, docs=None, select=None):
    return [f.rule for f in _run(sources, docs, select)]


class TestRL001Uint64Safety:
    def test_int_literal_mix_fires(self):
        bad = (
            "import numpy as np\n"
            "def f(words):\n"
            "    words = np.asarray(words, dtype=np.uint64)\n"
            "    return words & 0xFF\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_uncast_shift_amount_fires(self):
        bad = (
            "import numpy as np\n"
            "def f(words, bits):\n"
            "    packed = np.zeros(4, dtype=np.uint64)\n"
            "    return packed >> bits\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_inplace_update_fires(self):
        bad = (
            "import numpy as np\n"
            "def f():\n"
            "    x = np.uint64(7)\n"
            "    x <<= 3\n"
            "    return x\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_producer_return_values_are_tracked(self):
        bad = (
            "from packed import shift_right\n"
            "def f(words):\n"
            "    shifted = shift_right(words, 3)\n"
            "    return shifted + 1\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_packed_word_idiom_is_clean(self):
        good = (
            "import numpy as np\n"
            "_WORD = 64\n"
            "def shift(words, bits):\n"
            "    words = np.asarray(words, dtype=np.uint64)\n"
            "    shifted = np.zeros_like(words)\n"
            "    shifted[:-1] = words[1:] << np.uint64(_WORD - bits)\n"
            "    return (shifted >> np.uint64(bits)) | shifted\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_astype_uint64_counts_as_cast(self):
        good = (
            "import numpy as np\n"
            "def masks(positions):\n"
            "    return np.uint64(1) << (positions % 64).astype(np.uint64)\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_untracked_int_arrays_are_ignored(self):
        good = (
            "import numpy as np\n"
            "def f(words):\n"
            "    nonzero = np.nonzero(words)[0]\n"
            "    return nonzero * 64 + 1\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_size_attribute_is_not_uint64(self):
        good = (
            "import numpy as np\n"
            "def f(words):\n"
            "    words = np.ascontiguousarray(words, dtype=np.uint64)\n"
            "    return words.size * 64\n"
        )
        assert _rules_fired({"src/m.py": good}) == []


class TestRL004EngineRegistryParity:
    def test_unknown_engine_kwarg_fires(self):
        user = 'from repro import mine\nresult = mine(s, engine="warp")\n'
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/use.py": user}
        )
        assert fired == ["RL004"]

    def test_known_engine_kwarg_is_clean(self):
        user = 'from repro import mine\nresult = mine(s, engine="bitand")\n'
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/use.py": user}
        )
        assert fired == []

    def test_pytest_raises_body_is_exempt(self):
        test = (
            "import pytest\n"
            "def test_rejects():\n"
            "    with pytest.raises(ValueError):\n"
            '        Miner(engine="quantum")\n'
            '    Miner(engine="bitand")\n'
            '    Miner(engine="kronecker")\n'
        )
        fired = _rules_fired(
            {
                "src/convolution_miner.py": REGISTRY_MODULE,
                "tests/test_x.py": test,
            }
        )
        assert fired == []

    def test_literal_alias_drift_fires(self):
        drifted = REGISTRY_MODULE.replace(
            'Literal["bitand", "kronecker"]', 'Literal["bitand"]'
        )
        fired = _rules_fired({"src/convolution_miner.py": drifted})
        assert fired == ["RL004"]

    def test_handlisted_argparse_choices_fire(self):
        cli = (
            "import argparse\n"
            "parser = argparse.ArgumentParser()\n"
            'parser.add_argument("--engine", choices=("bitand",), '
            'default="bitand")\n'
        )
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/cli.py": cli}
        )
        assert fired == ["RL004"]

    def test_derived_argparse_choices_are_clean(self):
        cli = (
            "import argparse\n"
            "from repro.core import ENGINES\n"
            "parser = argparse.ArgumentParser()\n"
            'parser.add_argument("--engine", choices=ENGINES, '
            'default="bitand")\n'
        )
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/cli.py": cli}
        )
        assert fired == []

    def test_unknown_engine_in_docs_fires(self):
        docs = {"docs/api.md": 'Use `engine="warp"` for speed.\n'}
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE}, docs=docs
        )
        assert "RL004" in fired

    def test_registry_engine_missing_from_docs_fires(self):
        docs = {"docs/api.md": "Only bitand is documented here.\n"}
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE}, docs=docs
        )
        assert fired == ["RL004"]  # 'kronecker' never mentioned

    def test_registry_engine_untested_fires(self):
        test = 'def test_one():\n    Miner(engine="bitand")\n'
        fired = _rules_fired(
            {
                "src/convolution_miner.py": REGISTRY_MODULE,
                "tests/test_x.py": test,
            }
        )
        assert fired == ["RL004"]  # 'kronecker' never exercised

    def test_no_registry_in_scan_set_skips_rule(self):
        user = 'result = mine(s, engine="warp")\n'
        assert _rules_fired({"src/use.py": user}) == []


class TestRL005Hygiene:
    def test_mutable_default_fires(self):
        bad = "def f(x, acc=[]):\n    return acc\n"
        assert _rules_fired({"src/m.py": bad}) == ["RL005"]

    def test_mutable_kwonly_default_fires(self):
        bad = "def f(x, *, acc={}):\n    return acc\n"
        assert _rules_fired({"src/m.py": bad}) == ["RL005"]

    def test_bare_except_fires(self):
        bad = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 0\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL005"]

    def test_typed_except_and_none_default_are_clean(self):
        good = (
            "def f(x, acc=None):\n"
            "    try:\n"
            "        return acc or [x]\n"
            "    except ValueError:\n"
            "        return []\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_rule_scoped_to_src(self):
        bad = "def f(x, acc=[]):\n    return acc\n"
        assert _rules_fired({"tests/helper.py": bad}) == []
