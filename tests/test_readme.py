"""The fenced ``python`` blocks of README.md run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], "%s block %d" % (README.name, index), "exec"), {})


def test_the_factory_names_are_their_classes():
    """The README's backend table names classes and calls the older
    factory names their aliases."""
    import equihodge as eh

    assert eh.make_sphere_backend is eh.SphereBackend
    assert eh.make_torus_backend is eh.TorusBackend
    assert eh.make_product_backend is eh.ProductBackend
    assert eh.with_formal_generators is eh.FormalGeneratorBackend
    assert eh.dec_backend is eh.DecBackend
