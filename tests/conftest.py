import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from sqlscore import load_corpus, write_fixtures

# the helpers' asserts are checks too, and must hold under python -O as well
pytest.register_assert_rewrite("helpers")

from helpers import ConstantModel, serve_model  # noqa: E402

# Same examples on every run, and no example database written to disk.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # hypothesis's pytest plugin also caches the constants of local modules
    # in its storage directory while collecting; keep that out of the checkout
    config.stash[_HYPOTHESIS_HOME] = home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory):
    """(corpus path, db dir) for the built-in benchmark, built once."""
    out = tmp_path_factory.mktemp("fixtures")
    return write_fixtures(out)


@pytest.fixture(scope="session")
def corpus_path(fixture_paths):
    return fixture_paths[0]


@pytest.fixture(scope="session")
def db_dir(fixture_paths):
    return fixture_paths[1]


@pytest.fixture(scope="session")
def questions(corpus_path):
    return load_corpus(corpus_path)


@pytest.fixture()
def constant_model_url():
    """URL of a local model server that answers every question with SELECT 1."""
    yield from serve_model(ConstantModel)
