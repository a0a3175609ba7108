"""CLI output on a fixed input set must match tests/golden/expected byte for byte."""

import pytest

from golden.make_golden import CASES, expected_path, run_case, write_inputs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(str(directory))
    return str(directory)


@pytest.mark.parametrize("name, argv, want_code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(inputs, name, argv, want_code):
    code, text = run_case(argv, inputs)
    assert code == want_code
    with open(expected_path(name), "rb") as fh:
        assert text.encode("utf-8") == fh.read()
