"""The record reader of tools/ab_pairs.py, on a synthetic benchmark record."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(checkout, workload, seed, trace, details):
    out = checkout / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, "details": details}
    (out / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_record_figures_sum_the_raw_cells_and_read_the_probe(ab_pairs, tmp_path):
    write_record(tmp_path, "grid-small", 3, 0, {
        "measured_cell_median_s": [0.25, 0.5, 1.25],
        "rescaled_cell_median_s": [9.0, 9.0, 9.0],
        "probe_kernel_median_s": 0.004,
    })
    # a traced record and another seed's beside it are not read
    write_record(tmp_path, "grid-small", 3, 1, {"probe_kernel_median_s": 1.0})
    write_record(tmp_path, "grid-small", 0, 0, {
        "measured_cell_median_s": [7.0], "probe_kernel_median_s": 1.0,
    })
    assert ab_pairs.record_figures(tmp_path, "grid-small", 3) == (2.0, 0.004)


def test_missing_record_raises(ab_pairs, tmp_path):
    with pytest.raises(FileNotFoundError):
        ab_pairs.record_figures(tmp_path, "sc3-1e5", 0)
