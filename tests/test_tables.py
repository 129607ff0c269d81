import numpy as np

from curvkit import Dataset, save_dataset
from curvkit.tables import format_cell, read_csv, write_csv

SPECIAL = [0.0, -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1, -1.5e-310]


class TestWriteCsv:
    def test_float_array_cells_are_repr(self, tmp_path):
        rows = np.array(SPECIAL).reshape(3, 3)
        path = tmp_path / "t.csv"
        write_csv(path, "s.v1", ["a", "b", "c"], rows)
        lines = ["# schema=s.v1", "a,b,c"] + [",".join(repr(float(v)) for v in row) for row in rows]
        assert path.read_text() == "\n".join(lines) + "\n"
        _, _, cells = read_csv(path)
        back = np.array([[float(c) for c in row] for row in cells])
        assert back.tobytes() == rows.tobytes()

    def test_array_and_row_paths_write_the_same_bytes(self, tmp_path):
        # More rows than one block holds, so the array path writes several.
        gen = np.random.default_rng(5)
        rows = gen.standard_normal((3000, 40)) * 10.0 ** gen.integers(-300, 300, (3000, 40))
        write_csv(tmp_path / "a.csv", "s.v1", [f"c{j}" for j in range(40)], rows)
        write_csv(tmp_path / "b.csv", "s.v1", [f"c{j}" for j in range(40)], [list(r) for r in rows])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_mixed_rows_keep_format_cell(self, tmp_path):
        rows = [[1, None, True, 2.5], [np.int64(3), 0.1, False, "x"]]
        path = tmp_path / "m.csv"
        write_csv(path, "s.v1", ["a", "b", "c", "d"], rows)
        lines = ["# schema=s.v1", "a,b,c,d"] + [",".join(format_cell(v) for v in r) for r in rows]
        assert path.read_text() == "\n".join(lines) + "\n"
        assert lines[2:] == ["1,,true,2.5", "3,0.1,false,x"]

    def test_no_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, "s.v1", ["a"], np.empty((0, 1)))
        assert path.read_text() == "# schema=s.v1\na\n"


def test_dataset_special_values_round_trip(tmp_path):
    # Unit-norm rows can still hold signed zeros and subnormals.
    inputs = np.array([[1.0, -0.0, 5e-324], [0.0, -1.0, -2.5e-310]])
    ds = Dataset(inputs, np.array([1.0, -1.0]), 0)
    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    assert path.read_text().splitlines()[2:] == [
        "1.0,1.0,-0.0,5e-324",
        "-1.0,0.0,-1.0,-2.5e-310",
    ]
    _, _, cells = read_csv(path)
    loaded = np.array([[float(c) for c in row] for row in cells])
    assert loaded[:, 1:].tobytes() == inputs.tobytes()
    assert loaded[:, 0].tobytes() == ds.targets.tobytes()
