"""The whole-program project model: parsing, symbols, writes, types."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.program import (
    ProjectModel,
    iter_python_files,
    module_name_for,
)


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


PKG = {
    "pkg/__init__.py": "from .shard import ShardState\n",
    "pkg/shard.py": (
        "from .index import ARTree\n"
        "\n"
        "class ShardState:\n"
        "    def __init__(self) -> None:\n"
        "        self.artree = ARTree.build()\n"
        "        self.count = 0\n"
        "\n"
        "    def ingest(self, record: object) -> None:\n"
        "        self.artree.append_record(record)\n"
        "        self.count += 1\n"
    ),
    "pkg/index.py": (
        "class ARTree:\n"
        "    @classmethod\n"
        "    def build(cls) -> 'ARTree':\n"
        "        return cls()\n"
        "\n"
        "    def append_record(self, record: object) -> None:\n"
        "        pass\n"
    ),
}


class TestModuleNames:
    def test_packages_derive_dotted_names(self, tmp_path):
        write_tree(tmp_path, PKG)
        assert module_name_for(tmp_path / "pkg" / "shard.py") == "pkg.shard"
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_loose_files_use_their_stem(self, tmp_path):
        target = tmp_path / "script.py"
        target.write_text("x = 1\n")
        assert module_name_for(target) == "script"


class TestWalking:
    def test_fixture_and_pycache_dirs_are_skipped(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/mod.py": "x = 1\n",
                "src/fixtures/seeded.py": "y = 2\n",
                "src/__pycache__/junk.py": "z = 3\n",
            },
        )
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["mod.py"]

    def test_explicit_file_paths_are_never_skipped(self, tmp_path):
        write_tree(tmp_path, {"fixtures/seeded.py": "y = 2\n"})
        target = tmp_path / "fixtures" / "seeded.py"
        assert list(iter_python_files([target])) == [target]


class TestModel:
    def test_symbols_and_qualnames(self, tmp_path):
        root = write_tree(tmp_path, PKG)
        model = ProjectModel.build([root])
        assert "pkg.shard" in model.modules
        assert "pkg.shard.ShardState" in model.classes
        assert "pkg.shard.ShardState.ingest" in model.functions
        method = model.functions["pkg.shard.ShardState.ingest"]
        assert method.cls == "pkg.shard.ShardState"
        assert method.name == "ingest"

    def test_attribute_write_index(self, tmp_path):
        root = write_tree(tmp_path, PKG)
        model = ProjectModel.build([root])
        writes = {
            (w.function, w.obj, w.attr, w.augmented)
            for w in model.attribute_writes
        }
        assert (
            "pkg.shard.ShardState.__init__",
            "self",
            "artree",
            False,
        ) in writes
        assert (
            "pkg.shard.ShardState.ingest",
            "self",
            "count",
            True,
        ) in writes

    def test_classmethod_constructor_harvests_attr_type(self, tmp_path):
        root = write_tree(tmp_path, PKG)
        model = ProjectModel.build([root])
        shard_cls = model.classes["pkg.shard.ShardState"]
        assert shard_cls.attr_types["artree"] == "ARTree"

    def test_import_resolution_through_relative_imports(self, tmp_path):
        root = write_tree(tmp_path, PKG)
        model = ProjectModel.build([root])
        shard_module = model.modules["pkg.shard"]
        assert (
            model.resolve_name(shard_module, "ARTree")
            == "pkg.index.ARTree"
        )

    def test_syntax_errors_are_collected_not_raised(self, tmp_path):
        write_tree(tmp_path, {"bad.py": "def broken(:\n"})
        model = ProjectModel.build([tmp_path])
        assert len(model.errors) == 1
        assert "bad.py" in model.errors[0]
