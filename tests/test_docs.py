"""Documentation health: the generator runs and the docs stay honest."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestApiDocGenerator:
    def test_generates_and_covers_key_symbols(self, tmp_path):
        out = tmp_path / "API.md"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "gen_api_docs.py"),
             str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        for symbol in (
            "KascadeConfig", "ChunkRingBuffer", "StripePlan",
            "LocalBroadcast", "KascadeSim", "SlowNodePolicy",
            "build_fat_tree", "solve_max_min", "FabricTracer",
            "fig15_fault_tolerance",
            "run_broadcast", "BroadcastSession", "TraceCollector",
            "classify_detector",
        ):
            assert symbol in text, f"{symbol} missing from API.md"

    def test_checked_in_copy_exists(self):
        api = ROOT / "docs" / "API.md"
        assert api.exists()
        assert "API reference" in api.read_text()

    def test_checked_in_copy_is_what_the_generator_writes(self, tmp_path):
        """docs/API.md cannot rot: a public signature changed without
        regenerating it (``python scripts/gen_api_docs.py``) fails here.
        Two generations are compared too, so a rendering that varies
        from run to run (an address, a set's order) fails as itself."""
        fresh = []
        for run in range(2):
            out = tmp_path / f"API{run}.md"
            proc = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "gen_api_docs.py"),
                 str(out)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONHASHSEED": str(run)},
            )
            assert proc.returncode == 0, proc.stderr
            fresh.append(out.read_text())
        assert fresh[0] == fresh[1], "the generator is not deterministic"
        assert (ROOT / "docs" / "API.md").read_text() == fresh[0], (
            "docs/API.md is stale: run python scripts/gen_api_docs.py")


class TestObservabilityDoc:
    def test_covers_schema_and_workflows(self):
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        # The schema table names every event type and detector.
        from repro.core.tracing import EVENT_TYPES
        for etype in EVENT_TYPES:
            assert f"`{etype}`" in text, f"{etype} missing from schema"
        for topic in ("failure chronology", "milestones", "run_broadcast",
                      "--trace", "NULL_TRACER", "perfstats"):
            assert topic in text, f"{topic} not documented"


class TestDocsCrossReferences:
    def test_readme_references_exist(self):
        readme = (ROOT / "README.md").read_text()
        for path in ("DESIGN.md", "EXPERIMENTS.md", "docs/PROTOCOL.md",
                     "docs/SIMULATOR.md"):
            assert path.split("/")[-1] in readme
            assert (ROOT / path).exists(), path

    def test_examples_listed_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        import re
        for match in re.finditer(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(0)

    def test_experiments_covers_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for fig in ("Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
                    "Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15"):
            assert fig in text, f"{fig} missing from EXPERIMENTS.md"

    def test_design_lists_substitutions(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Grid'5000" in text
        assert "Distem" in text
        assert "substitution" in text.lower()


class TestDocstringCoverage:
    """Every public item in every package must carry a docstring."""

    PACKAGES = [
        "repro", "repro.core", "repro.topology", "repro.simnet",
        "repro.runtime", "repro.launch", "repro.baselines",
        "repro.protosim", "repro.distem", "repro.bench",
    ]

    def test_public_api_documented(self):
        import importlib
        import inspect

        undocumented = []
        for pkg_name in self.PACKAGES:
            module = importlib.import_module(pkg_name)
            assert inspect.getdoc(module), f"{pkg_name} has no module docstring"
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for name in names:
                obj = getattr(module, name, None)
                if obj is None or inspect.ismodule(obj):
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{pkg_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_methods_documented(self):
        """Public methods of the flagship classes are documented."""
        import inspect

        from repro.baselines import BroadcastMethod, KascadeSim
        from repro.core import ChunkRingBuffer, StripePlan, TransferReport
        from repro.runtime import LocalBroadcast
        from repro.simnet import Fabric, Stream

        missing = []
        for cls in (ChunkRingBuffer, StripePlan, TransferReport,
                    LocalBroadcast, Fabric, Stream, BroadcastMethod,
                    KascadeSim):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member) and member.__qualname__.startswith(
                        cls.__name__ + "."):
                    if not inspect.getdoc(member):
                        missing.append(f"{cls.__name__}.{name}")
        assert not missing, f"missing method docstrings: {missing}"
