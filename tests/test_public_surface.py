import subprocess
import sys
from pathlib import Path

import narragraph as ng


def test_every_exported_name_resolves():
    missing = [name for name in ng.__all__ if not hasattr(ng, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(ng.__all__)) == len(ng.__all__)
    assert ng.__all__ == sorted(ng.__all__)


def test_package_imports_only_the_standard_library():
    # The package keeps zero runtime dependencies. ``-I`` ignores
    # PYTHONPATH and the user site, so the import sees src/ and the stdlib.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import narragraph, narragraph.cli\n"
        "assert narragraph.__file__.startswith(sys.path[0]), narragraph.__file__\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print('\\n'.join(sorted(new)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "narragraph" in loaded
    assert sorted(loaded - sys.stdlib_module_names - {"narragraph"}) == []
