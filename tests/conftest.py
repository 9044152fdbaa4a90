from pathlib import Path

DATA_DIR = Path(__file__).parent.parent / "polytopes"
