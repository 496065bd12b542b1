"""The repository benchmark (see run.py and NOTES.md)."""
