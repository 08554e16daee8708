"""End-to-end benchmark of the HBH reproduction (see README.md)."""
