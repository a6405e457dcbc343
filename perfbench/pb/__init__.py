"""Support modules of the rtoc host-time benchmark (run.py)."""
