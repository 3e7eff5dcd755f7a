"""wcdscan: web cache deception scanner plus a deterministic cache lab."""

__version__ = "0.1.0"
