"""End-to-end benchmark: raw text to served top-K, through the CLI."""
