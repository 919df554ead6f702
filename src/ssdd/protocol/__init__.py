"""Two-party detection protocol: wire messages, transports, session logic."""
