"""Reference implementations the property tests compare ``src/repro`` against."""
