"""Reference implementations that tests compare the production paths against."""
