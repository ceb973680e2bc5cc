from hypothesis import settings

# Fixed example generation and no example database: every run of the suite
# draws the same cases.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
