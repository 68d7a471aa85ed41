from hypothesis import settings

# derandomized, so every run of the suite checks the same examples; no
# deadline, since example times vary with machine load
settings.register_profile("affinetest", derandomize=True, deadline=None, database=None)
settings.load_profile("affinetest")
