# Runs leave copies of this directory under results/; never collect them.
collect_ignore = ["results"]
