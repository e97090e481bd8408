"""Why the opposite translation direction cannot work.

A signed two-Kraus probe has no unitary equivalent.  Measuring after it
yields three different success disciplines on four inputs; any structure-
preserving, behaviour-preserving translation into the state-vector
calculus would have to reproduce exactly this pattern with unitaries and
measurements, and the resulting equations have no solution.

This script reproduces the behavioural table the argument rests on, plus
the second separation fact: the stepped translation of a measurement
under a parallel listener is correspondence similar, but not bisimilar,
to the translated distribution.
"""

import numpy as np

from qproc import cqp, criteria, encode, protocols, qccs

report = criteria.counterexample_suite()
print(f"{'input':<10} {'may':<8} {'must':<8}")
for row in report["rows"]:
    print(f"{row['input']:<10} {row['may']:<8} {row['must']:<8}")
print("probe matrices match their known values:", all(r["probe_matrix_ok"] for r in report["rows"]))

print()
source = cqp.parse_cqp(protocols.read("measurement.cqp"))
(measure,) = [s for s in cqp.enumerate_steps(source) if s.rule == "R-Measure"]
translated_distribution = encode.encode_config(measure.next)
translated_source = encode.encode_config(source)
stepped = next(
    s.next
    for s in qccs.reduce_steps(translated_source)
    if not np.allclose(s.next.rho.entries, translated_source.rho.entries)
)

budget = criteria.Budget(64, 4000)
lts_distribution = criteria.build_lts(translated_distribution, criteria.qccs_system(labelled=True), budget)
lts_stepped = criteria.build_lts(stepped, criteria.qccs_system(labelled=True), budget)
print("translated distribution  <=  stepped translation:",
      criteria.corr_sim_check(lts_distribution, lts_stepped).status)
print("bisimulation diagnostic on the same pair:        ",
      criteria.bisim_check(lts_distribution, lts_stepped).status)
