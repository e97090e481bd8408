"""Translating the protocol into the density-matrix calculus and replaying it.

Gates become super-operator prefixes on named qubits, the measurement
becomes the unknown-result operator followed by a guarded choice over the
expected results, and channel creation becomes a silent step guarding a
restriction.  The translated run below mirrors the source run state by
state.
"""

import numpy as np

from qproc import cqp, encode, protocols, qccs

source = cqp.parse_cqp(protocols.read("teleport.cqp"))
state = encode.encode_config(source)

print("translated source (emitted .qccs):")
print(encode.emit_translation(state))

trace = []
for label in ("new 0", "new 1", "new 2", "new 3", "CNOT", "H", "measure"):
    (step,) = qccs.reduce_steps(state)
    state = step.next
    trace.append((label, state.rho))

print("state evolution (diagonal of rho):")
for label, rho in trace:
    print(f"  after {label:<8}: {np.round(np.diag(rho.entries).real, 3)}")

branches = qccs.reduce_steps(state)
print(f"\nthe guarded choice offers {len(branches)} branches; taking expected result 0:")
state = branches[0].next
print("  rho diagonal:", np.round(np.diag(state.rho.entries).real, 3))

state = qccs.reduce_steps(state)[0].next  # synchronisation on channel 0
state = qccs.reduce_steps(state)[0].next  # Bob's identity correction
print("  reached success:", qccs.has_success_barb(state))
