"""Tour of the named-register linear algebra toolbox.

State vectors and density matrices carry qubit *names*; operators are
applied to named targets, and the register keeps its order.
"""

import numpy as np

from qproc import protocols, qccs, quantum

SQ2 = 1 / np.sqrt(2)

# -- state vectors over named registers --------------------------------------

psi = quantum.StateVector(("alice", "bob"), [SQ2, 0, 0, SQ2])
print("an entangled pair:", psi)

plus = quantum.apply_unitary(quantum.GATES["H"], quantum.StateVector(("q",), [1, 0]), ("q",))
print("H|0> =", np.round(plus.amps, 6))

# A gate names its operands in order: CNOT with bob as control.
flipped_pair = quantum.apply_unitary(quantum.GATES["CNOT"], psi, ("bob", "alice"))
print("CNOT[bob, alice] on the pair:", np.round(flipped_pair.amps, 6))

# -- measurement --------------------------------------------------------------

print("\nmeasuring bob:")
for outcome in quantum.measure(psi, ("bob",)):
    print(f"  result {outcome.result}: p = {outcome.probability:.3f}, post = {np.round(outcome.post_state.amps, 3)}")

# -- density matrices and super-operators -------------------------------------

rho = quantum.outer(plus)
print("\n|+><+| =")
print(np.round(rho.entries.real, 3))

measured = quantum.superop_apply(quantum.SuperOperator.measure_unknown(1), ("q",), rho)
print("after measurement with unknown result (entanglement dissolved):")
print(np.round(measured.entries.real, 3))

# Addressing by name: X on 'bob' without touching 'alice'.
pair = quantum.outer(psi)
flipped = quantum.superop_apply(quantum.SuperOperator.from_unitary(quantum.GATES["X"]), ("bob",), pair)
print("\nX on bob only; diagonal of the result:", np.round(np.diag(flipped.entries).real, 3))

# -- the probe operator beyond unitaries ---------------------------------------

# the signed two-Kraus operator Q of the bundled separation probe
probe = qccs.parse_qccs(protocols.read("counterexample.qccs"))[2]["Q"]
print("\nthe signed probe is not a quantum channel:", probe.advisories())
one = quantum.outer(quantum.StateVector(("q",), [0, 1]))
print("probe(|1><1|) =")
print(np.round(quantum.superop_apply(probe, ("q",), one).entries.real, 3))
