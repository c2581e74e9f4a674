package core

// FaultSkipBackedgeMask, when set, makes partialDuplication drop the
// backedge marking from the checks it inserts on loop backedges. This is
// a deliberately broken transform the oracle's mutation test
// (TestMutationKill, pinned by `make race`) uses to prove the runtime
// oracle has teeth: the mutated code passes ir.Verify (edge
// masks are advisory to the static verifier) but executes one check per
// loop iteration that the oracle can no longer account against a
// backedge, so any looping program violates Property 1 at runtime.
//
// Test-only. Never set this outside a test.
var FaultSkipBackedgeMask bool
