package vm

import "errors"

// Sentinel errors for the internal-inconsistency and resource-exhaustion
// conditions the fault path can hit. They used to be panics; as errors
// they propagate out of Manager.Access so a driver (machine.Simulate,
// RunMany) can fail the run gracefully and report which run broke.
// Match with errors.Is.
var (
	// ErrNoVictim: a fault needs frames, the device is full, and the
	// replacement policy has nothing to offer. Reachable from
	// configurations whose policy under-reports residency; a correct
	// policy with Frames >= one mapping span never produces it.
	ErrNoVictim = errors.New("vm: out of frames with no victim")

	// ErrBadVictim: the policy named a victim the address space does not
	// hold — the policy's residency bookkeeping has diverged.
	ErrBadVictim = errors.New("vm: victim not resident")

	// ErrMapFailed: installing PTEs for a freshly allocated mapping
	// failed (double map or misaligned base) — fault-path bookkeeping
	// has diverged from the page tables.
	ErrMapFailed = errors.New("vm: map failed")

	// ErrCorruption: Verify mode found a page whose content signature
	// changed across a swap cycle — the paging machinery lost data.
	ErrCorruption = errors.New("vm: content corruption")
)
