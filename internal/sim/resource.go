package sim

// Resource models a mutually exclusive resource (a lock) in virtual
// time. The discrete-event engine advances cores in virtual-time order,
// so contention can be resolved with a simple queueing rule: a core that
// asks for the resource at time t is granted it at max(t, freeAt) and
// the resource stays busy for the requested hold time.
//
// This reproduces the serialization behaviour of the address-space-wide
// page-table lock that makes regular page tables collapse beyond ~24
// cores, and — with one Resource per page — the fine-grained locking
// that lets PSPT scale.
type Resource struct {
	freeAt Cycles
}

// Acquire requests the resource at virtual time now for hold cycles.
// It returns the time the caller finishes (release time) and the time
// spent waiting in the queue.
func (r *Resource) Acquire(now, hold Cycles) (done, waited Cycles) {
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	waited = start - now
	r.freeAt = start + hold
	return r.freeAt, waited
}

// FreeAt returns the virtual time at which the resource next becomes
// available.
func (r *Resource) FreeAt() Cycles { return r.freeAt }
