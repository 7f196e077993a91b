package coord

import "cmcp/internal/sweep"

// HTTP request/response bodies. Every endpoint is POST with a JSON
// body and a JSON reply.

type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseResponse struct {
	// Done: the sweep is over; the worker should exit.
	Done bool `json:"done,omitempty"`
	// RetryMS: nothing leasable right now; ask again after this long.
	RetryMS int64 `json:"retry_ms,omitempty"`
	// A grant. TTLMS tells the worker how often to heartbeat.
	LeaseID string            `json:"lease_id,omitempty"`
	Key     string            `json:"key,omitempty"`
	Config  *sweep.ConfigWire `json:"config,omitempty"`
	TTLMS   int64             `json:"ttl_ms,omitempty"`
	Stolen  bool              `json:"stolen,omitempty"`
}

type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

type resultRequest struct {
	LeaseID string      `json:"lease_id"`
	Entry   sweep.Entry `json:"entry"`
}

type failRequest struct {
	LeaseID string `json:"lease_id"`
	Key     string `json:"key"`
	Error   string `json:"error"`
}

// stateResponse is the GET /state debugging snapshot.
type stateResponse struct {
	Stats    Stats         `json:"stats"`
	Poisoned []PoisonedKey `json:"poisoned,omitempty"`
}
