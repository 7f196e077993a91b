package coord

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"cmcp/internal/sweep"
)

// httpState is the Coordinator's server plumbing.
type httpState struct {
	srv      *http.Server
	ln       net.Listener
	stopReap chan struct{}
}

// Start serves the coordinator protocol on addr (":0" picks a free
// port; see Addr) and starts the background lease reaper. The reaper
// matters when no workers are talking: expiry is otherwise only
// evaluated on request arrival, and a fleet that died entirely would
// never advance the retry clock.
func (c *Coordinator) Start(addr string) error {
	if c.ln != nil {
		return fmt.Errorf("coord: already started on %s", c.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("coord: listen %s: %w", addr, err)
	}
	c.ln = ln
	c.srv = &http.Server{Handler: c.Handler()}
	go c.srv.Serve(ln)
	c.stopReap = make(chan struct{})
	go c.reapLoop(c.stopReap)
	return nil
}

// Addr returns the listening address (host:port), useful with ":0".
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close stops the server and the reaper and aborts any in-flight
// batch. The lease table is soft state and the journal holds every
// completed run, so Close loses nothing a restart cannot rebuild.
func (c *Coordinator) Close() error {
	if c.stopReap != nil {
		close(c.stopReap)
		c.stopReap = nil
	}
	var err error
	if c.srv != nil {
		err = c.srv.Close()
		c.srv, c.ln = nil, nil
	}
	c.Abort(fmt.Errorf("coordinator shutting down"))
	return err
}

func (c *Coordinator) reapLoop(stop chan struct{}) {
	t := time.NewTicker(c.opt.LeaseTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.mu.Lock()
			c.reapLocked(c.opt.Now())
			c.mu.Unlock()
		}
	}
}

// Handler returns the coordinator's HTTP handler: POST /lease,
// /heartbeat, /result, /fail and GET /state. Exposed for tests that
// want an httptest.Server instead of Start.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		grant, wait, done := c.Lease(req.Worker)
		switch {
		case done:
			writeJSON(w, leaseResponse{Done: true})
		case grant == nil:
			writeJSON(w, leaseResponse{RetryMS: wait.Milliseconds()})
		default:
			cw, err := sweep.ToWire(grant.Config)
			if err != nil {
				// Undispatchable config: the worker cannot run it, no
				// worker ever will. Quarantine through the normal path.
				c.Fail(grant.LeaseID, grant.Key, err.Error())
				writeJSON(w, leaseResponse{RetryMS: 50})
				return
			}
			writeJSON(w, leaseResponse{
				LeaseID: grant.LeaseID,
				Key:     grant.Key,
				Config:  &cw,
				TTLMS:   grant.TTL.Milliseconds(),
				Stolen:  grant.Stolen,
			})
		}
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if !c.Heartbeat(req.LeaseID) {
			// 410: the lease is gone. The worker stops renewing but may
			// still post its result — results are keyed, not leased.
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /result", func(w http.ResponseWriter, r *http.Request) {
		var req resultRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Result(req.LeaseID, req.Entry); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// This 200 is a durability receipt: Result ran the journal
		// append synchronously.
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /fail", func(w http.ResponseWriter, r *http.Request) {
		var req failRequest
		if !decodeBody(w, r, &req) {
			return
		}
		c.Fail(req.LeaseID, req.Key, req.Error)
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("GET /state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, stateResponse{Stats: c.Stats(), Poisoned: c.PoisonedReport()})
	})
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
