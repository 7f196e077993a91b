package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"cmcp/internal/machine"
	"cmcp/internal/sweep"
)

// Worker is the coordinator's client: it leases one config at a time,
// heartbeats while simulating, and posts the result (or the failure).
// It is deliberately stateless — a worker owns no journal and no grid,
// so kill -9 at any instant costs at most one lease TTL of progress.
//
// Liveness through coordinator outages is the worker's half of the
// crash-tolerance story: connection failures are tolerated up to
// Patience consecutive contacts (with backoff between), which rides
// out a coordinator restart; a heartbeat answered with 410 (lease
// expired under a slow run) does NOT abort the run — the result is
// still posted, and the coordinator accepts it idempotently by key.
type Worker struct {
	// Base is the coordinator's URL, e.g. "http://127.0.0.1:7070".
	Base string
	// Name identifies this worker in leases and logs (default pid).
	Name string
	// Patience is how many consecutive failed coordinator contacts to
	// tolerate before giving up (default 30). With the default retry
	// pacing that is roughly a minute of coordinator downtime.
	Patience int
	// RetryPause is the base pause between failed contacts (default
	// 2s).
	RetryPause time.Duration
	// Client is the HTTP client (default: http.Client with a 30s
	// timeout).
	Client *http.Client
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

func (w *Worker) defaults() {
	if w.Name == "" {
		w.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if w.Patience <= 0 {
		w.Patience = 30
	}
	if w.RetryPause <= 0 {
		w.RetryPause = 2 * time.Second
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 30 * time.Second}
	}
}

// Run leases and executes configs until the coordinator says the sweep
// is done (nil) or stays unreachable past Patience (error).
func (w *Worker) Run() error {
	w.defaults()
	failures := 0
	for {
		var lr leaseResponse
		if err := w.post("/lease", leaseRequest{Worker: w.Name}, &lr); err != nil {
			failures++
			if failures >= w.Patience {
				return fmt.Errorf("coord: worker %s: coordinator unreachable after %d attempts: %w", w.Name, failures, err)
			}
			time.Sleep(w.RetryPause)
			continue
		}
		failures = 0
		switch {
		case lr.Done:
			w.logf("worker %s: sweep done, exiting", w.Name)
			return nil
		case lr.LeaseID == "":
			pause := time.Duration(lr.RetryMS) * time.Millisecond
			if pause <= 0 {
				pause = w.RetryPause
			}
			time.Sleep(pause)
		default:
			w.execute(lr)
		}
	}
}

// execute runs one leased config end to end.
func (w *Worker) execute(lr leaseResponse) {
	fail := func(msg string) {
		w.logf("worker %s: key %s failed: %s", w.Name, lr.Key, msg)
		w.postRetry("/fail", failRequest{LeaseID: lr.LeaseID, Key: lr.Key, Error: msg}, nil)
	}
	if lr.Config == nil {
		fail("lease carried no config")
		return
	}
	cfg, err := lr.Config.Decode()
	if err != nil {
		fail(err.Error())
		return
	}
	// Drift guard: the key must hash identically here. A mismatch means
	// coordinator/worker skew (binary versions, registry bindings) and
	// running anyway would journal a wrong result under a valid key —
	// the one corruption determinism cannot absorb.
	key, err := sweep.Key(cfg)
	if err != nil {
		fail("config cannot be keyed: " + err.Error())
		return
	}
	if key != lr.Key {
		fail(fmt.Sprintf("content-key drift: leased %s, worker hashes %s (coordinator/worker version or registry skew)", lr.Key, key))
		return
	}

	// Heartbeat at TTL/3 until the run finishes. A 410 means the lease
	// expired — keep simulating anyway; the coordinator takes results
	// by key, and abandoning a nearly-done run would waste it.
	stop := make(chan struct{})
	heartbeatDone := make(chan struct{})
	interval := time.Duration(lr.TTLMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(heartbeatDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var gone *statusError
				if err := w.post("/heartbeat", heartbeatRequest{LeaseID: lr.LeaseID}, &struct{}{}); err == nil {
					continue
				} else if asStatus(err, &gone) && gone.code == http.StatusGone {
					w.logf("worker %s: lease %s expired mid-run; finishing anyway", w.Name, lr.LeaseID)
					return // stop renewing, keep running
				}
				// Transient coordinator outage: just keep trying.
			}
		}
	}()

	w.logf("worker %s: running key %s (workload %q, seed %d)", w.Name, lr.Key, cfg.Workload.Name, cfg.Seed)
	// RunManyNotify converts panics inside the simulator into errors,
	// so a crashing config reports /fail instead of killing the worker.
	results, runErr := machine.RunManyNotify([]machine.Config{cfg}, 1, func(int, *machine.Result, error) {})
	close(stop)
	<-heartbeatDone

	if runErr != nil || results[0] == nil {
		msg := "run produced no result"
		if runErr != nil {
			msg = runErr.Error()
		}
		fail(msg)
		return
	}
	entry := sweep.EntryOf(lr.Key, cfg, results[0])
	if err := w.postRetry("/result", resultRequest{LeaseID: lr.LeaseID, Entry: entry}, nil); err != nil {
		w.logf("worker %s: could not deliver result for %s: %v", w.Name, lr.Key, err)
		return
	}
	w.logf("worker %s: key %s done", w.Name, lr.Key)
}

// statusError is a non-2xx HTTP reply.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.body) }

func asStatus(err error, out **statusError) bool {
	se, ok := err.(*statusError)
	if ok {
		*out = se
	}
	return ok
}

// post sends one JSON request and decodes the JSON reply.
func (w *Worker) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := w.Client.Post(w.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return &statusError{code: r.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// postRetry retries post through transient failures (connection
// refused during a coordinator restart) up to Patience attempts.
// Non-2xx replies are NOT retried — the coordinator answered; it just
// said no.
func (w *Worker) postRetry(path string, req, resp any) error {
	var err error
	for i := 0; i < w.Patience; i++ {
		if err = w.post(path, req, resp); err == nil {
			return nil
		}
		var se *statusError
		if asStatus(err, &se) {
			return err
		}
		time.Sleep(w.RetryPause)
	}
	return err
}
