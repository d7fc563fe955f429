package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"zbp/internal/rcache"
	"zbp/internal/server"
)

// maxCellResponseBytes bounds one backend reply (a stats snapshot is
// tens of KB; this is a safety ceiling, not a tuning knob).
const maxCellResponseBytes = 8 << 20

// attemptResult is what one dispatch attempt reports back.
type attemptResult struct {
	resp    *server.CellResponse
	b       *backend
	isHedge bool
	err     error
	// permanent marks errors no other backend can fix (the request
	// itself is invalid), so retrying would only repeat the rejection.
	permanent bool
}

// dispatchCell resolves one cell against the fleet: primary dispatch
// on the router's first choice, one hedged duplicate on the next
// choice if the primary dawdles past HedgeDelay, and immediate
// rerouting on failure — all capped at MaxAttempts launches. The
// first successful response wins; determinism makes every response
// interchangeable byte for byte, so the loser is simply cancelled,
// never reconciled.
func (c *Coordinator) dispatchCell(ctx context.Context, members []*backend, spec rcache.CellSpec, noCache bool) (server.Outcome, error) {
	prefs := c.order(members, spec)
	if len(prefs) == 0 {
		return server.Outcome{}, errors.New("no backends available")
	}
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps the losing attempt the moment one wins

	// Buffered to MaxAttempts so attempt goroutines never block on a
	// departed listener.
	results := make(chan attemptResult, c.cfg.MaxAttempts)
	next, launched, inflight := 0, 0, 0
	running := make(map[*backend]int, 2) // live attempts per backend
	// pick walks the preference order to the next usable backend:
	// departed members are skipped (deregistration applies instantly,
	// even mid-sweep), and a hedge skips backends already running this
	// cell — duplicating onto the box that is being hedged *against*
	// burns a slot and a token for zero diversity. If the snapshot has
	// wholly departed, re-route against the live fleet once.
	pick := func(avoidRunning bool) *backend {
		for rerouted := false; ; {
			for range prefs {
				b := prefs[next%len(prefs)]
				next++
				if b.departed.Load() {
					continue
				}
				if avoidRunning && running[b] > 0 {
					continue
				}
				return b
			}
			if rerouted || avoidRunning {
				return nil
			}
			rerouted = true
			if prefs = c.order(c.fleet.snapshot(), spec); len(prefs) == 0 {
				return nil
			}
			next = 0
		}
	}
	launch := func(isHedge bool) bool {
		if launched >= c.cfg.MaxAttempts {
			return false
		}
		b := pick(isHedge)
		if b == nil {
			return false
		}
		launched++
		inflight++
		running[b]++
		c.attempts.Add(1)
		if isHedge {
			c.hedgeLaunched.Add(1)
		}
		go func() {
			res := c.attempt(cellCtx, b, spec, noCache)
			res.isHedge = isHedge
			results <- res
		}()
		return true
	}
	if !launch(false) {
		return server.Outcome{}, errors.New("no backends available")
	}

	var hedgeCh <-chan time.Time
	if c.cfg.HedgeDelay > 0 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeCh = t.C
	}
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return server.Outcome{}, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil // at most one hedge per cell
			if inflight > 0 {
				launch(true)
			}
		case res := <-results:
			inflight--
			running[res.b]--
			if res.err == nil {
				if res.isHedge {
					c.hedgeWins.Add(1)
				}
				return server.Outcome{
					Stats: res.resp.Stats, Cached: res.resp.Cached,
					Backend: res.b.name, Hedged: res.isHedge,
				}, nil
			}
			lastErr = res.err
			if res.permanent {
				return server.Outcome{}, res.err
			}
			// Reroute: the next-choice backend gets the cell now, not
			// after a backoff — a failed box's work must migrate fast.
			if launch(false) {
				c.retries.Add(1)
			} else if inflight == 0 {
				return server.Outcome{}, fmt.Errorf("cell failed after %d attempts: %w", launched, lastErr)
			}
		}
	}
}

// attempt runs one dispatch against one backend: slot, per-attempt
// timeout, POST, classify.
func (c *Coordinator) attempt(ctx context.Context, b *backend, spec rcache.CellSpec, noCache bool) attemptResult {
	if err := b.acquire(ctx); err != nil {
		return attemptResult{b: b, err: err}
	}
	defer b.release()
	b.dispatched.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.cfg.CellTimeout)
	defer cancel()
	seed := spec.Seed
	body, err := json.Marshal(server.CellRequest{
		SimulateRequest: server.SimulateRequest{
			Config: spec.Config, Workload: spec.Workload, Workload2: spec.Workload2,
			Seed: &seed, Instructions: spec.Instructions,
			TimeoutMs: int(c.cfg.CellTimeout / time.Millisecond),
		},
		NoCache: noCache,
	})
	var resp server.CellResponse
	permanent := true
	if err == nil {
		permanent, err = c.post(actx, ctx, b, "/v1/cell", body, &resp)
	}
	if err != nil {
		b.failures.Add(1)
		return attemptResult{b: b, err: err, permanent: permanent}
	}
	return attemptResult{resp: &resp, b: b}
}

// post sends one JSON request to a backend and classifies the reply:
// success (decoded into into), saturation (retry elsewhere, the box is
// fine), permanent rejection (nobody can fix a bad request), or failure
// (counts toward the backend's health). ctx is the request's own
// context; parent is the caller's, consulted to tell "the caller gave
// up" apart from "the backend stalled".
func (c *Coordinator) post(ctx, parent context.Context, b *backend, path string, body []byte, into any) (permanent bool, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return true, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		if parent.Err() != nil {
			// The caller stopped waiting — the cell was resolved
			// elsewhere, the job died, or the *caller's* deadline
			// expired. Either way the interruption is no evidence
			// against this backend: a short client timeout must not
			// flip healthy boxes unhealthy fleet-wide.
			return false, err
		}
		// The attempt's own CellTimeout fired or the transport failed
		// outright (connection refused, reset): evidence the box is
		// sick.
		c.noteBackendFailure(b)
		return false, fmt.Errorf("backend %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		c.noteBackendSuccess(b)
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxCellResponseBytes)).Decode(into); err != nil {
			return false, fmt.Errorf("backend %s: undecodable %s response: %w", b.name, path, err)
		}
		return false, nil
	case http.StatusTooManyRequests:
		// Saturated, not sick: retry on the next choice without
		// denting this backend's health.
		drain(resp.Body)
		return false, fmt.Errorf("backend %s: saturated (429)", b.name)
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		return true, fmt.Errorf("backend %s rejected %s: %s", b.name, path, readError(resp.Body))
	default:
		c.noteBackendFailure(b)
		return false, fmt.Errorf("backend %s: %s: %s", b.name, resp.Status, readError(resp.Body))
	}
}

func drain(r io.Reader) { _, _ = io.Copy(io.Discard, io.LimitReader(r, 4096)) }

func readError(r io.Reader) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(r, 4096)).Decode(&e) == nil && e.Error != "" {
		return e.Error
	}
	return "(no detail)"
}
