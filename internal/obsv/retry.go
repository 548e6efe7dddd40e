package obsv

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The retry policy. A retry costs one token from a transport-wide pool
// of retryBudget tokens and every successful attempt earns back a tenth;
// when the pool is dry, requests fail fast with their last result
// instead of retrying, the classic guard against retry storms
// amplifying an outage.
const (
	maxAttempts = 4                      // attempts per request, the first included
	baseDelay   = 100 * time.Millisecond // backoff before the first retry; doubles per retry
	maxDelay    = 5 * time.Second        // cap on the computed backoff
	retryBudget = 32                     // tokens in the transport-wide pool
	// retryAfterCap bounds how long a server's Retry-After header can
	// make us wait; respecting a multi-minute value would turn one slow
	// request into a hung client.
	retryAfterCap = 30 * time.Second
)

// RetryTransport is an http.RoundTripper that retries transient failures
// (transport errors, 429, 5xx) with exponential backoff and equal
// jitter, honors Retry-After, and spends from a transport-wide retry
// budget. Requests whose context is done are never retried, and a
// request with a consumed, non-rewindable body is returned as-is after
// its first attempt.
type RetryTransport struct {
	// Base performs the actual attempts; nil means http.DefaultTransport.
	Base http.RoundTripper

	// sleep and randF are test seams: sleep blocks for d unless ctx ends
	// first, randF yields [0,1) jitter. Nil means real time / math/rand.
	sleep func(ctx context.Context, d time.Duration) bool
	randF func() float64

	spent atomic.Int64 // tenths of a retry token taken from the pool
}

func (t *RetryTransport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// spendToken takes one retry token (10 tenths) if the pool holds one.
func (t *RetryTransport) spendToken() bool {
	for {
		cur := t.spent.Load()
		if cur > retryBudget*10-10 {
			return false
		}
		if t.spent.CompareAndSwap(cur, cur+10) {
			return true
		}
	}
}

// earnToken credits a tenth of a token for a successful attempt, up to a
// full pool.
func (t *RetryTransport) earnToken() {
	for {
		cur := t.spent.Load()
		if cur <= 0 {
			return
		}
		if t.spent.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// retryableStatus reports whether a response status merits a retry.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// RoundTrip implements http.RoundTripper.
func (t *RetryTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	for attempt := 1; ; attempt++ {
		resp, err := t.base().RoundTrip(req)
		var retryAfter time.Duration
		switch {
		case err != nil:
		case retryableStatus(resp.StatusCode):
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		default:
			t.earnToken()
			return resp, nil
		}

		if attempt >= maxAttempts || req.Context().Err() != nil || !rewindBody(req) || !t.spendToken() {
			return resp, err
		}
		if resp != nil {
			drainClose(resp.Body, 64<<10)
		}

		delay := t.backoff(attempt)
		if retryAfter > delay {
			delay = min(retryAfter, retryAfterCap)
		}
		if !t.sleepFor(req.Context(), delay) {
			return nil, req.Context().Err()
		}
	}
}

// backoff computes the jittered delay after the attempt-th try: an
// exponentially growing base capped at maxDelay, with "equal jitter"
// (half fixed, half uniform) so synchronized clients spread out.
func (t *RetryTransport) backoff(attempt int) time.Duration {
	d := min(baseDelay<<(attempt-1), maxDelay)
	r := t.randF
	if r == nil {
		r = rand.Float64
	}
	return d/2 + time.Duration(r()*float64(d/2))
}

func (t *RetryTransport) sleepFor(ctx context.Context, d time.Duration) bool {
	if t.sleep != nil {
		return t.sleep(ctx, d)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// rewindBody prepares req for another attempt. Bodyless requests (all of
// this repo's) always rewind; a consumed body needs GetBody.
func rewindBody(req *http.Request) bool {
	if req.Body == nil || req.Body == http.NoBody {
		return true
	}
	if req.GetBody == nil {
		return false
	}
	body, err := req.GetBody()
	if err != nil {
		return false
	}
	req.Body = body
	return true
}

// parseRetryAfter parses a Retry-After header value: either delay
// seconds or an HTTP date. Returns 0 when absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// drainClose reads at most limit bytes from rc and closes it. Draining
// before close is what lets the HTTP client return the underlying
// connection to its keep-alive pool; the bound keeps a hostile or huge
// error body from turning cleanup into an unbounded read.
func drainClose(rc io.ReadCloser, limit int64) {
	if rc == nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(rc, limit))
	rc.Close()
}
