package obsv

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSleeper records requested delays instead of sleeping.
type fakeSleeper struct {
	delays []time.Duration
}

func (f *fakeSleeper) sleep(ctx context.Context, d time.Duration) bool {
	f.delays = append(f.delays, d)
	return ctx.Err() == nil
}

// flakyBase is a counting fake base transport: its first failures
// attempts answer status (with a Retry-After header when retryAfter is
// set), and every later attempt answers 200 "payload".
type flakyBase struct {
	failures   int64
	status     int
	retryAfter string
	calls      atomic.Int64
}

func (f *flakyBase) RoundTrip(*http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	if f.calls.Add(1) <= f.failures {
		if f.retryAfter != "" {
			rec.Header().Set("Retry-After", f.retryAfter)
		}
		http.Error(rec, "unavailable", f.status)
		return rec.Result(), nil
	}
	io.WriteString(rec, "payload")
	return rec.Result(), nil
}

// get sends one GET through rt and returns the final status and body.
func get(t *testing.T, rt http.RoundTripper) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", "http://backend.test/", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// TestRetryBackoffSchedule pins the exponential schedule with a fake
// clock and jitter pinned to its maximum: 100ms, 200ms, 400ms, and the
// fourth attempt succeeds.
func TestRetryBackoffSchedule(t *testing.T) {
	base := &flakyBase{failures: 3, status: http.StatusServiceUnavailable}
	sl := &fakeSleeper{}
	rt := &RetryTransport{
		Base:  base,
		sleep: sl.sleep,
		randF: func() float64 { return 1 }, // full jitter: delay == base * 2^(n-1)
	}
	if code, body := get(t, rt); code != http.StatusOK || body != "payload" {
		t.Fatalf("final response = %d %q", code, body)
	}
	if got := base.calls.Load(); got != 4 {
		t.Fatalf("base saw %d attempts, want 4", got)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if !slices.Equal(sl.delays, want) {
		t.Fatalf("slept %v, want %v", sl.delays, want)
	}
}

// TestRetryHalfJitter checks the other end of the jitter range: with
// randF pinned to 0 every delay is half the exponential base.
func TestRetryHalfJitter(t *testing.T) {
	base := &flakyBase{failures: 2, status: http.StatusBadGateway}
	sl := &fakeSleeper{}
	rt := &RetryTransport{Base: base, sleep: sl.sleep, randF: func() float64 { return 0 }}
	if code, _ := get(t, rt); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if !slices.Equal(sl.delays, want) {
		t.Fatalf("slept %v, want %v", sl.delays, want)
	}
}

// TestRetryRespectsRetryAfter: a 429 carrying Retry-After: 3 must wait
// the server-mandated 3s, not the 100ms backoff, and a Retry-After past
// the 30s cap waits the cap.
func TestRetryRespectsRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		retryAfter string
		want       time.Duration
	}{
		{"3", 3 * time.Second},
		{"120", 30 * time.Second},
	} {
		base := &flakyBase{failures: 1, status: http.StatusTooManyRequests, retryAfter: tc.retryAfter}
		sl := &fakeSleeper{}
		rt := &RetryTransport{Base: base, sleep: sl.sleep, randF: func() float64 { return 1 }}
		if code, _ := get(t, rt); code != http.StatusOK {
			t.Fatalf("Retry-After %s: status = %d", tc.retryAfter, code)
		}
		if got := base.calls.Load(); got != 2 {
			t.Fatalf("Retry-After %s: base saw %d attempts, want 2", tc.retryAfter, got)
		}
		if !slices.Equal(sl.delays, []time.Duration{tc.want}) {
			t.Fatalf("Retry-After %s: slept %v, want [%v]", tc.retryAfter, sl.delays, tc.want)
		}
	}
}

// TestRetryExhausted: a permanently failing backend burns all four
// attempts and surfaces the last response.
func TestRetryExhausted(t *testing.T) {
	base := &flakyBase{failures: 1000, status: http.StatusInternalServerError}
	sl := &fakeSleeper{}
	rt := &RetryTransport{Base: base, sleep: sl.sleep, randF: func() float64 { return 0 }}
	if code, _ := get(t, rt); code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", code)
	}
	if got := base.calls.Load(); got != 4 {
		t.Fatalf("base saw %d attempts, want 4", got)
	}
	if len(sl.delays) != 3 {
		t.Fatalf("slept %v, want three backoffs", sl.delays)
	}
}

// TestRetryBudgetDries: failing requests spend the 32-token budget one
// retry at a time; once it is spent a failing request gets its first
// attempt only, and ten successes earn one retry back.
func TestRetryBudgetDries(t *testing.T) {
	base := &flakyBase{failures: 1 << 30, status: http.StatusServiceUnavailable}
	rt := &RetryTransport{Base: base, sleep: (&fakeSleeper{}).sleep, randF: func() float64 { return 0 }}
	attempts := func() int64 {
		before := base.calls.Load()
		if code, _ := get(t, rt); code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", code)
		}
		return base.calls.Load() - before
	}
	// Ten requests of four attempts spend 30 tokens; the eleventh
	// spends the last two and is refused its third retry.
	for i := 0; i < 10; i++ {
		if n := attempts(); n != 4 {
			t.Fatalf("request %d made %d attempts with budget left, want 4", i+1, n)
		}
	}
	if n := attempts(); n != 3 {
		t.Fatalf("request 11 made %d attempts on the last two tokens, want 3", n)
	}
	if n := attempts(); n != 1 {
		t.Fatalf("request on a dry budget made %d attempts, want 1", n)
	}

	rt.Base = &flakyBase{} // every attempt succeeds
	for i := 0; i < 10; i++ {
		if code, _ := get(t, rt); code != http.StatusOK {
			t.Fatalf("success %d: status = %d", i+1, code)
		}
	}
	rt.Base = base
	if n := attempts(); n != 2 {
		t.Fatalf("request after ten successes made %d attempts, want 2 (one earned retry)", n)
	}
}

// TestRetryBudgetConcurrent: requests racing on one transport spend the
// shared pool exactly once per token. Against a dead backend, 64
// concurrent requests make 64 first attempts plus exactly 32 retries.
func TestRetryBudgetConcurrent(t *testing.T) {
	base := &flakyBase{failures: 1 << 30, status: http.StatusServiceUnavailable}
	rt := &RetryTransport{
		Base:  base,
		sleep: func(ctx context.Context, _ time.Duration) bool { return ctx.Err() == nil },
		randF: func() float64 { return 0 },
	}
	const requests = 64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rt.RoundTrip(httptest.NewRequest("GET", "http://backend.test/", nil))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if got, want := base.calls.Load(), int64(requests+retryBudget); got != want {
		t.Fatalf("base saw %d attempts, want %d (one per request plus the %d-token budget)", got, want, retryBudget)
	}
}

// TestRetryTransportError: transport errors are retried too; a backend
// that comes back mid-sequence recovers the request.
func TestRetryTransportError(t *testing.T) {
	var attempts atomic.Int64
	base := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if attempts.Add(1) <= 2 {
			return nil, errors.New("dial tcp: connection refused")
		}
		rec := httptest.NewRecorder()
		io.WriteString(rec, "revived")
		return rec.Result(), nil
	})
	sl := &fakeSleeper{}
	rt := &RetryTransport{Base: base, sleep: sl.sleep, randF: func() float64 { return 0 }}
	if _, body := get(t, rt); body != "revived" {
		t.Fatalf("body = %q", body)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("base saw %d attempts, want 3", got)
	}
	if len(sl.delays) != 2 {
		t.Errorf("slept %v, want two backoffs", sl.delays)
	}
}

// TestRetryCancelledContext: a cancelled request must not retry.
func TestRetryCancelledContext(t *testing.T) {
	var attempts atomic.Int64
	base := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		attempts.Add(1)
		return nil, errors.New("boom")
	})
	rt := &RetryTransport{
		Base:  base,
		sleep: (&fakeSleeper{}).sleep,
		randF: func() float64 { return 0 },
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://example.invalid/", nil)
	if _, err := rt.RoundTrip(req); err == nil {
		t.Fatal("want error from cancelled context")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("cancelled request attempted %d times, want 1", got)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("2"); d != 2*time.Second {
		t.Errorf("seconds form = %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("empty = %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage = %v", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 8*time.Second || d > 10*time.Second {
		t.Errorf("http-date form = %v", d)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("past http-date = %v, want 0", d)
	}
}
