package obsv

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeNow returns a clock that advances by step on every call, so
// middleware latency becomes deterministic.
func fakeNow(step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

// TestMiddlewareRecords drives a handler through the middleware and
// checks per-route counters by status class, the latency histogram, and
// the byte counter; the routes are labeled where the mux declares them,
// and a request none of them serves counts under "other".
func TestMiddlewareRecords(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	m := &HTTPMetrics{
		Registry: reg,
		Log:      log.New(&logBuf, "", 0),
		now:      fakeNow(10 * time.Millisecond),
	}
	serve := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/boom":
			http.Error(w, "kaboom", http.StatusInternalServerError)
		case "/implicit":
			w.Write([]byte("ok!")) // no WriteHeader: implicit 200
		default:
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("hello"))
		}
	})
	mux := http.NewServeMux()
	mux.Handle("GET /item/{id}", Labeled("/item/:id", serve))
	mux.Handle("GET /boom", Labeled("/boom", serve))
	mux.Handle("GET /implicit", Labeled("/implicit", serve))
	h := m.Wrap(mux)

	for _, path := range []string{"/item/1", "/item/2", "/boom", "/implicit", "/nope"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/boom", nil))

	if got := reg.Counter(`http_requests_total{route="/item/:id",class="2xx"}`).Value(); got != 2 {
		t.Errorf("item 2xx count = %d, want 2 (route collapsing broken?)", got)
	}
	if got := reg.Counter(`http_requests_total{route="/boom",class="5xx"}`).Value(); got != 1 {
		t.Errorf("boom 5xx count = %d, want 1", got)
	}
	if got := reg.Counter(`http_requests_total{route="/implicit",class="2xx"}`).Value(); got != 1 {
		t.Errorf("implicit-200 response not classed 2xx (count = %d)", got)
	}
	if got := reg.Counter(`http_requests_total{route="other",class="4xx"}`).Value(); got != 2 {
		t.Errorf("unrouted 404 and 405 count under other = %d, want 2", got)
	}
	if got := reg.Counter(`http_response_bytes_total{route="/item/:id"}`).Value(); got != 2*int64(len("hello")) {
		t.Errorf("item bytes = %d, want %d", got, 2*len("hello"))
	}

	// Each request sees exactly one 10ms tick between the two now()
	// calls, so every observation must sit in the (0.005, 0.01] bucket.
	hist := reg.Histogram(`http_request_seconds{route="/item/:id"}`)
	if hist.Count() != 2 {
		t.Fatalf("latency observations = %d, want 2", hist.Count())
	}
	bounds, cum := hist.Buckets()
	i := slices.Index(bounds, 0.01)
	if i < 1 || bounds[i-1] != 0.005 || cum[i-1] != 0 || cum[i] != 2 {
		t.Errorf("latency landed in wrong buckets: bounds %v cumulative %v", bounds, cum)
	}
	if got, want := hist.Sum(), 0.020; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("latency sum = %v, want %v", got, want)
	}

	logs := logBuf.String()
	for _, want := range []string{
		"method=GET route=/item/:id path=/item/1 status=200 bytes=5 dur=10ms",
		"route=/boom path=/boom status=500",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("request log missing %q:\n%s", want, logs)
		}
	}
}

// TestMiddlewareNilLogAndRoute checks the minimal configuration works
// and, without a Labeled handler, labels every path "other":
// client-chosen paths never become series.
func TestMiddlewareNilLogAndRoute(t *testing.T) {
	reg := NewRegistry()
	m := &HTTPMetrics{Registry: reg}
	h := m.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	for _, path := range []string{"/raw", "/other/path", "/raw?x=1"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	if got := reg.Counter(`http_requests_total{route="other",class="4xx"}`).Value(); got != 3 {
		t.Errorf("other-route 4xx count = %d, want 3", got)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "/raw") || strings.Contains(prom.String(), "/other/path") {
		t.Errorf("a raw URL path became a route label:\n%s", prom.String())
	}
}

// TestMiddlewareConcurrent exercises the per-(route, class) series cache
// under contention, with every goroutine on its own path and all of them
// counted on the one bounded "other" series; meaningful under -race.
func TestMiddlewareConcurrent(t *testing.T) {
	reg := NewRegistry()
	m := &HTTPMetrics{Registry: reg}
	h := m.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("x"))
	}))
	var wg sync.WaitGroup
	const goroutines, iters = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/hot/"+strconv.Itoa(g), nil))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter(`http_requests_total{route="other",class="2xx"}`).Value(); got != goroutines*iters {
		t.Errorf("other route count = %d, want %d", got, goroutines*iters)
	}
	if got := reg.Counter(`http_response_bytes_total{route="other"}`).Value(); got != goroutines*iters {
		t.Errorf("other route bytes = %d, want %d", got, goroutines*iters)
	}
}
