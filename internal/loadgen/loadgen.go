package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dates"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// Mode selects the loop discipline.
type Mode string

const (
	// Closed: Concurrency clients, each issuing its next request only
	// after the previous response completes. Measures the server at a
	// fixed client population; throughput self-limits to what the server
	// sustains.
	Closed Mode = "closed"
	// Open: request i is due at t0 + i/Rate and is sent on its own
	// goroutine at that instant, regardless of response times. Latency
	// is measured from the due time, so server-side queueing shows up as
	// client-visible latency instead of being absorbed silently.
	Open Mode = "open"
)

// Config parameterizes one load run.
type Config struct {
	BaseURL string
	Model   ModelConfig
	Seed    uint64

	Mode Mode
	// Concurrency is the closed loop's worker count. In the open loop it
	// only sizes the default client's idle connection pool: every
	// request runs on its own goroutine.
	Concurrency int
	Requests    int           // total request budget; 0 = unlimited (needs Duration)
	Duration    time.Duration // wall-clock budget; 0 = unlimited (needs Requests)
	Rate        float64       // open loop: intended requests/second

	// HerdEvery triggers a thundering herd after every N regular
	// dispatches: HerdSize goroutines barrier-released at one cache-cold
	// day (stepped from the window's first day so each herd is cold).
	// The herd runs beside the regular traffic and never holds up the
	// dispatcher or a closed-loop worker. 0 disables herds.
	HerdEvery int
	HerdSize  int

	// VerifyBodies hashes every 200 body and fails any path+encoding
	// whose bytes ever differ between requests — the immutability
	// contract checked under load.
	VerifyBodies bool

	Client *http.Client // optional: defaults to a fresh pooled client
	Log    *log.Logger  // optional progress/error log
}

// RouteStats is one route kind's ledger for a run.
type RouteStats struct {
	Route       string  `json:"route"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"` // transport failures + 5xx/4xx statuses
	NotModified int64   `json:"not_modified"`
	Gzipped     int64   `json:"gzipped"`
	Mismatches  int64   `json:"mismatches"` // body-hash violations (VerifyBodies)
	BytesRead   int64   `json:"bytes_read"`
	P50         float64 `json:"p50_seconds"`
	P95         float64 `json:"p95_seconds"`
	P99         float64 `json:"p99_seconds"`
	P999        float64 `json:"p999_seconds"`
	ErrorRate   float64 `json:"error_rate"`
}

// RunResult is the outcome of one Run.
type RunResult struct {
	Mode        Mode    `json:"mode"`
	Concurrency int     `json:"concurrency"`
	RateHz      float64 `json:"rate_hz,omitempty"`
	WallNS      int64   `json:"wall_ns"`
	Requests    int64   `json:"requests"`   // recorded requests, herds included
	Dispatched  int64   `json:"dispatched"` // regular requests sent; those cancelled at a Duration deadline are dispatched but not recorded
	Errors      int64   `json:"errors"`
	Herds       int64   `json:"herds"`
	Throughput  float64 `json:"throughput_rps"`
	// LateP99 is the open loop's schedule health: the p99 of how long
	// after its due time each regular request's goroutine started. A
	// healthy generator reads well under one dispatch interval.
	LateP99 float64      `json:"late_p99_seconds,omitempty"`
	Routes  []RouteStats `json:"routes"`
}

// recorder accumulates one route's samples. Exact latencies are kept so
// the report's tail quantiles are true order statistics, not bucket
// interpolations; a load run is bounded, so the memory is too.
type recorder struct {
	mu        sync.Mutex
	latencies []float64
	stats     RouteStats
}

func (rec *recorder) observe(lat float64, status int, gz bool, n int64, failed bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.latencies = append(rec.latencies, lat)
	rec.stats.Requests++
	rec.stats.BytesRead += n
	if failed {
		rec.stats.Errors++
	}
	if status == http.StatusNotModified {
		rec.stats.NotModified++
	}
	if gz {
		rec.stats.Gzipped++
	}
}

func (rec *recorder) finalize() RouteStats {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := rec.stats
	sort.Float64s(rec.latencies)
	s.P50 = sampleQuantile(rec.latencies, 0.50)
	s.P95 = sampleQuantile(rec.latencies, 0.95)
	s.P99 = sampleQuantile(rec.latencies, 0.99)
	s.P999 = sampleQuantile(rec.latencies, 0.999)
	if s.Requests > 0 {
		s.ErrorRate = float64(s.Errors) / float64(s.Requests)
	}
	return s
}

// sampleQuantile returns the q-th quantile of sorted samples by linear
// interpolation between order statistics, or 0 for an empty slice.
func sampleQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}

// runner is the shared state of one Run.
type runner struct {
	cfg    Config
	client *http.Client

	recs  map[string]*recorder
	recMu sync.Mutex

	etags  sync.Map // path+"|"+variant -> ETag of the last 200
	hashes sync.Map // path+"|"+variant -> body hash of the first 200

	dispatched atomic.Int64 // regular requests sent
	errors     atomic.Int64
	herds      atomic.Int64
	herdDay    atomic.Int64   // next cold-day offset from the window start
	inflight   sync.WaitGroup // open-loop dispatches and herd members

	lateMu sync.Mutex
	late   []float64 // open loop: goroutine start minus due time, seconds
}

// Run executes one load run and returns its ledger. The context bounds
// the run in addition to Requests/Duration.
func Run(ctx context.Context, cfg Config) (*RunResult, error) {
	if cfg.Concurrency < 1 {
		return nil, fmt.Errorf("loadgen: concurrency %d", cfg.Concurrency)
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need a Requests or Duration budget")
	}
	if cfg.Mode == "" {
		cfg.Mode = Closed
	}
	if cfg.Mode == Open && cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: open loop needs Rate > 0")
	}
	if _, err := NewModel(cfg.Seed, cfg.Model); err != nil {
		return nil, err
	}

	r := &runner{cfg: cfg, client: cfg.Client, recs: map[string]*recorder{}}
	if r.client == nil {
		r.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.Concurrency + max(cfg.HerdSize, 0),
		}}
	}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	t0 := time.Now()
	switch cfg.Mode {
	case Closed:
		r.runClosed(ctx)
	case Open:
		r.runOpen(ctx)
	default:
		return nil, fmt.Errorf("loadgen: unknown mode %q", cfg.Mode)
	}
	r.inflight.Wait()
	wall := time.Since(t0)

	res := &RunResult{
		Mode:        cfg.Mode,
		Concurrency: cfg.Concurrency,
		RateHz:      cfg.Rate,
		WallNS:      wall.Nanoseconds(),
		Dispatched:  min(r.dispatched.Load(), int64(max(cfg.Requests, 0))),
		Errors:      r.errors.Load(),
		Herds:       r.herds.Load(),
	}
	if cfg.Requests <= 0 {
		res.Dispatched = r.dispatched.Load()
	}
	r.recMu.Lock()
	routes := make([]string, 0, len(r.recs))
	for route := range r.recs {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		s := r.recs[route].finalize()
		res.Requests += s.Requests
		res.Routes = append(res.Routes, s)
	}
	r.recMu.Unlock()
	sort.Float64s(r.late)
	res.LateP99 = sampleQuantile(r.late, 0.99)
	if wall > 0 {
		res.Throughput = float64(res.Requests) / wall.Seconds()
	}
	return res, nil
}

// runClosed drains a shared request budget with Concurrency synchronous
// workers, each with its own deterministic model stream.
func (r *runner) runClosed(ctx context.Context) {
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			model, _ := NewModel(r.cfg.Seed+uint64(w)*7919, r.cfg.Model)
			for ctx.Err() == nil {
				n := r.dispatched.Add(1)
				if r.cfg.Requests > 0 && n > int64(r.cfg.Requests) {
					return
				}
				r.do(ctx, model.Next(), time.Now())
				r.maybeHerd(ctx, n)
			}
		}()
	}
	wg.Wait()
}

// runOpen sends regular request i at its due time t0 + i/Rate, each on
// its own goroutine, so a slow response never delays a later send.
// After any oversleep the dispatcher sends every request that is
// already due before sleeping again, so a stall (a GC pause, a starved
// CPU) never moves a later due time; a ticker would drop ticks instead,
// and every dropped tick would shift the rest of the schedule and charge
// the generator's own lag to the server. Latency runs from the due time.
func (r *runner) runOpen(ctx context.Context) {
	model, _ := NewModel(r.cfg.Seed, r.cfg.Model)
	interval := float64(time.Second) / r.cfg.Rate
	t0 := time.Now()
	for i := 0; r.cfg.Requests <= 0 || i < r.cfg.Requests; i++ {
		due := t0.Add(time.Duration(float64(i) * interval))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			return
		}
		n := r.dispatched.Add(1)
		plan := model.Next()
		r.inflight.Add(1)
		go func() {
			defer r.inflight.Done()
			late := time.Since(due).Seconds()
			r.lateMu.Lock()
			r.late = append(r.late, late)
			r.lateMu.Unlock()
			r.do(ctx, plan, due)
		}()
		r.maybeHerd(ctx, n)
	}
}

// maybeHerd barrier-releases HerdSize concurrent fetches of one
// cache-cold day after every HerdEvery regular dispatches. Cold days
// step forward from the window start — the opposite end from the
// recency-biased hot set — so each herd hits an unpopulated cache entry
// and the full generation cost lands on every herd at once.
func (r *runner) maybeHerd(ctx context.Context, n int64) {
	if r.cfg.HerdEvery <= 0 || r.cfg.HerdSize <= 0 || n%int64(r.cfg.HerdEvery) != 0 {
		return
	}
	days := r.cfg.Model.Last.DayNumber() - r.cfg.Model.First.DayNumber() + 1
	offset := int(r.herdDay.Add(1)-1) % days
	day := r.cfg.Model.First.AddDays(offset)
	ds := r.cfg.Model.Datasets[int(r.herds.Add(1)-1)%len(r.cfg.Model.Datasets)]
	req := Request{Route: RouteHerd, Path: "/v1/" + ds + "/reports/" + day.String() + ".csv"}

	start := make(chan struct{})
	for i := 0; i < r.cfg.HerdSize; i++ {
		r.inflight.Add(1)
		go func() {
			defer r.inflight.Done()
			<-start
			r.do(ctx, req, time.Now())
		}()
	}
	close(start) // release the herd in one instant; Run joins it
}

// rec returns the route's recorder, creating it on first use.
func (r *runner) rec(route string) *recorder {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	rec, ok := r.recs[route]
	if !ok {
		rec = &recorder{stats: RouteStats{Route: route}}
		r.recs[route] = rec
	}
	return rec
}

// do executes one planned request and records it. Latency runs from
// intended (the request's due time in the open loop; now in the closed
// loop) through the last body byte.
func (r *runner) do(ctx context.Context, plan Request, intended time.Time) {
	variant := "identity"
	if plan.Gzip {
		variant = "gzip"
	}
	key := plan.Path + "|" + variant

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+plan.Path, nil)
	if err != nil {
		r.record(plan.Route, time.Since(intended), 0, plan.Gzip, 0, true)
		return
	}
	// Explicit Accept-Encoding both ways: "identity" keeps the transport
	// from transparently negotiating gzip behind the measurement's back.
	if plan.Gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	} else {
		req.Header.Set("Accept-Encoding", "identity")
	}
	sentETag := ""
	if plan.Conditional {
		if etag, ok := r.etags.Load(key); ok {
			sentETag = etag.(string)
			req.Header.Set("If-None-Match", sentETag)
		}
	}

	resp, err := r.client.Do(req)
	if err != nil {
		// Context-cancelled requests at the end of a Duration run are
		// shutdown noise, not server errors.
		if ctx.Err() == nil {
			r.record(plan.Route, time.Since(intended), 0, plan.Gzip, 0, true)
		}
		return
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(intended)
	if readErr != nil && ctx.Err() != nil {
		return // deadline hit mid-read: shutdown noise, not a server error
	}

	failed := readErr != nil || resp.StatusCode >= 400
	isLive := plan.Route == RouteLive
	if isLive && resp.StatusCode == http.StatusServiceUnavailable && readErr == nil {
		// The live route 503s by contract until a stream is attached and
		// has observed data; a poller arriving before first data is the
		// normal cold-start case, not a server failure.
		failed = false
	}
	if resp.StatusCode == http.StatusOK && readErr == nil {
		if isLive && sentETag != "" && resp.Header.Get("ETag") == sentETag {
			// Revision-ETag contract: the snapshot promises equal tags mean
			// equal bytes, so a conditional request bearing the current tag
			// must get 304, never a 200 re-sending the same revision.
			failed = true
			rec := r.rec(plan.Route)
			rec.mu.Lock()
			rec.stats.Mismatches++
			rec.mu.Unlock()
			if r.cfg.Log != nil {
				r.cfg.Log.Printf("loadgen: live 200 with unchanged ETag %s (%s)", sentETag, plan.Path)
			}
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			r.etags.Store(key, etag)
		}
		// The live resource mutates as the stream drains, so it is exempt
		// from the immutable-body verification below; its integrity check
		// is the revision-ETag contract above.
		if r.cfg.VerifyBodies && !isLive {
			sum := sha256.Sum256(body)
			h := hex.EncodeToString(sum[:])
			if prev, loaded := r.hashes.LoadOrStore(key, h); loaded && prev.(string) != h {
				failed = true
				rec := r.rec(plan.Route)
				rec.mu.Lock()
				rec.stats.Mismatches++
				rec.mu.Unlock()
				if r.cfg.Log != nil {
					r.cfg.Log.Printf("loadgen: body mismatch %s (%s)", plan.Path, variant)
				}
			}
			// Binary identity bodies additionally carry a checksum and a
			// strict structure: decode them so corruption inside a stable
			// body (same bytes, bad frame) cannot hide behind the hash.
			// The compressed binary representation is verified on BOTH
			// variants — the server contract is that binz never gets a gzip
			// layer, so a gzip-offering request still receives the identity
			// artifact and the decode doubles as an end-to-end check of
			// that: a Content-Encoding: gzip body would fail the magic.
			var verify func([]byte) error
			switch {
			case plan.Route == RouteReportBin && !plan.Gzip:
				verify = func(b []byte) error { _, err := binfmt.Decode(b); return err }
			case plan.Route == RouteReportBinz:
				verify = func(b []byte) error { _, err := framez.Decode(b); return err }
			}
			if verify != nil {
				if err := verify(body); err != nil {
					failed = true
					rec := r.rec(plan.Route)
					rec.mu.Lock()
					rec.stats.Mismatches++
					rec.mu.Unlock()
					if r.cfg.Log != nil {
						r.cfg.Log.Printf("loadgen: undecodable binary body %s: %v", plan.Path, err)
					}
				}
			}
		}
	}
	if failed && r.cfg.Log != nil && ctx.Err() == nil {
		r.cfg.Log.Printf("loadgen: %s %s -> status=%d readErr=%v", plan.Route, plan.Path, resp.StatusCode, readErr)
	}
	r.record(plan.Route, lat, resp.StatusCode, plan.Gzip, int64(len(body)), failed)
}

func (r *runner) record(route string, lat time.Duration, status int, gz bool, n int64, failed bool) {
	if failed {
		r.errors.Add(1)
	}
	r.rec(route).observe(lat.Seconds(), status, gz, n, failed)
}

// Datasets is the popularity-ordered roster the cmd uses by default:
// apnic first (the paper's dataset and the hot path), then the
// comparison datasets.
var Datasets = []string{"apnic", "cdn", "itu", "mlab", "dnscount", "broadband", "ixp"}

// DefaultModel is the canonical access model for a serving window.
func DefaultModel(first, last dates.Date) ModelConfig {
	return ModelConfig{
		Datasets:       Datasets,
		First:          first,
		Last:           last,
		ZipfS:          1.2,
		HotDayHalfLife: 7,
		GzipFraction:   0.5,
		CondFraction:   0.3,
	}
}
