package obsv

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketEdges pins the boundary semantics: a sample equal to
// a bucket's upper bound lands in that bucket (le is inclusive), one just
// above it lands in the next, and anything beyond the last bound lands in
// +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.100001, 1, 1.5, 10, 11, 1e9} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	wantBounds := []float64{0.1, 1, 10, math.Inf(1)}
	if len(bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v", bounds)
	}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] {
			t.Fatalf("bounds[%d] = %v, want %v", i, bounds[i], wantBounds[i])
		}
	}
	// 0.05, 0.1 <= 0.1 | 0.100001, 1 <= 1 | 1.5, 10 <= 10 | 11, 1e9 → +Inf
	wantCum := []uint64{2, 4, 6, 8}
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[%d] = %d, want %d (bounds %v)", i, cum[i], wantCum[i], bounds)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if want := 0.05 + 0.1 + 0.100001 + 1 + 1.5 + 10 + 11 + 1e9; math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
}

// TestHistogramUnsortedBounds checks creation sorts the bounds.
func TestHistogramUnsortedBounds(t *testing.T) {
	h := newHistogram([]float64{5, 1, 3})
	h.Observe(2)
	bounds, cum := h.Buckets()
	if bounds[0] != 1 || bounds[1] != 3 || bounds[2] != 5 {
		t.Fatalf("bounds not sorted: %v", bounds)
	}
	if cum[0] != 0 || cum[1] != 1 {
		t.Fatalf("observation landed wrong: %v", cum)
	}
}

// TestRegistryConcurrent hammers every registry entry point from many
// goroutines; run under -race this is the registry's thread-safety proof.
// Each goroutine resolves the series by name every iteration, so the
// get-or-create paths race deliberately.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter(fmt.Sprintf("per_goroutine_total{g=\"%d\"}", g%4)).Inc()
				r.Gauge("shared_gauge").Set(float64(g))
				r.Histogram("shared_seconds").Observe(float64(i) / 1000)
				r.GaugeFunc("fn_gauge", func() float64 { return float64(g) })
				if i%50 == 0 {
					var b strings.Builder
					if err := r.WriteJSON(&b); err != nil {
						t.Errorf("WriteJSON: %v", err)
					}
					if err := r.WritePrometheus(&b); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("shared_total").Value(); got != goroutines*iters {
		t.Errorf("shared counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("shared_gauge").Value(); got < 0 || got >= goroutines || got != math.Trunc(got) {
		t.Errorf("shared gauge = %v, want one of the values set (0..%d)", got, goroutines-1)
	}
	if got := r.Histogram("shared_seconds").Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
	var sum int64
	for g := 0; g < 4; g++ {
		sum += r.Counter(fmt.Sprintf("per_goroutine_total{g=\"%d\"}", g)).Value()
	}
	if sum != goroutines*iters {
		t.Errorf("labeled counters sum to %d, want %d", sum, goroutines*iters)
	}
}

// TestRegistrySamePointer verifies get-or-create returns a stable
// pointer, which is what lets hot paths cache it.
func TestRegistrySamePointer(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter not memoized")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not memoized")
	}
	h := r.Histogram("h")
	if r.Histogram("h") != h {
		t.Error("Histogram not memoized")
	}
	if bounds, _ := h.Buckets(); len(bounds) != len(DefBuckets)+1 {
		t.Errorf("histogram bounds %v, want DefBuckets and +Inf", bounds)
	}
}

// TestExposition spot-checks both formats on a small fixed registry.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{route="/x",class="2xx"}`).Add(3)
	r.Gauge("temp").Set(1.5)
	r.GaugeFunc("fn", func() float64 { return 7 })
	h := r.Histogram(`lat_seconds{route="/x"}`)
	h.Observe(0.2)
	h.Observe(2)

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{route="/x",class="2xx"} 3`,
		"# TYPE temp gauge",
		"temp 1.5",
		"fn 7",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{route="/x",le="0.1"} 0`,
		`lat_seconds_bucket{route="/x",le="0.25"} 1`,
		`lat_seconds_bucket{route="/x",le="1"} 1`,
		`lat_seconds_bucket{route="/x",le="5"} 2`,
		`lat_seconds_bucket{route="/x",le="+Inf"} 2`,
		`lat_seconds_sum{route="/x"} 2.2`,
		`lat_seconds_count{route="/x"} 2`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(js.String())) {
		t.Fatalf("WriteJSON produced invalid JSON:\n%s", js.String())
	}
	for _, want := range []string{
		`"req_total{route=\"/x\",class=\"2xx\"}": 3`,
		`"temp": 1.5`,
		`"fn": 7`,
		`"count": 2`,
		`"+Inf": 2`,
	} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json output missing %q:\n%s", want, js.String())
		}
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m_total"); got != "m_total" {
		t.Errorf("Label no-labels = %q", got)
	}
	if got, want := Label("m_total", "a", "x", "b", `q"uote`), `m_total{a="x",b="q\"uote"}`; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
}
