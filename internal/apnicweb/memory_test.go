package apnicweb

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
)

// discardResponse is a ResponseWriter that keeps the headers and drops
// the body, so an allocation count sees the handler and not a recorder's
// growing buffer.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestWarmIdentityTextAllocs holds the allocation budget of a warm
// identity CSV or JSON report request through Handler: routing,
// metrics, headers and the streamed render, with the day's artifact and
// digit table already built. The budgets are the counts measured when
// every request still formatted its floats with strconv; formatting
// from the digit table must not cost a single allocation more.
func TestWarmIdentityTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const csvBudget, jsonBudget = 27, 29
	h := newTestServer(30).Handler()
	for _, ds := range allDatasets {
		for _, c := range []struct {
			suffix string
			budget float64
		}{{".csv", csvBudget}, {"", jsonBudget}} {
			req := httptest.NewRequest(http.MethodGet, "/v1/"+ds+"/reports/2024-04-21"+c.suffix, nil)
			req.Header.Set("Accept-Encoding", "identity")
			w := &discardResponse{h: http.Header{}}
			h.ServeHTTP(w, req) // warm: generate the day, build its digit table
			allocs := testing.AllocsPerRun(20, func() {
				w.h = http.Header{}
				h.ServeHTTP(w, req)
			})
			if allocs > c.budget {
				t.Errorf("%s: %v allocs per warm request, budget %v", req.URL.Path, allocs, c.budget)
			}
		}
	}
}

// TestGzipBodiesExactSize: a memoized gzip body stays resident as long
// as its day, so it must not carry a growth buffer's slack. Its capacity
// may exceed its length by at most the allocator's rounding of that
// length up to a size class.
func TestGzipBodiesExactSize(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 4, 21)
	for _, ds := range allDatasets {
		base := "/v1/" + ds + "/reports/" + d.String()
		reprs := map[string]string{"csv": base + ".csv", "json": base, "bin": base + ".bin"}
		if ds == "apnic" {
			reprs["legacy"] = "/v1/reports/" + d.String() + ".csv"
		}
		a, err := srv.Registry().Artifact(ds, d)
		if err != nil {
			t.Fatal(err)
		}
		for repr, path := range reprs {
			resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
			readAll(t, resp)
			if resp.Header.Get("Content-Encoding") != "gzip" {
				t.Fatalf("%s: not served gzip", path)
			}
			body := a.Body(repr+".gz", func(*source.Frame) source.Body {
				t.Fatalf("%s: gzip body of %s was not memoized", ds, repr)
				return source.Body{}
			}).Bytes
			sizeClass := cap(append([]byte(nil), make([]byte, len(body))...))
			if cap(body) > sizeClass {
				t.Errorf("%s %s.gz: %d bytes held in %d bytes of capacity; one size class is %d",
					ds, repr, len(body), cap(body), sizeClass)
			}
		}
	}
}
