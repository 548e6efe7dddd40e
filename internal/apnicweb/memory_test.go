package apnicweb

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
	"repro/internal/stream"
)

// discardResponse is a ResponseWriter that keeps the headers and drops
// the body, so an allocation count sees the handler and not a recorder's
// growing buffer.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header  { return d.h }
func (d *discardResponse) WriteHeader(code int) { d.code = code }

func (d *discardResponse) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	return len(p), nil
}

// allocRoute is one warm request of the allocation budget table.
type allocRoute struct {
	name, path string
	hdr        map[string]string
	budget     float64
	method     string // "" is GET
}

// allocRoutes lists every route and representation with its allocation
// budget: the allocations per warm request through Handler (routing,
// metrics, headers and the response) as measured when the table was
// set. The report routes of every dataset come in identity, gzip and
// 304 (If-None-Match) variants; binz answers its gzip request with the
// identity body.
func allocRoutes() []allocRoute {
	type repr struct {
		name, path string
		budget     [3]float64 // identity, gzip, 304
	}
	reprs := []repr{{"apnic legacy", "/v1/reports/2024-04-21.csv", [3]float64{12, 15, 9}}}
	for _, ds := range allDatasets {
		day := "/v1/" + ds + "/reports/2024-04-21"
		reprs = append(reprs,
			repr{ds + " csv", day + ".csv", [3]float64{12, 15, 9}},
			repr{ds + " json", day, [3]float64{12, 15, 9}},
			repr{ds + " bin", day + binfmt.Suffix, [3]float64{12, 15, 9}},
			repr{ds + " binz", day + framez.Suffix, [3]float64{12, 12, 9}})
	}
	var routes []allocRoute
	for _, r := range reprs {
		routes = append(routes,
			allocRoute{r.name + " identity", r.path, map[string]string{"Accept-Encoding": "identity"}, r.budget[0], ""},
			allocRoute{r.name + " gzip", r.path, map[string]string{"Accept-Encoding": "gzip"}, r.budget[1], ""},
			allocRoute{r.name + " 304", r.path, map[string]string{"If-None-Match": "*"}, r.budget[2], ""})
	}
	row := testGen.Generate(dates.New(2024, 4, 21)).Rows[0]
	asn, week := row.ASN, "?cc="+row.CC+"&from=2024-04-15&to=2024-04-21"
	return append(routes,
		allocRoute{"dates", "/v1/dates", nil, 4, ""},
		allocRoute{"dataset dates", "/v1/cdn/dates", nil, 4, ""},
		allocRoute{"series 7 points", "/v1/apnic/series/AS" + itoa(asn) + week, nil, 134, ""},
		allocRoute{"legacy series 7 points", "/v1/series/AS" + itoa(asn) + week, nil, 43, ""},
		allocRoute{"live", "/v1/live/FR", nil, 20, ""},
		allocRoute{"live 304", "/v1/live/FR", map[string]string{"If-None-Match": "*"}, 10, ""},
		allocRoute{"live HEAD", "/v1/live/FR", nil, 11, http.MethodHead},
	)
}

// TestRouteAllocBudgets holds every route's warm request to its
// allocation budget (allocRoutes). Warm means the day's artifact and
// every body the request reads are already built; the test holds the
// weakly held text bodies so a collection during the measurement cannot
// add a render to the count.
func TestRouteAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv := newTestServer(30)
	holdTextRenders(srv, nil)
	est := stream.NewRollingEstimator(testGen)
	d := dates.New(2024, 4, 21)
	for _, c := range testGen.DayCounts(d) {
		est.Observe(stream.Impression{Day: d, CC: c.CC, ASN: c.ASN, Weight: c.Samples})
	}
	srv.SetLive(est)
	h := srv.Handler()
	for _, rt := range allocRoutes() {
		method := rt.method
		if method == "" {
			method = http.MethodGet
		}
		req := httptest.NewRequest(method, rt.path, nil)
		for k, v := range rt.hdr {
			req.Header.Set(k, v)
		}
		w := &discardResponse{h: http.Header{}}
		h.ServeHTTP(w, req) // warm: generate the day, fill the bodies it reads
		want := http.StatusOK
		if rt.hdr["If-None-Match"] != "" {
			want = http.StatusNotModified
		}
		if w.code != want {
			t.Fatalf("%s: %s %s answered %d, want %d", rt.name, method, rt.path, w.code, want)
		}
		allocs := testing.AllocsPerRun(20, func() {
			w.h = http.Header{}
			h.ServeHTTP(w, req)
		})
		if allocs > rt.budget {
			t.Errorf("%s: %v allocs per warm request, budget %v", rt.name, allocs, rt.budget)
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
