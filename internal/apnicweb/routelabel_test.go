package apnicweb

import (
	"net/http/httptest"
	"testing"

	"repro/internal/obsv"
)

// TestRouteLabels pins the route label each request is counted under on
// /metrics: every route family of a registered dataset, the legacy
// routes, /healthz, /metrics and /v1/live/:cc carry their own label
// whatever the status, and a request no route serves (an unknown
// dataset, an unknown path, a method no route takes) is counted under
// "other", so clients cannot mint series.
func TestRouteLabels(t *testing.T) {
	srv := newTestServer(0)
	h := srv.Handler()
	cases := []struct {
		method, path, label string
	}{
		{"GET", "/healthz", "/healthz"},
		{"GET", "/metrics", "/metrics"},
		{"GET", "/v1/dates", "/v1/dates"},
		{"HEAD", "/v1/dates", "/v1/dates"},
		{"GET", "/v1/reports/2024-04-21.csv", "/v1/reports/:date"},
		{"GET", "/v1/reports/2024-04-21", "/v1/reports/:date"},
		{"GET", "/v1/reports/2030-01-01.csv", "/v1/reports/:date"},
		{"GET", "/v1/series/AS1?cc=FR&from=2024-04-20&to=2024-04-21", "/v1/series/:asn"},
		{"GET", "/v1/series/1?cc=FR", "/v1/series/:asn"},
		{"GET", "/v1/live/FR", "/v1/live/:cc"},
		{"GET", "/v1/live/F", "/v1/live/:cc"},
		{"GET", "/v1/cdn/dates", "/v1/cdn/dates"},
		{"GET", "/v1/apnic/dates", "/v1/apnic/dates"},
		{"GET", "/v1/cdn/reports/2024-04-21.csv", "/v1/cdn/reports/:date"},
		{"GET", "/v1/cdn/reports/2024-04-21", "/v1/cdn/reports/:date"},
		{"GET", "/v1/cdn/reports/2024-04-21.bin", "/v1/cdn/reports/:date"},
		{"GET", "/v1/cdn/reports/2024-04-21.binz", "/v1/cdn/reports/:date"},
		{"GET", "/v1/cdn/reports/not-a-date", "/v1/cdn/reports/:date"},
		{"GET", "/v1/cdn/series/x?cc=FR&from=2024-04-20&to=2024-04-21", "/v1/cdn/series/:key"},
		{"GET", "/v1/apnic/series/AS1", "/v1/apnic/series/:key"},
		{"GET", "/v1/nosuch/dates", "other"},
		{"GET", "/v1/nosuch/reports/2024-04-21.csv", "other"},
		{"GET", "/v1/cdn/reports/", "other"},
		{"GET", "/v1/cdn/nope", "other"},
		{"GET", "/v1/nope", "other"},
		{"GET", "/v2/x", "other"},
		{"POST", "/v1/cdn/dates", "other"},
		{"POST", "/healthz", "other"},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, nil))
		class := map[int]string{2: "2xx", 3: "3xx", 4: "4xx", 5: "5xx"}[w.Code/100]
		c := srv.Metrics().Counter(obsv.Label("http_requests_total", "route", tc.label, "class", class))
		before := c.Value()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(tc.method, tc.path, nil))
		if got := c.Value() - before; got != 1 {
			t.Errorf("%s %s (status %d): not counted under route %q", tc.method, tc.path, w.Code, tc.label)
		}
	}
}
