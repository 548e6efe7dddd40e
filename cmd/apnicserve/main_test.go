package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dates"
)

// TestServeAllDatasets is the integration check from the roadmap: boot
// the exact handler main serves and curl every dataset's dates route
// plus one report. The loop mirrors
//
//	for d in apnic cdn itu mlab dnscount broadband ixp; do
//	    curl $base/v1/$d/dates
//	    curl $base/v1/$d/reports/2024-04-21.csv
//	done
func TestServeAllDatasets(t *testing.T) {
	srv := buildServer(11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	curl := func(path string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	for _, dataset := range []string{"apnic", "cdn", "itu", "mlab", "dnscount", "broadband", "ixp"} {
		code, body := curl("/v1/" + dataset + "/dates")
		if code != http.StatusOK {
			t.Fatalf("%s dates: status %d: %s", dataset, code, body)
		}
		var dd struct {
			Dataset string `json:"dataset"`
			First   string `json:"first"`
			Last    string `json:"last"`
			Cadence string `json:"cadence"`
		}
		if err := json.Unmarshal(body, &dd); err != nil {
			t.Fatalf("%s dates body %q: %v", dataset, body, err)
		}
		if dd.Dataset != dataset || dd.First != "2024-01-01" || dd.Last != "2024-12-31" {
			t.Fatalf("%s dates = %+v", dataset, dd)
		}

		code, body = curl("/v1/" + dataset + "/reports/2024-04-21.csv")
		if code != http.StatusOK {
			t.Fatalf("%s report: status %d: %s", dataset, code, body)
		}
		if !strings.HasPrefix(string(body), "#source,"+dataset+",") {
			t.Fatalf("%s report does not open with its frame meta record: %.80q", dataset, body)
		}
		if lines := strings.Count(string(body), "\n"); lines < 3 {
			t.Fatalf("%s report has only %d lines", dataset, lines)
		}
	}

	// The legacy APNIC surface main has always served must still answer.
	if code, _ := curl("/v1/dates"); code != http.StatusOK {
		t.Fatalf("legacy /v1/dates: status %d", code)
	}
	if code, body := curl("/v1/reports/2024-04-21.csv"); code != http.StatusOK {
		t.Fatalf("legacy report: status %d", code)
	} else if !strings.Contains(string(body), "Estimated Users") {
		t.Fatalf("legacy report lacks native header: %.120q", body)
	}
}

// TestParseRange pins the flag check: a range main would accept but no
// dataset can serve (inverted, or leaving the simulated span) is refused
// before the world is built.
func TestParseRange(t *testing.T) {
	for _, tc := range []struct {
		from, to string
		wantErr  string // substring; empty means accepted
	}{
		{"2013-11-01", "2024-12-31", ""},
		{"2024-04-21", "2024-04-21", ""},
		{"2024-12-31", "2024-01-01", "is after"},
		{"2013-10-31", "2024-12-31", "outside the simulated span"},
		{"2023-01-01", "2025-01-01", "outside the simulated span"},
		{"2026-01-01", "2025-01-01", "is after"},
		{"2024-13-01", "2024-12-31", "-from"},
		{"2024-01-01", "soon", "-to"},
	} {
		first, last, err := parseRange(tc.from, tc.to)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("parseRange(%s, %s): %v", tc.from, tc.to, err)
		case tc.wantErr == "" && (first.String() != tc.from || last.String() != tc.to):
			t.Errorf("parseRange(%s, %s) = %s, %s", tc.from, tc.to, first, last)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("parseRange(%s, %s) error = %v, want one containing %q", tc.from, tc.to, err, tc.wantErr)
		}
	}
}

// TestHTTPServerLimits pins the listener configuration: every timeout is
// set, so idle keep-alive connections are eventually closed, and a
// request whose headers exceed the limit is refused with a 431 while one
// well under it is served.
func TestHTTPServerLimits(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	srv := newHTTPServer("127.0.0.1:0", ok)
	for name, v := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if v <= 0 {
			t.Errorf("%s = %v, want a positive limit", name, v)
		}
	}
	if srv.MaxHeaderBytes != maxHeaderBytes || srv.Addr != "127.0.0.1:0" {
		t.Errorf("MaxHeaderBytes = %d, Addr = %q", srv.MaxHeaderBytes, srv.Addr)
	}

	ts := httptest.NewUnstartedServer(ok)
	ts.Config = srv
	ts.Start()
	defer ts.Close()
	for _, tc := range []struct {
		pad  int
		want int
	}{
		{maxHeaderBytes / 2, http.StatusOK},
		{2 * maxHeaderBytes, http.StatusRequestHeaderFieldsTooLarge},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pad", strings.Repeat("a", tc.pad))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%d-byte header: %v", tc.pad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte header: status %d, want %d", tc.pad, resp.StatusCode, tc.want)
		}
	}
}
