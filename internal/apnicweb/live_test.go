package apnicweb

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/stream"
)

// TestHeadStreamingRoutes is the regression test for HEAD falling
// through to the text render: Go 1.22 "GET /..." patterns also match
// HEAD, and the old serveImmutable rendered (or aborted on) a full
// body. HEAD must answer the same negotiated headers as GET with no
// body — even when the underlying renderer would fail, because HEAD
// never renders.
func TestHeadStreamingRoutes(t *testing.T) {
	srv := newTestServer(0)
	// Poison the text render seams: any attempt to render a body on the
	// HEAD path shows up as a failure.
	for _, text := range []*repr{&srv.csvText, &srv.jsonText} {
		text.render = func(*source.Frame) ([]byte, error) {
			return nil, errors.New("HEAD must not render")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// net/http's transport asks for gzip on GET but never on HEAD; use an
	// identity-only client so both methods negotiate the same variant and
	// their validators must agree.
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	for _, path := range []string{
		"/v1/apnic/reports/2024-04-21.csv",
		"/v1/apnic/reports/2024-04-21",
	} {
		resp, err := client.Head(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD %s status = %d", path, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("HEAD %s returned %d body bytes", path, len(body))
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("HEAD %s has no ETag", path)
		}
		if ct := resp.Header.Get("Content-Type"); ct == "" {
			t.Fatalf("HEAD %s has no Content-Type", path)
		}
		// The validator must be the one GET serves: a conditional GET with
		// the HEAD's ETag revalidates to 304 without rendering.
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		resp2, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotModified {
			t.Fatalf("GET %s with HEAD's ETag = %d, want 304", path, resp2.StatusCode)
		}
	}
}

// TestHeadGzipAndLegacyRoutes covers the negotiated-encoding headers on
// HEAD and the legacy materialized route.
func TestHeadGzipAndLegacyRoutes(t *testing.T) {
	ts, _ := testServer(t)
	req, err := http.NewRequest(http.MethodHead, ts.URL+"/v1/apnic/reports/2024-04-21.csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD gzip status = %d", resp.StatusCode)
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("HEAD gzip Content-Encoding = %q", enc)
	}
	if !strings.HasSuffix(resp.Header.Get("ETag"), `-csv.gz"`) {
		t.Fatalf("HEAD gzip ETag = %q, want the csv.gz variant", resp.Header.Get("ETag"))
	}

	// Legacy CSV HEAD: headers present, no body.
	resp, err = ts.Client().Head(ts.URL + "/v1/reports/2024-04-21.csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("legacy HEAD: status %d, %d body bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("legacy HEAD has no ETag")
	}
}

// TestLiveEndpoint drives a real pipeline into a rolling estimator
// attached to the server and exercises the full /v1/live contract:
// 503 before attachment and before data, country filtering with global
// ranks, revision ETag + 304 revalidation, and the stream_* pipeline
// metrics visible on the same /metrics the server already serves.
func TestLiveEndpoint(t *testing.T) {
	srv := newTestServer(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unattached: 503 with a JSON error.
	resp, err := ts.Client().Get(ts.URL + "/v1/live/FR")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unattached live status = %d, want 503", resp.StatusCode)
	}

	// Attached but empty: still 503.
	est := stream.NewRollingEstimator(testGen)
	srv.SetLive(est)
	resp, err = ts.Client().Get(ts.URL + "/v1/live/FR")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty live status = %d, want 503", resp.StatusCode)
	}

	// Stream one day through the pipeline, with the pipeline's metrics on
	// the server registry — the acceptance criterion is that per-stage
	// stream_* series land on the same /metrics scrape.
	d := dates.New(2024, 4, 21)
	p, err := stream.New(stream.Config{
		Source:    &stream.CountSource{Gen: testGen, From: d, Days: 1, Chunk: 512},
		Publisher: &stream.EstimatorSink{Est: est},
		Metrics:   srv.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/live/FR")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	var live LiveResponse
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live status = %d", resp.StatusCode)
	}
	if etag == "" || !strings.HasPrefix(etag, `"live-FR-`) {
		t.Fatalf("live ETag = %q", etag)
	}
	if live.Country != "FR" || live.Date != d.String() {
		t.Fatalf("live header = %+v", live)
	}
	if len(live.Rows) == 0 {
		t.Fatal("live FR estimate is empty after a full day drained")
	}

	// The drained stream must agree exactly with the batch dataset's FR
	// rows, global ranks included.
	want := testGen.Generate(d)
	var wantFR []LiveRow
	for _, row := range want.Rows {
		if row.CC != "FR" {
			continue
		}
		wantFR = append(wantFR, LiveRow{
			Rank: row.Rank, ASN: row.ASN, ASName: row.ASName,
			Users: row.Users, PctCC: row.PctCountry, Samples: row.Samples,
		})
	}
	if len(live.Rows) != len(wantFR) {
		t.Fatalf("live FR rows = %d, batch has %d", len(live.Rows), len(wantFR))
	}
	for i := range wantFR {
		if live.Rows[i] != wantFR[i] {
			t.Fatalf("live row %d:\n got  %+v\n want %+v", i, live.Rows[i], wantFR[i])
		}
	}

	// Revalidation: same revision → 304; new data → fresh ETag.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/live/FR", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
	est.Observe(stream.Impression{Day: d, CC: "FR", ASN: 64500, Weight: 1})
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation revalidation status = %d, want 200", resp.StatusCode)
	}

	// The pipeline's ledger is scrapeable next to the serving metrics.
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"stream_accepted_total",
		"stream_batches_total",
		"stream_published_records_total",
		`stream_filtered_total{reason="bot"}`,
		`stream_queue_depth{stage="events"}`,
	} {
		if !strings.Contains(string(scrape), series) {
			t.Fatalf("/metrics is missing %s", series)
		}
	}
}

// TestLiveHead: HEAD on the live route carries the validator, no body.
func TestLiveHead(t *testing.T) {
	srv := newTestServer(0)
	est := stream.NewRollingEstimator(testGen)
	d := dates.New(2024, 4, 21)
	est.Observe(stream.Impression{Day: d, CC: "FR", ASN: 64500, Weight: 200})
	srv.SetLive(est)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Head(ts.URL + "/v1/live/FR")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("live HEAD: status %d, %d body bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("live HEAD has no ETag")
	}
}

// TestLiveCountryValidation: the country segment is copied into the
// ETag, so anything but two ASCII letters must be a 400 before the
// snapshot is read. A quote used to mint an invalid entity-tag and a
// comma split the tag in etagMatch.
func TestLiveCountryValidation(t *testing.T) {
	srv := newTestServer(0)
	est := stream.NewRollingEstimator(testGen)
	est.Observe(stream.Impression{Day: dates.New(2024, 4, 21), CC: "FR", ASN: 64500, Weight: 200})
	srv.SetLive(est)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		segment string
		want    int
	}{
		{"FR", http.StatusOK},
		{"fr", http.StatusOK},
		{"a%22b", http.StatusBadRequest},        // a"b
		{"F%2CR", http.StatusBadRequest},        // F,R
		{"%22F", http.StatusBadRequest},         // "F: two bytes, one a quote
		{"F%20", http.StatusBadRequest},         // trailing space
		{"FRA", http.StatusBadRequest},          // three letters
		{"F", http.StatusBadRequest},            // one letter
		{"1A", http.StatusBadRequest},           // digit
		{"%C5%BF%C5%BF", http.StatusBadRequest}, // U+017F upper-cases to ASCII S
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/live/" + tc.segment)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/live/%s = %d (%s), want %d", tc.segment, resp.StatusCode, body, tc.want)
			continue
		}
		if tc.want != http.StatusOK {
			if et := resp.Header.Get("ETag"); et != "" {
				t.Errorf("GET /v1/live/%s: 400 carries ETag %q", tc.segment, et)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("GET /v1/live/%s: body %q is not a JSON error", tc.segment, body)
			}
		} else if et := resp.Header.Get("ETag"); !strings.HasPrefix(et, `"live-FR-`) {
			t.Errorf("GET /v1/live/%s: ETag %q", tc.segment, et)
		}
	}
}
