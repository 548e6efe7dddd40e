package apnicweb

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
)

// TestETagMatch is the table suite for If-None-Match evaluation: weak
// comparison, multiple tags, wildcard, and garbage.
func TestETagMatch(t *testing.T) {
	const etag = `"abc123-csv"`
	cases := []struct {
		header string
		want   bool
	}{
		{``, false},
		{`"abc123-csv"`, true},                     // exact
		{`W/"abc123-csv"`, true},                   // weak tag, weak comparison matches
		{`"abc123-json"`, false},                   // other representation
		{`"zzz", "abc123-csv"`, true},              // multiple tags, one matches
		{`"zzz", "yyy"`, false},                    // multiple tags, none match
		{` "zzz" ,  W/"abc123-csv" , "yyy"`, true}, // whitespace + weak in a list
		{`*`, true},                                // wildcard matches any representation
		{`abc123-csv`, false},                      // unquoted is not an entity tag
		{`"abc123-csv`, false},                     // malformed quoting
		{`"ABC123-CSV"`, false},                    // tags are case-sensitive
	}
	for _, tc := range cases {
		if got := etagMatch(tc.header, etag); got != tc.want {
			t.Errorf("etagMatch(%q, %s) = %v, want %v", tc.header, etag, got, tc.want)
		}
	}
	// A weak current-representation tag also compares weakly.
	if !etagMatch(`"abc123-csv"`, `W/"abc123-csv"`) {
		t.Error("weak comparison must ignore W/ on the selected representation too")
	}
}

// TestAcceptsGzip is the table suite for Accept-Encoding negotiation.
func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{``, false}, // absent header: identity only
		{`gzip`, true},
		{`x-gzip`, true},
		{`GZIP`, true},
		{`gzip, deflate, br`, true},
		{`deflate, gzip;q=0.5`, true},
		{`gzip;q=0`, false},    // explicit refusal
		{`gzip;q=0.0`, false},  // explicit refusal, fractional form
		{`gzip; q=0`, false},   // parameter whitespace
		{`deflate, br`, false}, // gzip never offered
		{`*`, true},            // wildcard includes gzip
		{`*;q=0`, false},       // wildcard refused, gzip never named
		{`identity`, false},
		{`gzip;q=banana`, true}, // malformed q: stay acceptable
		// A named gzip member overrides "*" in either order (RFC 9110 §12.5.3).
		{`*, gzip;q=0`, false},
		{`*;q=0.5, gzip;q=0`, false},
		{`gzip;q=0, *`, false},
		{`*, x-gzip;q=0`, false},
		{`*;q=0, gzip`, true},
		{`*;q=0, gzip;q=0.2`, true},
		{`br, *;q=0.1`, true},
	}
	for _, tc := range cases {
		if got := acceptsGzip(tc.header); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// rawGet issues a GET with exact headers — no transparent gzip from the
// Go transport — so tests observe the wire encoding the server chose.
func rawGet(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An explicit Accept-Encoding disables the transport's automatic
	// gzip handling, exposing raw bytes and headers. ("identity", not
	// the empty string: Header.Get on an empty value returns "", which
	// the transport reads as unset and re-adds gzip.)
	req.Header.Set("Accept-Encoding", "identity")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reportPaths enumerates the three immutable report representations the
// conditional layer serves.
func reportPaths(d dates.Date) map[string]string {
	return map[string]string{
		"legacy-csv": "/v1/reports/" + d.String() + ".csv",
		"frame-csv":  "/v1/cdn/reports/" + d.String() + ".csv",
		"frame-json": "/v1/cdn/reports/" + d.String(),
	}
}

// wantVary is the expected Vary header per reportPaths entry: generic
// routes negotiate the representation from Accept, the legacy route's
// is fixed by its path (see TestVaryAcceptOnReportRoutes).
func wantVary(name string) string {
	if name == "legacy-csv" {
		return "Accept-Encoding"
	}
	return "Accept, Accept-Encoding"
}

// TestConditionalGetRoundTrip drives the full revalidation cycle on all
// three report representations: 200 with a strong ETag, then 304 with an
// empty body when the tag is replayed, including weak/multi-tag/wildcard
// replays; a wrong tag still gets 200.
func TestConditionalGetRoundTrip(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 5)

	for name, path := range reportPaths(d) {
		resp := rawGet(t, ts, path, nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" || !strings.HasPrefix(etag, `"`) || strings.HasPrefix(etag, "W/") {
			t.Fatalf("%s: ETag %q is not a strong quoted validator", name, etag)
		}
		if vary := resp.Header.Get("Vary"); vary != wantVary(name) {
			t.Errorf("%s: Vary = %q, want %q", name, vary, wantVary(name))
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty 200 body", name)
		}

		// Replay shapes that must all revalidate to 304.
		for _, inm := range []string{
			etag,
			"W/" + etag,
			`"bogus", ` + etag,
			"*",
		} {
			resp := rawGet(t, ts, path, map[string]string{"If-None-Match": inm})
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusNotModified {
				t.Errorf("%s: If-None-Match %q = %d, want 304", name, inm, resp.StatusCode)
			}
			if len(body) != 0 {
				t.Errorf("%s: 304 carried %d body bytes", name, len(body))
			}
			if got := resp.Header.Get("ETag"); got != etag {
				t.Errorf("%s: 304 ETag %q, want %q", name, got, etag)
			}
			if vary := resp.Header.Get("Vary"); vary != wantVary(name) {
				t.Errorf("%s: 304 Vary = %q, want %q", name, vary, wantVary(name))
			}
		}

		// A stale tag must serve the full body again.
		resp = rawGet(t, ts, path, map[string]string{"If-None-Match": `"deadbeef"`})
		if again := readAll(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(again, body) {
			t.Errorf("%s: stale-tag replay = %d (%d bytes), want identical 200", name, resp.StatusCode, len(again))
		}
	}

	if n := srv.Metrics().Counter("apnicweb_not_modified_total").Value(); n != 12 {
		t.Errorf("not-modified counter = %d, want 12 (4 replays x 3 representations)", n)
	}
}

// TestConditionalVariantMismatch: the gzip and identity representations
// have distinct strong ETags, so an identity tag replayed alongside
// Accept-Encoding: gzip selects a different representation and must not
// 304.
func TestConditionalVariantMismatch(t *testing.T) {
	_, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 6)
	path := "/v1/cdn/reports/" + d.String() + ".csv"

	identity := rawGet(t, ts, path, nil)
	readAll(t, identity)
	idTag := identity.Header.Get("ETag")

	gzipped := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
	readAll(t, gzipped)
	gzTag := gzipped.Header.Get("ETag")

	if idTag == gzTag {
		t.Fatalf("identity and gzip share strong ETag %s; encodings are different representations", idTag)
	}
	resp := rawGet(t, ts, path, map[string]string{
		"Accept-Encoding": "gzip",
		"If-None-Match":   idTag,
	})
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("identity tag with gzip negotiation = %d, want 200 (different representation)", resp.StatusCode)
	}
	resp = rawGet(t, ts, path, map[string]string{
		"Accept-Encoding": "gzip",
		"If-None-Match":   gzTag,
	})
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("gzip tag with gzip negotiation = %d, want 304", resp.StatusCode)
	}
}

// TestGzipBodiesDecodeIdentical: for every report representation, the
// gzip body must decompress to exactly the identity bytes, carry correct
// Content-Encoding/Content-Length, and repeat byte-identically (the
// pre-compressed cache at work).
func TestGzipBodiesDecodeIdentical(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 7)

	for name, path := range reportPaths(d) {
		identity := readAll(t, rawGet(t, ts, path, nil))

		resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: gzip status %d", name, resp.StatusCode)
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
			t.Fatalf("%s: Content-Encoding = %q", name, ce)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
			t.Errorf("%s: Content-Length %q != compressed body %d", name, cl, len(raw))
		}
		if len(raw) >= len(identity) {
			t.Errorf("%s: gzip body (%d bytes) not smaller than identity (%d)", name, len(raw), len(identity))
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decoded, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: decoding gzip body: %v", name, err)
		}
		if !bytes.Equal(decoded, identity) {
			t.Errorf("%s: gzip body decodes to different bytes than identity", name)
		}

		again := readAll(t, rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"}))
		if !bytes.Equal(again, raw) {
			t.Errorf("%s: repeated gzip response differs (cache must serve identical bytes)", name)
		}
	}

	if n := srv.Metrics().Counter(`apnicweb_responses_total{encoding="gzip"}`).Value(); n != 6 {
		t.Errorf("gzip response counter = %d, want 6", n)
	}
	if n := srv.Metrics().Counter(`apnicweb_responses_total{encoding="identity"}`).Value(); n != 3 {
		t.Errorf("identity response counter = %d, want 3", n)
	}
}

// TestLegacyGoldenBytesWithoutConditionalHeaders pins the compatibility
// contract of the conditional layer: a request with no Accept-Encoding
// and no If-None-Match gets the exact bytes of the native render, with no
// Content-Encoding, on both legacy routes and the generic CSV route.
func TestLegacyGoldenBytesWithoutConditionalHeaders(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 4, 21)

	var golden strings.Builder
	if err := nativeGen(t, srv).Generate(d).WriteCSV(&golden); err != nil {
		t.Fatal(err)
	}
	resp := rawGet(t, ts, "/v1/reports/"+d.String()+".csv", nil)
	body := readAll(t, resp)
	if resp.Header.Get("Content-Encoding") != "" {
		t.Errorf("unsolicited Content-Encoding %q on legacy route", resp.Header.Get("Content-Encoding"))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Errorf("legacy Content-Type = %q", ct)
	}
	if !bytes.Equal(body, []byte(golden.String())) {
		t.Fatal("legacy CSV bytes differ from the native render when no conditional headers are sent")
	}

	f, err := srv.Registry().Frame("cdn", d)
	if err != nil {
		t.Fatal(err)
	}
	var frameGolden bytes.Buffer
	if err := f.WriteCSV(&frameGolden); err != nil {
		t.Fatal(err)
	}
	resp = rawGet(t, ts, "/v1/cdn/reports/"+d.String()+".csv", nil)
	if got := readAll(t, resp); !bytes.Equal(got, frameGolden.Bytes()) {
		t.Fatal("generic frame CSV bytes differ from the direct render when no conditional headers are sent")
	}

	// And the frame route's ETag is exactly the frame's own validator.
	if want := source.FormatETag(f.ContentHash(), "csv"); resp.Header.Get("ETag") != want {
		t.Errorf("frame CSV ETag = %q, want %q", resp.Header.Get("ETag"), want)
	}

	// Parse-back sanity: the served identity bytes remain a valid frame.
	parsed, err := source.ReadCSV(bytes.NewReader(frameGolden.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(f) {
		t.Fatal("served CSV no longer round-trips through the codec")
	}
}

// TestSmallRoutesUnconditional: dates and series responses are dynamic
// aggregates, stay unconditional and uncompressed by design.
func TestSmallRoutesUnconditional(t *testing.T) {
	_, ts, _ := multiServer(t)
	for _, path := range []string{"/v1/dates", "/v1/cdn/dates"} {
		resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if et := resp.Header.Get("ETag"); et != "" {
			t.Errorf("%s: unexpected ETag %q", path, et)
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Errorf("%s: unexpected Content-Encoding %q", path, ce)
		}
	}
}
