package apnicweb

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// TestAcceptsFrameBinz is the negotiation table for the compressed
// binary representation: same opt-in-only rules as the raw binary
// plane, and naming both frame types selects binz.
func TestAcceptsFrameBinz(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{``, false},
		{`application/x-frame-binz`, true},
		{`APPLICATION/X-FRAME-BINZ`, true},
		{`application/json, application/x-frame-binz`, true},
		{`application/x-frame-bin, application/x-frame-binz`, true},
		{`application/x-frame-binz;q=0.5`, true},
		{`application/x-frame-binz;q=0`, false}, // explicit refusal
		{`application/x-frame-bin`, false},      // the raw type is not the compressed one
		{`application/json`, false},
		{`*/*`, false},           // wildcard must not select binary
		{`application/*`, false}, // ditto
	}
	for _, tc := range cases {
		if got := acceptsMediaType(tc.header, framez.ContentType); got != tc.want {
			t.Errorf("acceptsMediaType(%q, %q) = %v, want %v", tc.header, framez.ContentType, got, tc.want)
		}
	}
}

// TestVaryAcceptOnReportRoutes is the regression suite for the Vary
// header: the generic report routes negotiate their representation from
// Accept (acceptsMediaType on the bare-date path), so a
// shared cache keying only on Accept-Encoding could serve a binary body
// to a browser that asked for JSON. Every generic report response —
// including 304s, which caches also store — must list Accept in Vary.
// The legacy route's representation is fixed by its path, so it keeps
// the original Accept-Encoding-only header (its bytes are pinned).
func TestVaryAcceptOnReportRoutes(t *testing.T) {
	_, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 5)
	bare := "/v1/cdn/reports/" + d.String()
	cases := []struct {
		name string
		path string
		hdr  map[string]string
		want string
	}{
		{"frame-csv", bare + ".csv", nil, "Accept, Accept-Encoding"},
		{"frame-json", bare, nil, "Accept, Accept-Encoding"},
		{"frame-bin", bare + binfmt.Suffix, nil, "Accept, Accept-Encoding"},
		{"negotiated-bin", bare, map[string]string{"Accept": binfmt.ContentType}, "Accept, Accept-Encoding"},
		{"frame-binz", bare + framez.Suffix, nil, "Accept, Accept-Encoding"},
		{"negotiated-binz", bare, map[string]string{"Accept": framez.ContentType}, "Accept, Accept-Encoding"},
		{"legacy-csv", "/v1/reports/" + d.String() + ".csv", nil, "Accept-Encoding"},
	}
	for _, tc := range cases {
		resp := rawGet(t, ts, tc.path, tc.hdr)
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", tc.name, resp.StatusCode)
			continue
		}
		if vary := resp.Header.Get("Vary"); vary != tc.want {
			t.Errorf("%s: Vary = %q, want %q", tc.name, vary, tc.want)
		}
		// The 304 must carry the same Vary: revalidation responses update
		// stored cache metadata.
		hdr := map[string]string{"If-None-Match": resp.Header.Get("ETag")}
		for k, v := range tc.hdr {
			hdr[k] = v
		}
		resp = rawGet(t, ts, tc.path, hdr)
		readAll(t, resp)
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("%s: revalidation = %d, want 304", tc.name, resp.StatusCode)
			continue
		}
		if vary := resp.Header.Get("Vary"); vary != tc.want {
			t.Errorf("%s: 304 Vary = %q, want %q", tc.name, vary, tc.want)
		}
	}
}

// TestBinzRouteDecodesToSameFrame: for every dataset, the .binz suffix
// and the Accept-negotiated bare route serve identical bytes that
// decode to the exact frame the other representations render, with the
// binz content type, an exact Content-Length, and a body strictly
// smaller than the raw binary one.
func TestBinzRouteDecodesToSameFrame(t *testing.T) {
	srv, ts, c := multiServer(t)
	d := dates.New(2024, 4, 21)
	for _, name := range allDatasets {
		path := "/v1/" + name + "/reports/" + d.String() + framez.Suffix
		resp := rawGet(t, ts, path, nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != framez.ContentType {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, len(body))
		}
		f, err := framez.Decode(body)
		if err != nil {
			t.Fatalf("%s: decoding binz body: %v", name, err)
		}
		want, err := srv.Registry().Frame(name, d)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want) {
			t.Errorf("%s: binz route decodes to a different frame", name)
		}
		raw := readAll(t, rawGet(t, ts, "/v1/"+name+"/reports/"+d.String()+binfmt.Suffix, nil))
		if len(body) >= len(raw) {
			t.Errorf("%s: binz body (%d bytes) not smaller than bin (%d)", name, len(body), len(raw))
		}

		// Accept negotiation on the bare route serves the same bytes, and
		// naming both frame types still selects the compressed one.
		for _, accept := range []string{
			framez.ContentType,
			binfmt.ContentType + ", " + framez.ContentType,
		} {
			resp = rawGet(t, ts, "/v1/"+name+"/reports/"+d.String(), map[string]string{"Accept": accept})
			negotiated := readAll(t, resp)
			if resp.Header.Get("Content-Type") != framez.ContentType || !bytes.Equal(negotiated, body) {
				t.Errorf("%s: Accept %q body differs from the .binz route", name, accept)
			}
		}

		// The client helper agrees.
		g, err := c.FrameBinz(context.Background(), name, d)
		if err != nil {
			t.Fatalf("%s: client FrameBinz: %v", name, err)
		}
		if !g.Equal(want) {
			t.Errorf("%s: client-decoded frame differs", name)
		}
	}
}

// TestBinzRouteConditional: the compressed binary representation has
// its own "-binz" variant ETag that never collides with the validators
// of any other representation of the same dataset-day — csv, json, bin,
// or their gzip variants — and revalidates to an empty 304.
func TestBinzRouteConditional(t *testing.T) {
	_, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 5)
	binzPath := "/v1/cdn/reports/" + d.String() + framez.Suffix

	resp := rawGet(t, ts, binzPath, nil)
	readAll(t, resp)
	etag := resp.Header.Get("ETag")
	if !strings.HasSuffix(etag, `-binz"`) {
		t.Fatalf("binz ETag %q does not carry the -binz variant suffix", etag)
	}
	others := map[string]map[string]string{
		"/v1/cdn/reports/" + d.String() + ".csv":                nil,
		"/v1/cdn/reports/" + d.String():                         nil,
		"/v1/cdn/reports/" + d.String() + binfmt.Suffix:         nil,
		"/v1/cdn/reports/" + d.String() + ".csv?gz":             {"Accept-Encoding": "gzip"},
		"/v1/cdn/reports/" + d.String() + binfmt.Suffix + "?gz": {"Accept-Encoding": "gzip"},
	}
	for otherPath, hdr := range others {
		other := rawGet(t, ts, strings.TrimSuffix(otherPath, "?gz"), hdr)
		readAll(t, other)
		if got := other.Header.Get("ETag"); got == etag || got == "" {
			t.Errorf("%s: ETag %q must be a distinct validator from the binz tag %q", otherPath, got, etag)
		}
	}

	resp = rawGet(t, ts, binzPath, map[string]string{"If-None-Match": etag})
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("binz revalidation = %d with %d body bytes, want empty 304", resp.StatusCode, len(body))
	}
}

// TestBinzRouteSkipsGzip: binz bodies are already entropy-coded, so the
// server must not re-gzip them (double compression wastes CPU and
// inflates the bytes) and must bypass the pre-compressed LRU entirely —
// a gzip-accepting client gets the identity artifact with its exact
// length declared.
func TestBinzRouteSkipsGzip(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 6)
	path := "/v1/apnic/reports/" + d.String() + framez.Suffix

	identity := readAll(t, rawGet(t, ts, path, nil))
	resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
	body := readAll(t, resp)
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("binz response carries Content-Encoding %q; must be identity-only", ce)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, len(body))
	}
	if !bytes.Equal(body, identity) {
		t.Fatal("gzip-accepting binz request served different bytes than identity")
	}
	if _, err := framez.Decode(body); err != nil {
		t.Fatalf("served binz body does not decode: %v", err)
	}
	// A HEAD with gzip acceptable must agree: identity, exact length.
	req, err := http.NewRequest(http.MethodHead, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if ce := hresp.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("HEAD binz Content-Encoding = %q", ce)
	}
	if cl := hresp.Header.Get("Content-Length"); cl != strconv.Itoa(len(identity)) {
		t.Errorf("HEAD binz Content-Length = %q, want %d", cl, len(identity))
	}
	// The day's artifact never memoized a gzip body for binz: a probe
	// render under that name must run, not return a stored body.
	a, err := srv.Registry().Artifact(apnic.DatasetName, d)
	if err != nil {
		t.Fatal(err)
	}
	probed := false
	a.Body("binz.gz", func(*source.Frame) source.Body {
		probed = true
		return source.Body{}
	})
	if !probed {
		t.Error("artifact holds a gzip body after binz-only traffic")
	}
	if n := srv.Metrics().Counter(`apnicweb_responses_total{encoding="gzip"}`).Value(); n != 0 {
		t.Errorf("gzip response counter = %d after binz-only traffic, want 0", n)
	}
}
