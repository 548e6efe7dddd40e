package apnicweb

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/source/binfmt"
)

// TestAcceptsFrameBin is the table suite for binary content negotiation:
// only a request that names the media type opts in.
func TestAcceptsFrameBin(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{``, false},
		{`application/x-frame-bin`, true},
		{`APPLICATION/X-FRAME-BIN`, true},
		{`application/json, application/x-frame-bin`, true},
		{`application/x-frame-bin;q=0.5`, true},
		{`application/x-frame-bin;q=0`, false}, // explicit refusal
		{`application/json`, false},
		{`*/*`, false},           // wildcard must not select binary
		{`application/*`, false}, // ditto
		{`text/html, */*;q=0.8`, false},
	}
	for _, tc := range cases {
		if got := acceptsMediaType(tc.header, binfmt.ContentType); got != tc.want {
			t.Errorf("acceptsMediaType(%q, %q) = %v, want %v", tc.header, binfmt.ContentType, got, tc.want)
		}
	}
}

// TestBinaryRouteDecodesToSameFrame: for every dataset, the .bin suffix
// and the Accept-negotiated bare route serve identical bytes that decode
// to the exact frame the CSV route represents, with the binary content
// type and an exact Content-Length.
func TestBinaryRouteDecodesToSameFrame(t *testing.T) {
	srv, ts, c := multiServer(t)
	d := dates.New(2024, 4, 21)
	for _, name := range allDatasets {
		path := "/v1/" + name + "/reports/" + d.String() + binfmt.Suffix
		resp := rawGet(t, ts, path, nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != binfmt.ContentType {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, len(body))
		}
		f, err := binfmt.Decode(body)
		if err != nil {
			t.Fatalf("%s: decoding binary body: %v", name, err)
		}
		want, err := srv.Registry().Frame(name, d)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want) {
			t.Errorf("%s: binary route decodes to a different frame", name)
		}

		// Accept negotiation on the bare route serves the same bytes.
		bare := "/v1/" + name + "/reports/" + d.String()
		resp = rawGet(t, ts, bare, map[string]string{"Accept": binfmt.ContentType})
		negotiated := readAll(t, resp)
		if resp.Header.Get("Content-Type") != binfmt.ContentType || !bytes.Equal(negotiated, body) {
			t.Errorf("%s: Accept-negotiated body differs from the .bin route", name)
		}

		// The client helper agrees with both.
		g, err := c.FrameBin(context.Background(), name, d)
		if err != nil {
			t.Fatalf("%s: client FrameBin: %v", name, err)
		}
		if !g.Equal(want) {
			t.Errorf("%s: client-decoded frame differs", name)
		}
	}
}

// TestBinaryRouteConditional: the binary representation has its own
// "-bin" variant ETag, revalidates to 304, and does not share validators
// with CSV/JSON.
func TestBinaryRouteConditional(t *testing.T) {
	_, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 5)
	binPath := "/v1/cdn/reports/" + d.String() + binfmt.Suffix

	resp := rawGet(t, ts, binPath, nil)
	readAll(t, resp)
	etag := resp.Header.Get("ETag")
	if !strings.HasSuffix(etag, `-bin"`) {
		t.Fatalf("binary ETag %q does not carry the -bin variant suffix", etag)
	}
	for _, otherPath := range []string{
		"/v1/cdn/reports/" + d.String() + ".csv",
		"/v1/cdn/reports/" + d.String(),
	} {
		other := rawGet(t, ts, otherPath, nil)
		readAll(t, other)
		if got := other.Header.Get("ETag"); got == etag {
			t.Errorf("%s shares the binary ETag %q", otherPath, got)
		}
	}

	resp = rawGet(t, ts, binPath, map[string]string{"If-None-Match": etag})
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("binary revalidation = %d with %d body bytes, want empty 304", resp.StatusCode, len(body))
	}
}

// TestBinaryRouteGzip: a gzip-coded binary response decompresses to the
// identity bytes and still decodes. (Binary bodies compress well — the
// string arenas are text — so the hot-day cache applies to them too.)
func TestBinaryRouteGzip(t *testing.T) {
	_, ts, _ := multiServer(t)
	d := dates.New(2024, 5, 6)
	path := "/v1/apnic/reports/" + d.String() + binfmt.Suffix

	identity := readAll(t, rawGet(t, ts, path, nil))
	resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
	raw := readAll(t, resp)
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q", resp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, identity) {
		t.Fatal("gzip binary body does not decompress to the identity bytes")
	}
	if _, err := binfmt.Decode(plain); err != nil {
		t.Fatalf("decompressed binary body does not decode: %v", err)
	}
}
