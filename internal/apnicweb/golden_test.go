package apnicweb

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

var update = flag.Bool("update", false, "rewrite the served-body golden manifest")

const servedBodiesGolden = "testdata/served_bodies.golden"

// goldenDays are the days the served-body manifest pins: a mid-year
// day and the last served day.
var goldenDays = []dates.Date{dates.New(2024, 4, 21), dates.New(2024, 12, 31)}

// TestServedBodiesGolden pins every report body the server sends: for
// each dataset, golden day and representation, the sha256 of the
// identity body and the ETags of its identity and gzip variants. Gzip
// responses are checked to decompress to the identity bytes, but the
// compressed bytes themselves are not pinned: compress/flate output may
// change with the Go toolchain. A change to the manifest is a deliberate
// pin update (regenerate with -update).
func TestServedBodiesGolden(t *testing.T) {
	ts := httptest.NewServer(newTestServer(30).Handler())
	defer ts.Close()

	var manifest strings.Builder
	for _, ds := range allDatasets {
		for _, d := range goldenDays {
			day := d.String()
			reprs := []struct{ name, path string }{
				{"csv", "/v1/" + ds + "/reports/" + day + ".csv"},
				{"json", "/v1/" + ds + "/reports/" + day},
				{"bin", "/v1/" + ds + "/reports/" + day + binfmt.Suffix},
				{"binz", "/v1/" + ds + "/reports/" + day + framez.Suffix},
			}
			if ds == apnic.DatasetName {
				reprs = append(reprs, struct{ name, path string }{"legacy", "/v1/reports/" + day + ".csv"})
			}
			for _, r := range reprs {
				body, etag := goldenGet(t, ts, r.path, "identity")
				gzBody, gzETag := goldenGet(t, ts, r.path, "gzip")
				if !bytes.Equal(gzBody, body) {
					t.Errorf("%s: gzip body decompresses to %d bytes that differ from the %d identity bytes",
						r.path, len(gzBody), len(body))
				}
				sum := sha256.Sum256(body)
				fmt.Fprintf(&manifest, "%s %s %s sha256=%s etag=%s etag_gzip=%s\n",
					ds, day, r.name, hex.EncodeToString(sum[:]), etag, gzETag)
			}
		}
	}
	got := manifest.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servedBodiesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", servedBodiesGolden)
		return
	}
	want, err := os.ReadFile(servedBodiesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("manifest has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("served body drifted:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// goldenGet fetches path with the given Accept-Encoding and returns the
// decoded body and the ETag. Anything but a 200 fails the test.
func goldenGet(t *testing.T, ts *httptest.Server, path, enc string) ([]byte, string) {
	t.Helper()
	resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": enc})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s (%s): status %d: %s", path, enc, resp.StatusCode, body)
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if body, err = io.ReadAll(zr); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return body, resp.Header.Get("ETag")
}
