package apnicweb

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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
	checkManifest(t, servedBodiesGolden, manifest.String())
}

// checkManifest compares a body manifest with its golden file, or
// rewrites the file under -update.
func checkManifest(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
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

const seriesBodiesGolden = "testdata/series_bodies.golden"

// seriesWindows are the windows the series manifest pins: 7 daily
// points, and 30 points three days apart.
var seriesWindows = []string{
	"from=2024-04-18&to=2024-04-24",
	"from=2024-03-01&to=2024-05-27&step=3",
}

// TestSeriesBodiesGolden pins the series bodies: for each dataset, the
// sha256 of the generic /v1/{dataset}/series/{key} body over each
// window, and for apnic the legacy /v1/series/AS… body too. Each
// dataset's key is the median row of its frame on goldenDays[0], so the
// manifest proves which row every day's lookup finds. A change to the
// manifest is a deliberate pin update (regenerate with -update).
func TestSeriesBodiesGolden(t *testing.T) {
	srv := newTestServer(30)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var paths []string
	for _, ds := range allDatasets {
		f, err := srv.Registry().Frame(ds, goldenDays[0])
		if err != nil {
			t.Fatal(err)
		}
		row := f.Rows() / 2
		var key string
		switch ds {
		case "itu":
			key = f.Col("CC").Strs[row]
		case apnic.DatasetName:
			key = fmt.Sprintf("AS%d?cc=%s", f.Col("AS").Ints[row], f.Col("CC").Strs[row])
		default:
			key = url.PathEscape(f.Col("Org").Strs[row]) + "?cc=" + f.Col("CC").Strs[row]
		}
		sep := "?"
		if strings.Contains(key, "?") {
			sep = "&"
		}
		for _, w := range seriesWindows {
			paths = append(paths, "/v1/"+ds+"/series/"+key+sep+w)
			if ds == apnic.DatasetName {
				paths = append(paths, "/v1/series/"+key+sep+w)
			}
		}
	}
	var manifest strings.Builder
	for _, path := range paths {
		resp := rawGet(t, ts, path, nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var points struct{ Points []json.RawMessage }
		if err := json.Unmarshal(body, &points); err != nil || len(points.Points) == 0 {
			t.Fatalf("GET %s: want a non-empty series, got %s (%v)", path, body, err)
		}
		sum := sha256.Sum256(body)
		fmt.Fprintf(&manifest, "%s sha256=%s\n", path, hex.EncodeToString(sum[:]))
	}
	checkManifest(t, seriesBodiesGolden, manifest.String())
}

const datesBodiesGolden = "testdata/dates_bodies.golden"

// TestDatesBodiesGolden pins the dates routes byte for byte: for
// /v1/dates and every dataset's /v1/{dataset}/dates, the Content-Type
// and the whole body (quoted, trailing newline included). A change to
// the manifest is a deliberate pin update (regenerate with -update).
func TestDatesBodiesGolden(t *testing.T) {
	ts := httptest.NewServer(newTestServer(30).Handler())
	defer ts.Close()

	paths := []string{"/v1/dates"}
	for _, ds := range allDatasets {
		paths = append(paths, "/v1/"+ds+"/dates")
	}
	var manifest strings.Builder
	for _, path := range paths {
		resp := rawGet(t, ts, path, nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		fmt.Fprintf(&manifest, "%s content-type=%q body=%q\n", path, resp.Header.Get("Content-Type"), body)
	}
	checkManifest(t, datesBodiesGolden, manifest.String())
}
