package apnicweb

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// TestClientRejectsBadResponses is the table suite for the client's
// response checks. A stub server answers every request with one canned
// response, and each fetch must fail with an error naming the fault
// instead of returning a frame or report.
func TestClientRejectsBadResponses(t *testing.T) {
	d := dates.New(2024, 4, 21)
	// A well-formed frame of the wrong dataset, in every representation.
	cdn := source.NewFrame("cdn", d)
	cdn.AddStrings("CC").Strs = []string{"FR", "DE"}
	cdn.AddInts("Samples").Ints = []int64{7, 9}
	var csvBody, jsonBody bytes.Buffer
	if err := cdn.WriteCSV(&csvBody); err != nil {
		t.Fatal(err)
	}
	if err := cdn.WriteJSON(&jsonBody); err != nil {
		t.Fatal(err)
	}
	binBody, err := binfmt.Encode(cdn)
	if err != nil {
		t.Fatal(err)
	}
	binzBody, err := framez.Encode(cdn)
	if err != nil {
		t.Fatal(err)
	}
	// The requested dataset's frame, to pair with an ETag naming the cdn
	// frame, and a legacy report body to pair with another day's tag.
	own := source.NewFrame("apnic", d)
	own.AddStrings("CC").Strs = []string{"FR", "DE"}
	own.AddInts("Samples").Ints = []int64{7, 9}
	var ownCSV, legacyBody, otherLegacy bytes.Buffer
	if err := own.WriteCSV(&ownCSV); err != nil {
		t.Fatal(err)
	}
	ownBin, err := binfmt.Encode(own)
	if err != nil {
		t.Fatal(err)
	}
	if err := testGen.Generate(d).WriteCSV(&legacyBody); err != nil {
		t.Fatal(err)
	}
	if err := testGen.Generate(d.AddDays(1)).WriteCSV(&otherLegacy); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	frame := func(c *Client) (*source.Frame, error) { return c.Frame(ctx, "apnic", d) }
	frameJSON := func(c *Client) (*source.Frame, error) { return c.FrameJSON(ctx, "apnic", d) }
	frameBin := func(c *Client) (*source.Frame, error) { return c.FrameBin(ctx, "apnic", d) }
	frameBinz := func(c *Client) (*source.Frame, error) { return c.FrameBinz(ctx, "apnic", d) }
	legacy := func(c *Client) (*source.Frame, error) { _, err := c.Report(ctx, d); return nil, err }
	apnicDates := func(c *Client) (*source.Frame, error) { _, _, err := c.Dates(ctx); return nil, err }
	datasetDates := func(c *Client) (*source.Frame, error) { _, err := c.DatasetDates(ctx, "apnic"); return nil, err }
	// A dates body that opens a JSON string and never closes it: the
	// chunked filler keeps the string going past the cap.
	endlessString := []byte(`{"first":"`)

	cases := []struct {
		name        string
		fetch       func(*Client) (*source.Frame, error)
		status      int
		contentType string
		body        []byte
		missing     int // bytes declared in Content-Length but never sent
		chunked     int // filler bytes streamed after body with no Content-Length
		etag        string
		want        string
	}{
		{"non-200 with body", frame, http.StatusNotFound, "text/plain", []byte("no such day\n"), 0, 0, "", "404 Not Found: no such day"},
		{"bin wrong content type", frameBin, http.StatusOK, "text/csv", csvBody.Bytes(), 0, 0, "", `server answered "text/csv"`},
		{"binz wrong content type", frameBinz, http.StatusOK, binfmt.ContentType, binBody, 0, 0, "", `server answered "` + binfmt.ContentType + `"`},
		{"csv short body", frame, http.StatusOK, "text/csv", csvBody.Bytes(), 64, 0, "", "unexpected EOF"},
		{"bin short body", frameBin, http.StatusOK, binfmt.ContentType, binBody, 64, 0, "", "unexpected EOF"},
		{"csv wrong dataset", frame, http.StatusOK, "text/csv", csvBody.Bytes(), 0, 0, "", `server sent a "cdn" frame, not "apnic"`},
		{"json wrong dataset", frameJSON, http.StatusOK, "application/json", jsonBody.Bytes(), 0, 0, "", `server sent a "cdn" frame, not "apnic"`},
		{"bin wrong dataset", frameBin, http.StatusOK, binfmt.ContentType, binBody, 0, 0, "", `server sent a "cdn" frame, not "apnic"`},
		{"binz wrong dataset", frameBinz, http.StatusOK, framez.ContentType, binzBody, 0, 0, "", `server sent a "cdn" frame, not "apnic"`},
		{"declared length over cap", frame, http.StatusOK, "text/csv", nil, maxBodyBytes + 1, 0, "", "exceeds the"},
		{"chunked body over cap", frameBin, http.StatusOK, binfmt.ContentType, binBody, 0, maxBodyBytes, "", "exceeds the"},
		{"dates string over cap", apnicDates, http.StatusOK, "application/json", endlessString, 0, maxBodyBytes, "", "exceeds the"},
		{"dataset dates string over cap", datasetDates, http.StatusOK, "application/json", endlessString, 0, maxBodyBytes, "", "exceeds the"},
		{"csv etag names other content", frame, http.StatusOK, "text/csv", ownCSV.Bytes(), 0, 0, source.FormatETag(cdn.ContentHash(), "csv"), "names other content"},
		{"bin etag names other content", frameBin, http.StatusOK, binfmt.ContentType, ownBin, 0, 0, source.FormatETag(cdn.ContentHash(), "bin"), "names other content"},
		{"legacy report etag names other content", legacy, http.StatusOK, "text/csv", legacyBody.Bytes(), 0, 0,
			source.FormatETag(bodyHash(otherLegacy.Bytes()), "csv"), "names other content"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", tc.contentType)
				if tc.etag != "" {
					w.Header().Set("ETag", tc.etag)
				}
				if tc.chunked == 0 {
					w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)+tc.missing))
				}
				w.WriteHeader(tc.status)
				w.Write(tc.body)
				filler := bytes.Repeat([]byte("x"), 32<<10)
				for n := 0; n < tc.chunked; n += len(filler) {
					if _, err := w.Write(filler); err != nil {
						return // the client gave up at the cap
					}
				}
			}))
			defer ts.Close()
			c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
			if _, err := tc.fetch(c); err == nil {
				t.Fatalf("fetch succeeded; want an error mentioning %q", tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestClientAcceptsTaggedBodies fetches the text representations from a
// real server, identity and gzip, and requires the client to accept
// every body its ETag describes (the tag's variant suffix differs per
// representation and coding; its hash part does not).
func TestClientAcceptsTaggedBodies(t *testing.T) {
	ts, gz := testServer(t)
	identity := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: &http.Transport{DisableCompression: true}}}
	ctx := context.Background()
	d := dates.New(2024, 4, 21)
	for name, c := range map[string]*Client{"gzip": gz, "identity": identity} {
		if _, err := c.Report(ctx, d); err != nil {
			t.Errorf("%s legacy report: %v", name, err)
		}
		if _, err := c.Frame(ctx, "apnic", d); err != nil {
			t.Errorf("%s csv frame: %v", name, err)
		}
		if _, err := c.FrameJSON(ctx, "apnic", d); err != nil {
			t.Errorf("%s json frame: %v", name, err)
		}
	}
}
