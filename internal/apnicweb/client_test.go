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
// instead of returning a frame.
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

	ctx := context.Background()
	frame := func(c *Client) (*source.Frame, error) { return c.Frame(ctx, "apnic", d) }
	frameJSON := func(c *Client) (*source.Frame, error) { return c.FrameJSON(ctx, "apnic", d) }
	frameBin := func(c *Client) (*source.Frame, error) { return c.FrameBin(ctx, "apnic", d) }
	frameBinz := func(c *Client) (*source.Frame, error) { return c.FrameBinz(ctx, "apnic", d) }

	cases := []struct {
		name        string
		fetch       func(*Client) (*source.Frame, error)
		status      int
		contentType string
		body        []byte
		missing     int // bytes declared in Content-Length but never sent
		chunked     int // filler bytes streamed after body with no Content-Length
		want        string
	}{
		{"non-200 with body", frame, http.StatusNotFound, "text/plain", []byte("no such day\n"), 0, 0, "404 Not Found: no such day"},
		{"bin wrong content type", frameBin, http.StatusOK, "text/csv", csvBody.Bytes(), 0, 0, `server answered "text/csv"`},
		{"binz wrong content type", frameBinz, http.StatusOK, binfmt.ContentType, binBody, 0, 0, `server answered "` + binfmt.ContentType + `"`},
		{"csv short body", frame, http.StatusOK, "text/csv", csvBody.Bytes(), 64, 0, "unexpected EOF"},
		{"bin short body", frameBin, http.StatusOK, binfmt.ContentType, binBody, 64, 0, "unexpected EOF"},
		{"csv wrong dataset", frame, http.StatusOK, "text/csv", csvBody.Bytes(), 0, 0, `server sent a "cdn" frame, not "apnic"`},
		{"json wrong dataset", frameJSON, http.StatusOK, "application/json", jsonBody.Bytes(), 0, 0, `server sent a "cdn" frame, not "apnic"`},
		{"bin wrong dataset", frameBin, http.StatusOK, binfmt.ContentType, binBody, 0, 0, `server sent a "cdn" frame, not "apnic"`},
		{"binz wrong dataset", frameBinz, http.StatusOK, framez.ContentType, binzBody, 0, 0, `server sent a "cdn" frame, not "apnic"`},
		{"declared length over cap", frame, http.StatusOK, "text/csv", nil, maxBodyBytes + 1, 0, "exceeds the"},
		{"chunked body over cap", frameBin, http.StatusOK, binfmt.ContentType, binBody, 0, maxBodyBytes, "exceeds the"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", tc.contentType)
				if tc.chunked == 0 {
					w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)+tc.missing))
				}
				w.WriteHeader(tc.status)
				w.Write(tc.body)
				filler := make([]byte, 32<<10)
				for n := 0; n < tc.chunked; n += len(filler) {
					if _, err := w.Write(filler); err != nil {
						return // the client gave up at the cap
					}
				}
			}))
			defer ts.Close()
			c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
			f, err := tc.fetch(c)
			if err == nil {
				t.Fatalf("fetch returned a %q frame and no error", f.Source)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
