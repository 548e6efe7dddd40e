// Package apnicweb serves and fetches the simulated datasets over HTTP.
// Historically it published only the APNIC per-AS reports, mirroring
// stats.labs.apnic.net; it now serves every dataset registered in a
// source.Registry under generic routes, with the original APNIC routes
// kept as byte-identical compatibility aliases.
//
// Generic endpoints (one family per registered dataset):
//
//	GET /v1/{dataset}/dates                    served range + cadence, JSON
//	GET /v1/{dataset}/reports/{date}.csv       one day's frame as CSV
//	GET /v1/{dataset}/reports/{date}           one day's frame as JSON
//	GET /v1/{dataset}/series/{key}?cc=XX&from=&to=&step=   per-row series, JSON
//
// Legacy APNIC aliases (responses byte-identical to the original APNIC routes):
//
//	GET /v1/reports/{date}                     <YYYY-MM-DD>.csv, native CSV
//	GET /v1/dates                              served date range, JSON
//	GET /v1/series/{asn}?cc=XX&from=&to=&step= per-AS time series, JSON
//	    (the footnote-2 per-ASN view of stats.labs.apnic.net)
//
// Plus:
//
//	GET /v1/live/{country}                     rolling streaming estimate, JSON (see live.go)
//	GET /metrics                               Prometheus text (?format=json for JSON)
//	GET /healthz                               liveness probe
//
// Every route is wrapped in the obsv middleware with a bounded per-route
// (and per-dataset) label, so request counts, status classes, and latency
// histograms appear on /metrics alongside the cache and render-error
// series. Errors on generic routes carry a JSON body; legacy routes keep
// their original plain-text errors.
//
// Report routes exploit day immutability (every dataset-day is a pure
// function of (seed, date)): responses carry strong ETags derived from
// the frame content hash, If-None-Match revalidation answers 304 without
// rendering, Accept-Encoding negotiates gzip bodies pre-compressed once
// per resident day, and every report body is served whole with its
// Content-Length, except the legacy CSV. See conditional.go and
// serveImmutable.
//
// Each dataset-day the server touches is one source.Artifact, evicted
// whole with the day. Besides the frame it holds, each part built on
// first use: the content hash (the ETag base), the .bin and .binz
// encodings, the legacy APNIC CSV with its body hash, and one gzip body
// per representation kept at exact size. Series routes read their days
// cold (source.Registry.Frame), so a long series does not flush the hot
// days.
//
// Identity CSV and JSON are held weakly (source.Artifact.WeakBody): a
// body is rendered once and served until the garbage collector finds
// no request holding it, then rendered again, byte-identical, by the
// next request that wants it. Held strongly for every hot day, those
// bodies raised the server's peak memory by about a quarter, because
// the collector paces itself at twice the heap it keeps; held weakly,
// they never count toward that heap. The trade is one render per body
// per collection cycle instead of one per day, which
// apnicweb_text_renders_total{repr="csv"|"json"} counts.
package apnicweb

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/bundle"
	"repro/internal/source/framez"
	"repro/internal/world"
)

// Server serves generated reports for a date range.
//
// The server keeps no day cache of its own. Every dataset-day lives in
// one place, the registry's artifact (source.Registry.Artifact): the
// frame plus its content hash and every encoded body: bin, binz, legacy
// CSV and gzip held with the day, identity CSV and JSON held weakly
// until a garbage collection finds no request using them. Concurrent
// requests for one day share one generation and one fill per part;
// distinct days fill in parallel. The artifact cache is a bounded LRU
// per dataset (NewMultiServer's cacheDays sets the capacity, default
// source.DefaultCacheDays), and a day's parts are evicted with it.
// Eviction and collection are safe because every part is a pure
// function of (seed, date): a dropped part rebuilds byte-identically on
// the next request. The dates bodies never change, so they are built
// once, with the server.
type Server struct {
	reg   *source.Registry
	first dates.Date
	last  dates.Date

	// Log, when non-nil, receives structured request logs and render
	// failures. Set it before calling Handler.
	Log *log.Logger

	metrics  *obsv.Registry
	writeCSV func(*apnic.Report, io.Writer) error // seam for render-failure tests

	// The identity frame text representations, weakly held per day.
	csvText, jsonText textRepr

	// The /v1/dates body and each dataset's /v1/{dataset}/dates body.
	dates        []byte
	datasetDates map[string][]byte

	renderErrs  *obsv.Counter
	notModified *obsv.Counter
	encGzip     *obsv.Counter
	encIdentity *obsv.Counter

	// liveState holds the optional streaming estimator behind
	// /v1/live/{country}; see live.go and SetLive.
	liveState
}

// NewMultiServer builds the full seven-dataset roster over one world and
// serves every dataset under /v1/{dataset}/..., with the legacy APNIC
// routes aliasing the "apnic" dataset. cacheDays bounds each dataset's
// artifact cache (source.DefaultCacheDays when < 1).
func NewMultiServer(w *world.World, seed uint64, first, last dates.Date, cacheDays int) *Server {
	metrics := obsv.NewRegistry()
	b := bundle.New(w, seed, bundle.Config{Metrics: metrics, CacheDays: cacheDays})
	s := &Server{
		reg:      b.Registry,
		first:    first,
		last:     last,
		metrics:  metrics,
		writeCSV: (*apnic.Report).WriteCSV,
		csvText: textRepr{
			repr: "csv", contentType: "text/csv; charset=utf-8", render: (*source.Frame).CSVBytes,
			renders: metrics.Counter(`apnicweb_text_renders_total{repr="csv"}`),
		},
		jsonText: textRepr{
			repr: "json", contentType: "application/json", render: (*source.Frame).JSONBytes,
			renders: metrics.Counter(`apnicweb_text_renders_total{repr="json"}`),
		},
		dates:        jsonBody(DateRange{First: first.String(), Last: last.String()}),
		datasetDates: map[string][]byte{},
	}
	for _, name := range s.reg.Names() {
		src, _ := s.reg.Lookup(name)
		s.datasetDates[name] = jsonBody(DatasetDates{
			Dataset: name, First: first.String(), Last: last.String(), Cadence: src.Window().Cadence,
		})
	}
	s.renderErrs = metrics.Counter("apnicweb_render_errors_total")
	s.notModified = metrics.Counter("apnicweb_not_modified_total")
	s.encGzip = metrics.Counter(`apnicweb_responses_total{encoding="gzip"}`)
	s.encIdentity = metrics.Counter(`apnicweb_responses_total{encoding="identity"}`)
	// Day-cache series (source_frame_*{dataset=...}) are registered by the
	// source layer on the same registry.
	return s
}

// textRepr is one identity frame text representation: its name, media
// type and encoder, and the count of renders its weak bodies cost.
type textRepr struct {
	repr, contentType string
	render            func(*source.Frame) ([]byte, error) // seam for render-failure tests
	renders           *obsv.Counter
}

// fill renders a day's body for Artifact.WeakBody, counting the render.
func (t *textRepr) fill(f *source.Frame) ([]byte, error) {
	t.renders.Inc()
	return t.render(f)
}

// jsonBody is v as json.Encoder writes it, trailing newline included.
func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // v is one of this package's plain string structs
	}
	return append(b, '\n')
}

// Metrics exposes the server's registry so embedding binaries can add
// their own series and dump a snapshot on exit.
func (s *Server) Metrics() *obsv.Registry { return s.metrics }

// Registry exposes the dataset roster the server serves.
func (s *Server) Registry() *source.Registry { return s.reg }

// routeLabel collapses request paths onto their route patterns so the
// per-route metric series stay bounded no matter what clients request.
// Dataset segments are kept only for registered datasets (a bounded set);
// everything else collapses to "other".
func (s *Server) routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/reports/"):
		return "/v1/reports/:date"
	case strings.HasPrefix(p, "/v1/series/"):
		return "/v1/series/:asn"
	case strings.HasPrefix(p, "/v1/live/"):
		return "/v1/live/:cc"
	case p == "/v1/dates", p == "/healthz", p == "/metrics":
		return p
	}
	if rest, ok := strings.CutPrefix(p, "/v1/"); ok {
		name, tail, _ := strings.Cut(rest, "/")
		if _, known := s.reg.Lookup(name); known {
			switch {
			case tail == "dates":
				return "/v1/" + name + "/dates"
			case strings.HasPrefix(tail, "reports/"):
				return "/v1/" + name + "/reports/:date"
			case strings.HasPrefix(tail, "series/"):
				return "/v1/" + name + "/series/:key"
			}
		}
	}
	return "other"
}

// Handler returns the HTTP handler, instrumented with per-route metrics
// and (when s.Log is set) request logging.
//
// Routing is two-tier because Go 1.22 mux precedence demands it: the
// legacy literal patterns (/v1/reports/{date}) and the generic wildcard
// patterns (/v1/{dataset}/dates) overlap with neither more specific, so
// registering both in one mux panics. The outer mux owns the legacy
// routes plus the /v1/ subtree; the subtree is strictly less specific
// than every literal pattern, so legacy paths win and everything else
// falls through to the generic inner mux.
func (s *Server) Handler() http.Handler {
	inner := http.NewServeMux()
	inner.HandleFunc("GET /v1/{dataset}/dates", s.handleDatasetDates)
	inner.HandleFunc("GET /v1/{dataset}/reports/{date}", s.handleDatasetReport)
	inner.HandleFunc("GET /v1/{dataset}/series/{key}", s.handleDatasetSeries)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/dates", s.handleDates)
	mux.HandleFunc("GET /v1/reports/{date}", s.handleReport)
	mux.HandleFunc("GET /v1/series/{asn}", s.handleSeries)
	mux.HandleFunc("GET /v1/live/{country}", s.handleLive)
	mux.Handle("GET /metrics", s.metrics.Handler())
	mux.Handle("/v1/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := inner.Handler(r); pattern == "" {
			jsonError(w, http.StatusNotFound, "no such route")
			return
		}
		// Serve through the mux (not the matched handler directly) so the
		// inner patterns' path values are bound on the request.
		inner.ServeHTTP(w, r)
	}))
	mw := &obsv.HTTPMetrics{Registry: s.metrics, Log: s.Log, Route: s.routeLabel}
	return mw.Wrap(mux)
}

// errorBody is the JSON error shape of the generic dataset routes.
type errorBody struct {
	Error string `json:"error"`
}

// jsonError writes a JSON error body, the contract of every generic
// /v1/{dataset}/... route (legacy routes keep plain-text errors).
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// lookupDataset resolves the {dataset} path segment, writing the
// satellite JSON 404 when the name is unknown.
func (s *Server) lookupDataset(w http.ResponseWriter, r *http.Request) (source.Source, bool) {
	name := r.PathValue("dataset")
	src, ok := s.reg.Lookup(name)
	if !ok {
		jsonError(w, http.StatusNotFound,
			fmt.Sprintf("unknown dataset %q (served: %s)", name, strings.Join(s.reg.Names(), ", ")))
		return nil, false
	}
	return src, true
}

// DatasetDates is the /v1/{dataset}/dates response body.
type DatasetDates struct {
	Dataset string `json:"dataset"`
	First   string `json:"first"`
	Last    string `json:"last"`
	Cadence string `json:"cadence"`
}

func (s *Server) handleDatasetDates(w http.ResponseWriter, r *http.Request) {
	src, ok := s.lookupDataset(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.datasetDates[src.Name()])
}

// handleDatasetReport serves one dataset-day in one of four
// representations: "{date}.csv" as frame CSV, "{date}.bin" (or a bare
// date with Accept: application/x-frame-bin) as the binary columnar
// encoding, "{date}.binz" (or Accept: application/x-frame-binz) as the
// compressed binary encoding, and a bare "{date}" otherwise as frame
// JSON. All four carry a strong ETag derived from the frame content
// hash (variant-suffixed, so no two representations share a validator)
// and negotiate gzip through serveImmutable — except binz, which is
// already entropy-coded and always serves identity. Binary bodies are
// the day artifact's memoized encodings; text bodies its weakly held
// renders, which serveImmutable fetches only once no 304, HEAD or gzip
// hit can answer without them.
func (s *Server) handleDatasetReport(w http.ResponseWriter, r *http.Request) {
	src, ok := s.lookupDataset(w, r)
	if !ok {
		return
	}
	name := r.PathValue("date")
	var wantCSV, wantBin, wantBinz bool
	if trimmed, ok := strings.CutSuffix(name, ".csv"); ok {
		name, wantCSV = trimmed, true
	} else if trimmed, ok := strings.CutSuffix(name, framez.Suffix); ok {
		name, wantBinz = trimmed, true
	} else if trimmed, ok := strings.CutSuffix(name, binfmt.Suffix); ok {
		name, wantBin = trimmed, true
	} else if accept := r.Header.Get("Accept"); acceptsFrameBinz(accept) {
		// A client naming both frame media types gets the compressed one.
		wantBinz = true
	} else {
		wantBin = acceptsFrameBin(accept)
	}
	d, err := dates.Parse(name)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad date (want YYYY-MM-DD, YYYY-MM-DD.csv, YYYY-MM-DD.bin or YYYY-MM-DD.binz)")
		return
	}
	if d.Before(s.first) || d.After(s.last) {
		jsonError(w, http.StatusNotFound, "date out of served range")
		return
	}
	a, err := s.reg.Artifact(src.Name(), d)
	var binBody []byte
	if err == nil {
		switch {
		case wantBin:
			binBody, err = a.Bin()
		case wantBinz:
			binBody, err = a.Binz()
		}
	}
	if err != nil {
		s.renderErrs.Inc()
		if s.Log != nil {
			s.Log.Printf("render error dataset=%s date=%s err=%q", src.Name(), d, err)
		}
		jsonError(w, http.StatusInternalServerError, "report generation failed: "+err.Error())
		return
	}
	b := immutableBody{
		art:     a,
		dataset: src.Name(),
		day:     d,
		hash:    a.Hash(),
		fail: func(code int, msg string) {
			s.renderErrs.Inc()
			jsonError(w, code, msg)
		},
	}
	// The generic report routes negotiate their representation from the
	// Accept header, so every response (all four representations — the
	// suffix paths serve the same resources) must tell shared caches the
	// body varies on it.
	b.varyAccept = true
	switch {
	case wantBin:
		b.repr, b.contentType = "bin", binfmt.ContentType
		b.body = binBody
	case wantBinz:
		b.repr, b.contentType = "binz", framez.ContentType
		b.body = binBody
		// Already entropy-coded: gzip on top costs CPU on both ends for
		// negative savings, so the representation is identity-only and
		// never gets a pre-compressed body.
		b.noGzip = true
	default:
		t := &s.jsonText
		if wantCSV {
			t = &s.csvText
		}
		b.repr, b.contentType, b.text = t.repr, t.contentType, t
	}
	s.serveImmutable(w, r, b)
}

// immutableBody describes one immutable dataset-day representation for
// serveImmutable: a materialized identity body (legacy CSV, bin, binz)
// held by the day's artifact, or a text representation whose weakly
// held body is fetched from the artifact only when the response needs
// it. Exactly one of body and text is set.
type immutableBody struct {
	repr        string           // representation key: "csv", "json", "bin", "binz", "legacy"
	art         *source.Artifact // the day; its gzip bodies are memoized here
	dataset     string
	day         dates.Date
	contentType string
	hash        string    // content hash, the ETag base
	body        []byte    // identity bytes, when already materialized
	text        *textRepr // weakly held identity text otherwise
	omitLen     bool      // leave the identity Content-Length to net/http
	noGzip      bool      // pre-compressed representation: identity only
	varyAccept  bool      // representation was negotiated from Accept
	fail        func(code int, msg string)
}

// identity returns the identity body, rendering a text body the
// collector dropped.
func (b *immutableBody) identity() ([]byte, error) {
	if b.text == nil {
		return b.body, nil
	}
	return b.art.WeakBody(b.repr, b.text.fill)
}

// serveImmutable finishes a report response: ETag / If-None-Match
// validation, Accept-Encoding negotiation, gzip bodies memoized on the
// day's artifact, and identity bodies written whole.
//
// Ordering is load-bearing. The 304 check runs before any rendering so a
// revalidation costs one memoized hash lookup, and HEAD answers before
// any rendering too. The gzip body is compressed into the artifact from
// the identity body — never teed off a live response — so a
// mid-download disconnect cannot poison it. Every fallible step runs
// before the first body byte, so a failure is a clean 500.
func (s *Server) serveImmutable(w http.ResponseWriter, r *http.Request, b immutableBody) {
	gz := !b.noGzip && acceptsGzip(r.Header.Get("Accept-Encoding"))
	variant := b.repr
	if gz {
		variant += ".gz"
	}
	etag := source.FormatETag(b.hash, variant)
	h := w.Header()
	if b.varyAccept {
		// The generic routes pick csv/json/bin/binz from the Accept header
		// (the bare-date path most visibly): without Accept in Vary a
		// shared cache could answer a browser's JSON request with a binary
		// body stored for a frame client. Sent on 304s too — revalidation
		// updates stored response metadata.
		h.Set("Vary", "Accept, Accept-Encoding")
	} else {
		// Legacy routes serve one fixed representation per path; their
		// headers (like their bytes) are pinned by the compatibility tests.
		h.Set("Vary", "Accept-Encoding")
	}
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=86400")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", b.contentType)
	if r.Method == http.MethodHead {
		// Go 1.22 "GET /..." patterns also match HEAD, and before this
		// check a HEAD request fell through to the body paths: the text
		// routes rendered a full body net/http then had to discard.
		// Answer with the negotiated headers alone. Content-Length is
		// declared only for an identity body held with the day that GET
		// declares it for; gzip and text lengths are unknown without
		// rendering, which is exactly the work HEAD exists to skip.
		if gz {
			h.Set("Content-Encoding", "gzip")
			s.encGzip.Inc()
		} else {
			if b.body != nil && !b.omitLen {
				h.Set("Content-Length", strconv.Itoa(len(b.body)))
			}
			s.encIdentity.Inc()
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	var body []byte
	var err error
	if gz {
		body, err = s.gzipBody(&b)
	} else {
		body, err = b.identity()
	}
	if err != nil {
		if s.Log != nil {
			s.Log.Printf("render error dataset=%s repr=%s gzip=%t date=%s err=%q", b.dataset, b.repr, gz, b.day, err)
		}
		// Strip the success-only headers: a 500 carrying a public
		// max-age Cache-Control (or a validator) could get cached.
		h.Del("ETag")
		h.Del("Cache-Control")
		h.Del("Vary")
		h.Del("Content-Type")
		b.fail(http.StatusInternalServerError, "report generation failed: "+err.Error())
		return
	}
	if gz {
		h.Set("Content-Encoding", "gzip")
		s.encGzip.Inc()
	} else {
		s.encIdentity.Inc()
	}
	// Content-Length is deliberately not set for the legacy route's
	// identity body: net/http chunks large bodies exactly as it did
	// before the conditional layer existed, keeping those responses
	// byte-identical on the wire. Every other body is whole in memory,
	// so its length is known and safe to declare.
	if gz || !b.omitLen {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.Write(body)
}

// gzipWriters pools gzip.Writer instances for the gzip body fill path.
// A gzip writer carries ~1.3MB of deflate state (hash chains, window,
// output buffers); constructing one per fill made every cold gzip
// request pay that allocation and the GC churn behind it.
// Reset rebinds a pooled writer to a new destination with the same
// BestSpeed level, and gzip output is a pure function of (input, level),
// so reuse is byte-identical to a fresh writer — pinned by
// TestGzipWriterPoolByteIdentical.
var gzipWriters = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return zw
	},
}

// gzipBufs pools the buffers gzip fills compress into. The memo keeps
// an exact-size copy of each body, so a pooled buffer's growth is paid
// once, not left behind as garbage by every fill.
var gzipBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// gzipBody returns the gzip representation, compressed at most once per
// representation while the day's artifact is resident (memoized under
// the ETag variant, e.g. "csv.gz"). The fill compresses the identity
// body the request holds, never a client connection's bytes, so partial
// client reads cannot poison it; and gzip output is deterministic for a
// fixed input and level, so a refill after eviction is byte-identical.
func (s *Server) gzipBody(b *immutableBody) ([]byte, error) {
	gz := b.art.Body(b.repr+".gz", func(*source.Frame) source.Body {
		body, err := b.identity()
		if err != nil {
			return source.Body{Err: err}
		}
		buf := gzipBufs.Get().(*bytes.Buffer)
		defer gzipBufs.Put(buf)
		buf.Reset()
		zw := gzipWriters.Get().(*gzip.Writer)
		zw.Reset(buf)
		_, err = zw.Write(body)
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
		// Pool even after an error: Reset clears sticky write errors, and
		// a closed writer is reusable by contract.
		gzipWriters.Put(zw)
		if err != nil {
			return source.Body{Err: err}
		}
		// The body stays resident with the day: keep an exact-size copy,
		// not the pooled buffer.
		return source.Body{Bytes: bytes.Clone(buf.Bytes())}
	})
	return gz.Bytes, gz.Err
}

// GenericSeriesPoint is one date of a generic per-row series: every
// numeric column of the matched row.
type GenericSeriesPoint struct {
	Date   string             `json:"date"`
	Values map[string]float64 `json:"values"`
}

// GenericSeriesResponse is the /v1/{dataset}/series body.
type GenericSeriesResponse struct {
	Dataset string               `json:"dataset"`
	Key     string               `json:"key"`
	Country string               `json:"cc,omitempty"`
	Points  []GenericSeriesPoint `json:"points"`
}

// seriesSelector maps a dataset's route key to the frame columns that
// identify one row and the cells to find in them. Unified rule: itu rows
// are keyed by country alone (the key IS the cc); apnic rows by (AS, cc);
// every per-(country, org) dataset by (Org, cc). The ASN is parsed and
// re-formatted, so "AS002435" finds the row of AS2435.
func seriesSelector(dataset, key, cc string) (cols, cells []string, country string, err error) {
	switch dataset {
	case "itu":
		return []string{"CC"}, []string{key}, "", nil
	case apnic.DatasetName:
		digits, ok := strings.CutPrefix(key, "AS")
		if !ok {
			return nil, nil, "", fmt.Errorf("want /v1/%s/series/AS<asn>", dataset)
		}
		asn, err := strconv.ParseUint(digits, 10, 32)
		if err != nil {
			return nil, nil, "", fmt.Errorf("bad ASN")
		}
		if cc == "" {
			return nil, nil, "", fmt.Errorf("missing cc parameter")
		}
		return apnicSeriesCols, []string{strconv.FormatUint(asn, 10), cc}, cc, nil
	default:
		if cc == "" {
			return nil, nil, "", fmt.Errorf("missing cc parameter")
		}
		return []string{"Org", "CC"}, []string{key, cc}, cc, nil
	}
}

// apnicSeriesCols identify one APNIC row: the paper's per-(country, AS)
// series identity, shared by the generic and legacy series routes.
var apnicSeriesCols = []string{"AS", "CC"}

// seriesRows calls visit with each day of days whose frame holds the row
// keyed by cells over cols. Days are cold reads (source.Registry.Frame),
// so a long series does not flush the days other requests keep hot.
func (s *Server) seriesRows(dataset string, days []dates.Date, cols, cells []string, visit func(d dates.Date, f *source.Frame, row int)) error {
	key := newRowKey(cols, cells)
	for _, d := range days {
		f, err := s.reg.Frame(dataset, d)
		if err != nil {
			return err
		}
		if row := key.find(f); row >= 0 {
			visit(d, f, row)
		}
	}
	return nil
}

// rowKey matches cells over named columns in codec form (Column.Cell),
// each cell parsed once: an int column matches only a canonical decimal,
// and find compares int64s and strings without formatting a row's cell.
type rowKey struct {
	cols, cells []string
	ints        []int64
	isInt       []bool
}

func newRowKey(cols, cells []string) rowKey {
	k := rowKey{cols, cells, make([]int64, len(cells)), make([]bool, len(cells))}
	for i, c := range cells {
		v, err := strconv.ParseInt(c, 10, 64)
		k.ints[i], k.isInt[i] = v, err == nil && strconv.FormatInt(v, 10) == c
	}
	return k
}

// find returns f's first matching row, or -1. A key column f lacks
// matches nothing, nor does a float one: no series is keyed on one.
// The first key column is scanned with a typed loop; the others are
// checked only on its hits.
func (k rowKey) find(f *source.Frame) int {
	cs := make([]*source.Column, len(k.cols))
	for i, name := range k.cols {
		c := f.Col(name)
		if c == nil || c.Kind == source.Float || c.Kind == source.Int && !k.isInt[i] {
			return -1
		}
		cs[i] = c
	}
	if first := cs[0]; first.Kind == source.Int {
		for row, v := range first.Ints {
			if v == k.ints[0] && k.matchRest(cs, row) {
				return row
			}
		}
	} else {
		for row, v := range first.Strs {
			if v == k.cells[0] && k.matchRest(cs, row) {
				return row
			}
		}
	}
	return -1
}

// matchRest reports whether row holds the key in every column after the
// first.
func (k rowKey) matchRest(cs []*source.Column, row int) bool {
	for i := 1; i < len(cs); i++ {
		if c := cs[i]; c.Kind == source.Int && c.Ints[row] != k.ints[i] ||
			c.Kind == source.String && c.Strs[row] != k.cells[i] {
			return false
		}
	}
	return true
}

// handleDatasetSeries serves a per-row time series for any dataset: the
// generic analogue of the legacy per-AS series route.
func (s *Server) handleDatasetSeries(w http.ResponseWriter, r *http.Request) {
	src, ok := s.lookupDataset(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	cols, cells, cc, err := seriesSelector(src.Name(), r.PathValue("key"), q.Get("cc"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	from, to, step, ok := s.seriesRange(q, func(code int, msg string) { jsonError(w, code, msg) })
	if !ok {
		return
	}
	resp := GenericSeriesResponse{Dataset: src.Name(), Key: r.PathValue("key"), Country: cc}
	err = s.seriesRows(src.Name(), dates.Range(from, to, step), cols, cells, func(d dates.Date, f *source.Frame, i int) {
		vals := map[string]float64{}
		for _, c := range f.Cols {
			if slices.Contains(cols, c.Name) {
				continue
			}
			switch c.Kind {
			case source.Int:
				vals[c.Name] = float64(c.Ints[i])
			case source.Float:
				vals[c.Name] = c.Floats[i]
			}
		}
		resp.Points = append(resp.Points, GenericSeriesPoint{Date: d.String(), Values: vals})
	})
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// seriesRange parses and clips the shared from/to/step query parameters,
// reporting errors through fail (legacy routes pass http.Error, generic
// routes pass jsonError).
func (s *Server) seriesRange(q url.Values, fail func(int, string)) (from, to dates.Date, step int, ok bool) {
	var err error
	from, to = s.first, s.last
	if v := q.Get("from"); v != "" {
		if from, err = dates.Parse(v); err != nil {
			fail(http.StatusBadRequest, "bad from date")
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = dates.Parse(v); err != nil {
			fail(http.StatusBadRequest, "bad to date")
			return
		}
	}
	if from.After(to) {
		// This used to fall through and return a silently empty series,
		// indistinguishable from "row not present" — reject it instead.
		fail(http.StatusBadRequest, "from is after to")
		return
	}
	step = 1
	if v := q.Get("step"); v != "" {
		if step, err = strconv.Atoi(v); err != nil || step < 1 {
			fail(http.StatusBadRequest, "bad step")
			return
		}
	}
	if from.Before(s.first) {
		from = s.first
	}
	if to.After(s.last) {
		to = s.last
	}
	if from.After(to) { // requested window entirely outside the served range
		fail(http.StatusBadRequest, "range does not overlap the served dates")
		return
	}
	const maxPoints = 120
	if span := to.Sub(from)/step + 1; span > maxPoints {
		fail(http.StatusBadRequest, fmt.Sprintf("too many points (max %d); raise step or narrow the range", maxPoints))
		return
	}
	return from, to, step, true
}

// SeriesPoint is one day of the per-AS series response.
type SeriesPoint struct {
	Date    string  `json:"date"`
	Users   float64 `json:"users"`
	Samples int64   `json:"samples"`
}

// SeriesResponse is the /v1/series body.
type SeriesResponse struct {
	ASN     uint32        `json:"asn"`
	Country string        `json:"cc"`
	Points  []SeriesPoint `json:"points"`
}

// handleSeries serves the per-(country, AS) daily series — the view the
// paper's footnote 2 links for Bouygues Telecom on the real site. It is
// the legacy alias of /v1/apnic/series/{asn}; its response shape and
// error strings are pinned by the byte-identity tests.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("asn")
	if !strings.HasPrefix(name, "AS") {
		http.Error(w, "want /v1/series/AS<asn>", http.StatusNotFound)
		return
	}
	asn64, err := strconv.ParseUint(strings.TrimPrefix(name, "AS"), 10, 32)
	if err != nil {
		http.Error(w, "bad ASN", http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	cc := q.Get("cc")
	if cc == "" {
		http.Error(w, "missing cc parameter", http.StatusBadRequest)
		return
	}
	from, to, step, ok := s.seriesRange(q, func(code int, msg string) { http.Error(w, msg, code) })
	if !ok {
		return
	}

	resp := SeriesResponse{ASN: uint32(asn64), Country: cc}
	cells := []string{strconv.FormatUint(asn64, 10), cc}
	err = s.seriesRows(apnic.DatasetName, dates.Range(from, to, step), apnicSeriesCols, cells, func(d dates.Date, f *source.Frame, i int) {
		resp.Points = append(resp.Points, SeriesPoint{
			Date: d.String(), Users: f.Col("Estimated Users").Floats[i], Samples: f.Col("Samples").Ints[i],
		})
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// DateRange is the /v1/dates response body.
type DateRange struct {
	First string `json:"first"`
	Last  string `json:"last"`
}

func (s *Server) handleDates(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.dates)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("date")
	if !strings.HasSuffix(name, ".csv") {
		http.Error(w, "want /v1/reports/<YYYY-MM-DD>.csv", http.StatusNotFound)
		return
	}
	d, err := dates.Parse(strings.TrimSuffix(name, ".csv"))
	if err != nil {
		http.Error(w, "bad date", http.StatusBadRequest)
		return
	}
	if d.Before(s.first) || d.After(s.last) {
		http.Error(w, "date out of served range", http.StatusNotFound)
		return
	}
	a, err := s.reg.Artifact(apnic.DatasetName, d)
	var legacy source.Body
	if err == nil {
		legacy = a.Body("legacy", s.legacyCSV)
		err = legacy.Err
	}
	if err != nil {
		// The old handler swallowed err here, leaving operators with an
		// opaque 500 and no counter to alert on.
		s.renderErrs.Inc()
		if s.Log != nil {
			s.Log.Printf("render error date=%s err=%q", d, err)
		}
		http.Error(w, "report generation failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// The "legacy" repr keys its own gzip body because these bytes differ
	// from the frame-CSV codec's.
	s.serveImmutable(w, r, immutableBody{
		repr:        "legacy",
		art:         a,
		dataset:     apnic.DatasetName,
		day:         d,
		contentType: "text/csv; charset=utf-8",
		hash:        legacy.Hash,
		body:        legacy.Bytes,
		omitLen:     true,
		fail: func(code int, msg string) {
			s.renderErrs.Inc()
			http.Error(w, msg, code)
		},
	})
}

// legacyCSV renders the APNIC frame in the native report CSV layout,
// byte-identical to the generated report's WriteCSV (the frame
// conversion is lossless). Its validator is hashed from the bytes: no
// frame codec stands behind them.
func (s *Server) legacyCSV(f *source.Frame) source.Body {
	rep, err := apnic.ReportFromFrame(f)
	if err != nil {
		return source.Body{Err: err}
	}
	var b strings.Builder
	if err := s.writeCSV(rep, &b); err != nil {
		return source.Body{Err: err}
	}
	body := []byte(b.String()) // exact-size copy: the body stays resident
	return source.Body{Bytes: body, Hash: bodyHash(body)}
}

// errBodyLimit caps how much of a non-200 response body the client reads
// into an error message; errDrainLimit caps how much more it will drain
// to keep the connection reusable before giving up and closing it.
const (
	errBodyLimit  = 1 << 10
	errDrainLimit = 64 << 10
)

// maxBodyBytes caps every body a 200 response hands the client, so a
// broken or hostile server cannot make it allocate without limit. The
// largest body the server sends is the last day's apnic JSON report,
// 361,569 bytes (seed 42, 2024-12-31); the cap sits about 90x above it.
const maxBodyBytes = 32 << 20

// readBody reads a 200 response's body, rejecting a declared length
// over maxBodyBytes before reading and failing a body without one once
// it passes the cap.
func readBody(u string, resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxBodyBytes {
		return nil, fmt.Errorf("apnicweb: GET %s: body of %d bytes exceeds the %d-byte cap", u, resp.ContentLength, maxBodyBytes)
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("apnicweb: reading %s: %w", u, err)
	}
	if len(buf) > maxBodyBytes {
		return nil, fmt.Errorf("apnicweb: GET %s: body exceeds the %d-byte cap", u, maxBodyBytes)
	}
	return buf, nil
}

// Client fetches reports from a server. It retries transient failures
// (connection errors, 429, 5xx) with exponential backoff through
// obsv.RetryTransport: 4 attempts, 100ms base backoff, Retry-After
// honored, and a retry budget shared by the client's requests.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30s timeout. Its transport
	// is wrapped with the retrying transport on first use.
	HTTPClient *http.Client

	once sync.Once
	c    *http.Client
}

func (c *Client) http() *http.Client {
	c.once.Do(func() {
		base := c.HTTPClient
		if base == nil {
			base = &http.Client{Timeout: 30 * time.Second}
		}
		wrapped := *base // shallow copy so we never mutate the caller's client
		wrapped.Transport = &obsv.RetryTransport{Base: base.Transport}
		c.c = &wrapped
	})
	return c.c
}

// errorf reads a bounded snippet of a non-200 response body for the
// error message, then drains (bounded) so the connection can be reused.
// The old client closed the body unread, which killed keep-alive on
// every error response.
func errorf(u string, resp *http.Response) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
	io.Copy(io.Discard, io.LimitReader(resp.Body, errDrainLimit))
	msg := strings.TrimSpace(string(snippet))
	if msg == "" {
		return fmt.Errorf("apnicweb: GET %s: %s", u, resp.Status)
	}
	return fmt.Errorf("apnicweb: GET %s: %s: %s", u, resp.Status, msg)
}

// get issues one GET for the URL joined from BaseURL and elem, with an
// Accept header when accept is set. It returns the response only on 200,
// and the URL for error messages; any other status becomes an errorf
// error, which drains the body. The caller closes the returned body.
func (c *Client) get(ctx context.Context, accept string, elem ...string) (*http.Response, string, error) {
	u, err := url.JoinPath(c.BaseURL, elem...)
	if err != nil {
		return nil, u, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, u, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, u, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, u, errorf(u, resp)
	}
	return resp, u, nil
}

// Dates fetches the served date range.
func (c *Client) Dates(ctx context.Context) (first, last dates.Date, err error) {
	resp, u, err := c.get(ctx, "", "/v1/dates")
	if err != nil {
		return first, last, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return first, last, err
	}
	var dr DateRange
	if err := json.Unmarshal(buf, &dr); err != nil {
		return first, last, fmt.Errorf("apnicweb: decoding dates: %w", err)
	}
	if first, err = dates.Parse(dr.First); err != nil {
		return first, last, err
	}
	last, err = dates.Parse(dr.Last)
	return first, last, err
}

// Report fetches and parses one day's report.
func (c *Client) Report(ctx context.Context, d dates.Date) (*apnic.Report, error) {
	resp, u, err := c.get(ctx, "", "/v1/reports/", d.String()+".csv")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return nil, err
	}
	if err := checkETag(u, resp, func() string { return bodyHash(buf) }); err != nil {
		return nil, err
	}
	rep, err := apnic.ReadCSV(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("apnicweb: parsing %s: %w", d, err)
	}
	return rep, nil
}

// DatasetDates fetches one dataset's served range and cadence from the
// generic /v1/{dataset}/dates route.
func (c *Client) DatasetDates(ctx context.Context, dataset string) (DatasetDates, error) {
	var dd DatasetDates
	resp, u, err := c.get(ctx, "", "/v1/", dataset, "/dates")
	if err != nil {
		return dd, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return dd, err
	}
	if err := json.Unmarshal(buf, &dd); err != nil {
		return dd, fmt.Errorf("apnicweb: decoding %s dates: %w", dataset, err)
	}
	return dd, nil
}

// Frame fetches and parses one dataset-day from the generic CSV route.
func (c *Client) Frame(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.textFrame(ctx, dataset, d, ".csv", source.ReadCSV)
}

// FrameJSON fetches and parses one dataset-day from the generic JSON
// route (the bare-date representation).
func (c *Client) FrameJSON(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.textFrame(ctx, dataset, d, "", source.ReadJSON)
}

func (c *Client) textFrame(ctx context.Context, dataset string, d dates.Date, suffix string, parse func(io.Reader) (*source.Frame, error)) (*source.Frame, error) {
	resp, u, err := c.get(ctx, "", "/v1/", dataset, "/reports/", d.String()+suffix)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return nil, err
	}
	f, err := parse(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("apnicweb: parsing %s %s: %w", dataset, d, err)
	}
	return requested(u, dataset, resp, f)
}

// requested returns f if it is the requested dataset's frame and the
// content the response's ETag names. A server or proxy that answers
// with another dataset's frame, or with a body its ETag does not
// describe, is an error, not a well-formed but wrong result.
func requested(u, dataset string, resp *http.Response, f *source.Frame) (*source.Frame, error) {
	if f.Source != dataset {
		return nil, fmt.Errorf("apnicweb: GET %s: server sent a %q frame, not %q", u, f.Source, dataset)
	}
	if err := checkETag(u, resp, f.ContentHash); err != nil {
		return nil, err
	}
	return f, nil
}

// checkETag holds a 200 to its ETag: when the response carries one, the
// tag's hash part (before any "-variant" suffix) must equal hash(), the
// content hash of what the client decoded. A response without an ETag
// passes.
func checkETag(u string, resp *http.Response, hash func() string) error {
	etag := resp.Header.Get("ETag")
	if etag == "" {
		return nil
	}
	tag, _, _ := strings.Cut(strings.Trim(strings.TrimPrefix(etag, "W/"), `"`), "-")
	if want := hash(); tag != want {
		return fmt.Errorf("apnicweb: GET %s: ETag %s names other content than the body (hash %s)", u, etag, want)
	}
	return nil
}

// FrameBin fetches one dataset-day over the binary representation and
// zero-copy decodes it: the returned frame aliases the response buffer,
// so the fetch costs one body read plus a constant number of
// allocations, regardless of row count. It negotiates via the Accept
// header rather than the .bin path suffix, exercising the content-type
// route a proxying client would use.
func (c *Client) FrameBin(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.binaryFrame(ctx, dataset, d, binfmt.ContentType, binfmt.Decode)
}

// FrameBinz fetches one dataset-day over the compressed binary
// representation and decodes it. Like FrameBin it negotiates via the
// Accept header; unlike FrameBin the returned frame owns its memory
// (framez decode is self-contained), so the response buffer is garbage
// the moment decoding returns. The server never gzips this
// representation, so the body read is the wire transfer.
func (c *Client) FrameBinz(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.binaryFrame(ctx, dataset, d, framez.ContentType, framez.Decode)
}

func (c *Client) binaryFrame(ctx context.Context, dataset string, d dates.Date, contentType string, decode func([]byte) (*source.Frame, error)) (*source.Frame, error) {
	resp, u, err := c.get(ctx, contentType, "/v1/", dataset, "/reports/", d.String())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != contentType {
		return nil, fmt.Errorf("apnicweb: GET %s: server answered %q, not %q", u, ct, contentType)
	}
	buf, err := readBody(u, resp)
	if err != nil {
		return nil, err
	}
	f, err := decode(buf)
	if err != nil {
		return nil, fmt.Errorf("apnicweb: decoding %s %s: %w", dataset, d, err)
	}
	return requested(u, dataset, resp, f)
}
