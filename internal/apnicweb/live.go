package apnicweb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/apnic"
	"repro/internal/dates"
)

// LiveSource is the seam between the server and a streaming estimator:
// Snapshot returns the newest rolling day, a revision that changes
// whenever the estimate changes (the ETag base), the assembled report,
// and ok=false while no data has arrived yet. stream.RollingEstimator
// satisfies it; the interface lives here so the serving layer does not
// depend on the pipeline package.
type LiveSource interface {
	Snapshot() (d dates.Date, rev uint64, rep *apnic.Report, ok bool)
}

// SetLive attaches a live estimator behind GET /v1/live/{country}. Safe
// to call at any time, including while serving; a nil source detaches.
func (s *Server) SetLive(src LiveSource) {
	s.liveMu.Lock()
	s.live = src
	s.liveMu.Unlock()
}

func (s *Server) liveSource() LiveSource {
	s.liveMu.RLock()
	defer s.liveMu.RUnlock()
	return s.live
}

// liveState is the mutex'd live attachment; embedded in Server.
type liveState struct {
	liveMu sync.RWMutex
	live   LiveSource
}

// LiveRow is one AS of a live per-country estimate. Ranks are global
// (across all countries), matching the batch dataset's rank column.
type LiveRow struct {
	Rank    int     `json:"rank"`
	ASN     uint32  `json:"asn"`
	ASName  string  `json:"as_name"`
	Users   float64 `json:"users"`
	PctCC   float64 `json:"pct_country"`
	Samples int64   `json:"samples"`
}

// LiveResponse is the GET /v1/live/{country} body: the streaming
// estimator's current rolling-window estimate for one country. Unlike
// the dated report routes this resource mutates as the stream drains,
// so it carries a revision-derived ETag and no-cache semantics instead
// of the immutable day contract.
type LiveResponse struct {
	Country  string    `json:"cc"`
	Date     string    `json:"date"`
	Window   int       `json:"window"`
	Revision uint64    `json:"revision"`
	Rows     []LiveRow `json:"rows"`
}

// handleLive serves the live rolling estimate for one country. 400
// unless the country is two ASCII letters; 503 until a stream is attached
// and has observed data; 304 on a matching revision ETag, so pollers pay
// nothing while the stream is quiet.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	// The country goes into the ETag verbatim, so it must be validated
	// first: a quote would make the tag invalid and a comma would split it
	// in etagMatch.
	cc := r.PathValue("cc")
	if !isCountryCode(cc) {
		jsonError(w, http.StatusBadRequest, "country must be two ASCII letters")
		return
	}
	cc = strings.ToUpper(cc)
	src := s.liveSource()
	if src == nil {
		jsonError(w, http.StatusServiceUnavailable, "no live stream attached")
		return
	}
	d, rev, rep, ok := src.Snapshot()
	if !ok {
		jsonError(w, http.StatusServiceUnavailable, "live estimator has no data yet")
		return
	}
	// The validator names (day, revision, country): the snapshot promises
	// rep was assembled at exactly rev, so equal tags mean equal bytes.
	etag := fmt.Sprintf(`"live-%s-%d-%d"`, cc, d.DayNumber(), rev)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "no-cache")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	if r.Method == http.MethodHead {
		// The headers are the whole answer: skip building the rows.
		w.WriteHeader(http.StatusOK)
		return
	}
	resp := LiveResponse{Country: cc, Date: d.String(), Window: rep.Window, Revision: rev}
	for _, row := range rep.Rows {
		if row.CC != cc {
			continue
		}
		resp.Rows = append(resp.Rows, LiveRow{
			Rank:    row.Rank,
			ASN:     row.ASN,
			ASName:  row.ASName,
			Users:   row.Users,
			PctCC:   row.PctCountry,
			Samples: row.Samples,
		})
	}
	json.NewEncoder(w).Encode(resp)
}

// isCountryCode reports whether cc is two ASCII letters, either case.
// It checks bytes, not runes: strings.ToUpper maps some non-ASCII letters
// (U+017F, U+0131) onto ASCII ones.
func isCountryCode(cc string) bool {
	if len(cc) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		if c := cc[i] | 0x20; c < 'a' || c > 'z' {
			return false
		}
	}
	return true
}
