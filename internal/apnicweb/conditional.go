package apnicweb

// Conditional GETs and response compression for the report routes.
//
// Every dataset-day is a pure function of (seed, date): once generated
// its bytes never change, which makes the report routes ideal for strong
// validators. The server derives an ETag from the frame's content hash
// (internal/source's ContentHash — computable from the in-memory frame
// without rendering a body, and memoized on the day's registry
// artifact), suffixed by the representation variant ("csv", "csv.gz",
// "json", ...) so a strong tag never aliases two different byte streams.
// The legacy CSV's tag is hashed from its body instead (bodyHash).
// If-None-Match is evaluated with the RFC 9110 weak comparison (W/
// prefixes ignored, "*" matches anything), so a 304 costs one artifact
// lookup and zero rendering.
//
// Compression is negotiated from Accept-Encoding (q-values honored).
// A gzip body is rendered once per representation into the day's
// artifact, under its ETag variant, and evicted with the day. It is
// always compressed from the identity body, never from a live client
// stream, so a client that disconnects mid-response can never poison it
// with a truncated body. Identity CSV/JSON bodies are held weakly
// instead (see serveImmutable in apnicweb.go): their memory is the
// collector's to reclaim, and a dropped body renders again.

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// etagMatch reports whether any entity tag in an If-None-Match header
// value matches etag, using the weak comparison If-None-Match requires
// (RFC 9110 §13.1.2): W/ prefixes are ignored on both sides and "*"
// matches any current representation. A missing header never matches.
func etagMatch(ifNoneMatch, etag string) bool {
	ifNoneMatch = strings.TrimSpace(ifNoneMatch)
	if ifNoneMatch == "" {
		return false
	}
	if ifNoneMatch == "*" {
		return true
	}
	want := strings.TrimPrefix(etag, "W/")
	// Our tags are quoted hex with no embedded commas, so a comma split is
	// an exact field separation for any list a client can echo back.
	for _, tag := range strings.Split(ifNoneMatch, ",") {
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == want {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request's Accept-Encoding header
// permits a gzip-coded response. A member naming gzip (or x-gzip)
// decides on its own, wherever it appears in the list: per RFC 9110
// §12.5.3 "*" only covers codings the header does not name, so
// "*, gzip;q=0" refuses gzip. Without a named member, a "*" whose
// q-value is not zero accepts it. An absent header means identity only
// — proxies that strip Accept-Encoding must get uncompressed bytes.
func acceptsGzip(acceptEncoding string) bool {
	wildcard := false
	for _, part := range strings.Split(acceptEncoding, ",") {
		coding, params, _ := strings.Cut(part, ";")
		q, ok := qValue(params)
		refused := ok && q == 0
		switch strings.ToLower(strings.TrimSpace(coding)) {
		case "gzip", "x-gzip":
			return !refused
		case "*":
			wildcard = wildcard || !refused
		}
	}
	return wildcard
}

// acceptsFrameBin reports whether the request's Accept header asks for
// the binary frame representation: an application/x-frame-bin member
// whose q-value is not zero. The wildcard types text routes default to
// (*/*, application/*) deliberately do NOT select binary — a browser
// must keep getting JSON; only a client that names the media type opts
// into the binary plane.
func acceptsFrameBin(accept string) bool {
	return acceptsMediaType(accept, binfmt.ContentType)
}

// acceptsFrameBinz is the same opt-in for the compressed binary
// representation (application/x-frame-binz). A client naming both frame
// media types gets binz: it asked for the denser plane.
func acceptsFrameBinz(accept string) bool {
	return acceptsMediaType(accept, framez.ContentType)
}

func acceptsMediaType(accept, want string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(mediaType), want) {
			continue
		}
		if q, ok := qValue(params); ok && q == 0 {
			return false // explicit refusal
		}
		return true
	}
	return false
}

// qValue parses the q parameter out of an Accept-Encoding member's
// parameter string (";q=0.5"). Returns ok=false when no q is present
// (which HTTP treats as q=1).
func qValue(params string) (float64, bool) {
	for _, p := range strings.Split(params, ";") {
		k, v, found := strings.Cut(strings.TrimSpace(p), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || q < 0 {
			return 1, true // malformed q: keep the coding acceptable
		}
		return q, true
	}
	return 0, false
}

// bodyHash returns the content hash of an already-rendered body, in the
// same hex shape as source.Frame.ContentHash, for routes (the legacy
// APNIC CSV) whose canonical artifact is the byte body rather than a
// frame.
func bodyHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:16])
}
