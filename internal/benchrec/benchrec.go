// Package benchrec is the record format of BENCH_sweep.json
// (cmd/benchsweep) and BENCH_load.json (cmd/loadgen): run header,
// baseline load, write, history fold and regression rule. Each writer
// keeps its own measurements, headline entry type and choice of
// comparable baseline entry.
package benchrec

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Header is the run header both records open with. Embedded in a
// writer's report type, its fields encode first and in this order.
type Header struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Seed          uint64 `json:"seed"`
}

// NewHeader stamps a header for a run starting now.
func NewHeader(seed uint64) Header {
	return Header{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          seed,
	}
}

// HistoryCap bounds the rolling trajectory carried inside a record.
const HistoryCap = 50

// LoadBaseline reads the prior record at baseline, or at out (the file
// about to be overwritten) when baseline is empty. It returns nil when
// the file is missing or does not parse: a first run, or a format
// change.
func LoadBaseline[R any](baseline, out string) *R {
	if baseline == "" {
		baseline = out
	}
	buf, err := os.ReadFile(baseline)
	if err != nil {
		return nil
	}
	var r R
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil
	}
	return &r
}

// Write writes rec to path as two-space indented JSON with a trailing
// newline.
func Write(path string, rec any) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Fold returns the history a new record carries: the baseline's history
// followed by the baseline's headline when it has one (ok), oldest
// first, keeping the HistoryCap most recent entries. The result never
// shares memory with history.
func Fold[E any](history []E, headline E, ok bool) []E {
	out := make([]E, 0, len(history)+1)
	out = append(out, history...)
	if ok {
		out = append(out, headline)
	}
	if n := len(out); n > HistoryCap {
		out = out[n-HistoryCap:]
	}
	return out
}

// Regressed is the one regression rule: got exceeds base by more than
// pct percent. It never fires when pct <= 0 (the gate is off) or when
// base <= 0 (no comparable baseline, so the trend starts here).
func Regressed(got, base, pct float64) bool {
	return pct > 0 && base > 0 && got > base*(1+pct/100)
}
