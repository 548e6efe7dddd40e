// Command benchsweep records the performance trajectory of the full
// experiment sweep: wall time, heap allocations, and per-runner timings
// at one or more parallelism levels, written as a JSON artifact
// (BENCH_sweep.json) that CI archives per commit so regressions show up
// as a trend rather than an anecdote.
//
// Usage:
//
//	benchsweep [-seed N] [-parallel 1,0] [-out BENCH_sweep.json] [-max-allocs N] [-max-regress-pct P] [-baseline FILE]
//
// Parallelism 0 means GOMAXPROCS. Allocation counts are runtime.MemStats
// deltas around the sweep itself — lab construction (world build) is
// excluded, matching what BenchmarkFullSweepParallel1 times. With
// -max-allocs > 0 the tool exits 1 if the first listed parallelism
// level's sweep allocates more than the budget, which is how CI gates
// allocation regressions (the budget is set ~20% above the expected
// count).
//
// The report is the benchrec record cmd/loadgen also writes. Before
// overwriting -out, the baseline's first sweep (wall time, mallocs,
// per-runner timings) joins a rolling history (most recent last, capped
// at 50 runs). With -max-regress-pct > 0 the tool exits 1 when the
// first listed level's wall time exceeds the baseline's sweep at the
// same parallelism (if it has one) by more than that percentage.
//
// The report also carries a wire-format matrix: encode/decode ns per op,
// bytes/sec, and decode allocs per op for each dataset under the csv,
// json, binary (bin), and compressed binary (binz) frame codecs, and
// four fixed codec gates that always apply (the tool exits 1 when one
// fails): maxBinDecodeAllocs gates the binary decoder's O(1) allocation
// promise; minBinSpeedup gates the binary round trip's bytes/sec
// advantage over CSV (the reason the binary data plane exists);
// maxBinzDecodeAllocs gates the compressed decoder's O(columns)
// allocation promise; minBinzRatio gates the compression win — every
// dataset's .bin body must be at least that many times the size of its
// .binz body.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchrec"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/bundle"
	"repro/internal/source/framez"
	"repro/internal/syncx"
	"repro/internal/world"
)

// RunnerTiming is one runner's wall time within a sweep.
type RunnerTiming struct {
	Name      string `json:"name"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// Sweep is the measurement of one full RunAll at a parallelism level.
type Sweep struct {
	Parallelism int   `json:"parallelism"` // as requested; 0 = GOMAXPROCS
	Workers     int   `json:"workers"`     // effective worker count
	WallNS      int64 `json:"wall_ns"`
	SerialNS    int64 `json:"serial_ns"` // sum of per-runner wall times
	Mallocs     int64 `json:"mallocs"`
	AllocBytes  int64 `json:"alloc_bytes"`

	Runners []RunnerTiming `json:"runners"`
}

// SourceTiming is one dataset's cold Generate cost through the source
// registry: a fresh bundle, one registry.Frame call, MemStats deltas
// around it. These rows track the per-dataset generation cost the same
// way the sweep rows track the experiment runners.
type SourceTiming struct {
	Name       string `json:"name"`
	ElapsedNS  int64  `json:"elapsed_ns"`
	Mallocs    int64  `json:"mallocs"`
	AllocBytes int64  `json:"alloc_bytes"`
	Rows       int    `json:"rows"`
}

// CodecTiming is one (dataset, codec) cell of the wire-format matrix:
// encode and decode cost over the dataset's primary-day frame, plus the
// decode allocation count — the number the binary plane exists to crush.
type CodecTiming struct {
	Source            string  `json:"source"`
	Codec             string  `json:"codec"` // "csv", "json", "bin", "binz"
	Bytes             int     `json:"bytes"` // encoded body size
	EncodeNSOp        int64   `json:"encode_ns_op"`
	DecodeNSOp        int64   `json:"decode_ns_op"`
	EncodeBytesPerSec float64 `json:"encode_bytes_per_sec"`
	DecodeBytesPerSec float64 `json:"decode_bytes_per_sec"`
	DecodeAllocsPerOp float64 `json:"decode_allocs_per_op"`
}

// ScenarioTiming is one scenario's full world-build cost, recorded so
// the declarative shock layer's overhead over the hard-coded paper
// world stays visible as a trend. OverheadPct is relative to the paper
// row (the paper row itself reads 0).
type ScenarioTiming struct {
	Name        string  `json:"name"`
	BuildNS     int64   `json:"build_ns"`
	Mallocs     int64   `json:"mallocs"`
	OverheadPct float64 `json:"overhead_pct"`
}

// Report is the whole BENCH_sweep.json document, a benchrec record.
type Report struct {
	benchrec.Header
	Sweeps    []Sweep          `json:"sweeps"`
	Sources   []SourceTiming   `json:"sources"`
	Codecs    []CodecTiming    `json:"codecs"`
	Scenarios []ScenarioTiming `json:"scenarios"`

	// History holds prior runs' headline sweeps, oldest first, capped at
	// benchrec.HistoryCap entries. Each new run folds the previous
	// report's first sweep in before overwriting the file.
	History []HistoryEntry `json:"history,omitempty"`
}

// HistoryEntry is one prior run's headline sweep, kept compact so the
// trajectory stays readable in diffs.
type HistoryEntry struct {
	GeneratedUnix int64          `json:"generated_unix"`
	Parallelism   int            `json:"parallelism"`
	WallNS        int64          `json:"wall_ns"`
	Mallocs       int64          `json:"mallocs"`
	Runners       []RunnerTiming `json:"runners,omitempty"`
}

// The codec gates, checked on every run.
const (
	maxBinDecodeAllocs  = 32  // binary decode allocs per op, any dataset
	minBinSpeedup       = 3   // apnic bin round trip ÷ csv round trip, bytes/sec
	maxBinzDecodeAllocs = 192 // compressed binary decode allocs per op, any dataset
	minBinzRatio        = 1.2 // bin body size ÷ binz body size, every dataset
)

func main() {
	seed := flag.Uint64("seed", 42, "world seed")
	parallel := flag.String("parallel", "1,0", "comma-separated parallelism levels (0 = GOMAXPROCS)")
	out := flag.String("out", "BENCH_sweep.json", "output path")
	maxAllocs := flag.Int64("max-allocs", 0, "fail if the first level's sweep allocates more than this (0 = no gate)")
	maxRegress := flag.Float64("max-regress-pct", 0,
		"fail if the first level's wall time regresses more than this percent vs the baseline (0 = no gate)")
	baseline := flag.String("baseline", "", "baseline report for the regression gate and history (default: the -out path before overwrite)")
	flag.Parse()

	var levels []int
	for _, f := range strings.Split(*parallel, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 0 {
			fmt.Fprintf(os.Stderr, "bad -parallel entry %q\n", f)
			os.Exit(2)
		}
		levels = append(levels, p)
	}

	// Load the baseline before the measured run so the gate and history
	// survive -out pointing at the file about to be overwritten.
	base := benchrec.LoadBaseline[Report](*baseline, *out)
	rep := &Report{Header: benchrec.NewHeader(*seed)}
	rep.foldHistory(base)

	for _, p := range levels {
		s := measure(*seed, p)
		rep.Sweeps = append(rep.Sweeps, s)
		fmt.Fprintf(os.Stderr, "parallel=%d (workers=%d): wall=%s serial=%s mallocs=%d alloc=%s\n",
			s.Parallelism, s.Workers, time.Duration(s.WallNS), time.Duration(s.SerialNS),
			s.Mallocs, fmtBytes(s.AllocBytes))
	}

	// One bundle serves both matrices: the sources rows time each
	// dataset's cold first Frame, which leaves the registry warm for the
	// codec rows.
	b := bundle.New(world.MustBuild(world.Config{Seed: *seed}), *seed, bundle.Config{})
	rep.Sources = measureSources(b)
	for _, st := range rep.Sources {
		fmt.Fprintf(os.Stderr, "source %-10s: generate=%s rows=%d mallocs=%d alloc=%s\n",
			st.Name, time.Duration(st.ElapsedNS), st.Rows, st.Mallocs, fmtBytes(st.AllocBytes))
	}

	rep.Codecs = measureCodecs(b)
	for _, ct := range rep.Codecs {
		fmt.Fprintf(os.Stderr, "codec  %-10s %-4s: %8s enc=%s/op dec=%s/op dec=%s/s allocs/dec=%.0f\n",
			ct.Source, ct.Codec, fmtBytes(int64(ct.Bytes)), time.Duration(ct.EncodeNSOp),
			time.Duration(ct.DecodeNSOp), fmtBytes(int64(ct.DecodeBytesPerSec)), ct.DecodeAllocsPerOp)
	}

	rep.Scenarios = measureScenarios(*seed)
	for _, st := range rep.Scenarios {
		fmt.Fprintf(os.Stderr, "scenario %-14s: build=%s mallocs=%d overhead=%+.1f%%\n",
			st.Name, time.Duration(st.BuildNS), st.Mallocs, st.OverheadPct)
	}

	if err := benchrec.Write(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *maxAllocs > 0 && rep.Sweeps[0].Mallocs > *maxAllocs {
		fmt.Fprintf(os.Stderr, "allocation budget exceeded: %d > %d at parallelism %d\n",
			rep.Sweeps[0].Mallocs, *maxAllocs, rep.Sweeps[0].Parallelism)
		os.Exit(1)
	}
	if err := wallGate(rep, base, *maxRegress); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := checkCodecs(rep.Codecs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// foldHistory carries the baseline's trajectory into rep (see
// benchrec.Fold). The baseline's headline is its first sweep; a nil
// baseline leaves the history as it is.
func (rep *Report) foldHistory(base *Report) {
	if base == nil {
		return
	}
	var head HistoryEntry
	if len(base.Sweeps) > 0 {
		s := base.Sweeps[0]
		head = HistoryEntry{
			GeneratedUnix: base.GeneratedUnix,
			Parallelism:   s.Parallelism,
			WallNS:        s.WallNS,
			Mallocs:       s.Mallocs,
			Runners:       s.Runners,
		}
	}
	rep.History = benchrec.Fold(base.History, head, len(base.Sweeps) > 0)
}

// wallGate applies benchrec.Regressed to the first listed level's wall
// time. The comparable baseline is the baseline's sweep at the same
// parallelism; without one the gate is off.
func wallGate(rep, base *Report, pct float64) error {
	if base == nil {
		return nil
	}
	got := rep.Sweeps[0]
	i := slices.IndexFunc(base.Sweeps, func(s Sweep) bool { return s.Parallelism == got.Parallelism })
	if i < 0 {
		return nil
	}
	if b := base.Sweeps[i]; benchrec.Regressed(float64(got.WallNS), float64(b.WallNS), pct) {
		return fmt.Errorf("wall-time regression at parallelism %d: %s vs baseline %s (+%.0f%% budget)",
			got.Parallelism, time.Duration(got.WallNS), time.Duration(b.WallNS), pct)
	}
	return nil
}

// checkCodecs applies the four codec gates to the wire-format matrix and
// returns the first failure.
func checkCodecs(codecs []CodecTiming) error {
	size := map[string]map[string]int{}
	for _, ct := range codecs {
		if ct.Codec == "bin" && ct.DecodeAllocsPerOp > maxBinDecodeAllocs {
			return fmt.Errorf("binary decode alloc budget exceeded for %s: %.1f > %d allocs/op",
				ct.Source, ct.DecodeAllocsPerOp, maxBinDecodeAllocs)
		}
		if ct.Codec == "binz" && ct.DecodeAllocsPerOp > maxBinzDecodeAllocs {
			return fmt.Errorf("compressed binary decode alloc budget exceeded for %s: %.1f > %d allocs/op",
				ct.Source, ct.DecodeAllocsPerOp, maxBinzDecodeAllocs)
		}
		if size[ct.Source] == nil {
			size[ct.Source] = map[string]int{}
		}
		size[ct.Source][ct.Codec] = ct.Bytes
	}

	// Size ratio per dataset: the compressed plane must beat the raw
	// binary body everywhere, by at least minBinzRatio. The floor is set
	// by the least compressible dataset (itu: one column of full-entropy
	// float64 mantissas bounds its lossless ratio near 1.3x; the other
	// six sit between 2x and 5x).
	for src, byCodec := range size {
		bin, binz := byCodec["bin"], byCodec["binz"]
		if bin == 0 || binz == 0 {
			return fmt.Errorf("binz ratio gate: missing bin/binz row for %s", src)
		}
		if ratio := float64(bin) / float64(binz); ratio < minBinzRatio {
			return fmt.Errorf("binz compression gate failed for %s: bin/binz = %.2fx < %.2fx (%d vs %d bytes)",
				src, ratio, minBinzRatio, bin, binz)
		}
	}

	// Round-trip throughput for the hottest dataset: encoded bytes over
	// the combined encode+decode time. The binary plane's reason to exist
	// is this ratio staying comfortably above 1.
	roundTrip := func(codec string) float64 {
		for _, ct := range codecs {
			if ct.Source == "apnic" && ct.Codec == codec && ct.EncodeNSOp+ct.DecodeNSOp > 0 {
				return float64(ct.Bytes) / (float64(ct.EncodeNSOp+ct.DecodeNSOp) / 1e9)
			}
		}
		return 0
	}
	if csvRT, binRT := roundTrip("csv"), roundTrip("bin"); csvRT <= 0 || binRT < minBinSpeedup*csvRT {
		return fmt.Errorf("binary speedup gate failed: bin round trip %s/s vs csv %s/s (want >= %dx)",
			fmtBytes(int64(binRT)), fmtBytes(int64(csvRT)), minBinSpeedup)
	}
	return nil
}

// measure runs one full sweep on a fresh lab and returns its accounting.
// The lab (world build) is constructed before the measured region so the
// numbers isolate the sweep, like the benchmarks do.
func measure(seed uint64, parallelism int) Sweep {
	lab := experiments.NewLab(seed)
	runners := experiments.Runners()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	recs := experiments.RunAll(lab, runners, parallelism, nil)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	s := Sweep{
		Parallelism: parallelism,
		Workers:     syncx.Workers(len(runners), parallelism),
		WallNS:      wall.Nanoseconds(),
		SerialNS:    experiments.TotalElapsed(recs).Nanoseconds(),
		Mallocs:     int64(after.Mallocs - before.Mallocs),
		AllocBytes:  int64(after.TotalAlloc - before.TotalAlloc),
	}
	for _, r := range recs {
		s.Runners = append(s.Runners, RunnerTiming{Name: r.Runner.Name, ElapsedNS: r.Elapsed.Nanoseconds()})
	}
	return s
}

// measureSources times one cold Generate per registered dataset through
// the registry's frame path on a fresh bundle. Each dataset's first
// Frame call is what's timed, so the rows record generation cost, not
// cache hits.
func measureSources(b *bundle.Bundle) []SourceTiming {
	var out []SourceTiming
	for _, name := range b.Registry.Names() {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		f, err := b.Registry.Frame(name, experiments.PrimaryCDNDay)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: source %s: %v\n", name, err)
			os.Exit(1)
		}
		out = append(out, SourceTiming{
			Name:       name,
			ElapsedNS:  elapsed.Nanoseconds(),
			Mallocs:    int64(after.Mallocs - before.Mallocs),
			AllocBytes: int64(after.TotalAlloc - before.TotalAlloc),
			Rows:       f.Rows(),
		})
	}
	return out
}

// measureScenarios times a full world.Build under the paper scenario
// and one representative counterfactual, so the cost of routing every
// shock through the declarative scenario layer is a recorded trend, not
// a guess. Builds are slow enough (hundreds of ms) that a small fixed
// iteration count is adequate resolution for the percent-level question
// this row answers.
func measureScenarios(seed uint64) []ScenarioTiming {
	const iters = 3
	roster := []*scenario.Scenario{scenario.Paper()}
	if cg, ok := scenario.ByName("cgnat-wave"); ok {
		roster = append(roster, cg)
	}

	var out []ScenarioTiming
	for _, scn := range roster {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := world.Build(world.Config{Seed: seed, Scenario: scn}); err != nil {
				fmt.Fprintf(os.Stderr, "benchsweep: scenario %s: %v\n", scn.Name, err)
				os.Exit(1)
			}
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		st := ScenarioTiming{
			Name:    scn.Name,
			BuildNS: elapsed.Nanoseconds() / iters,
			Mallocs: int64(after.Mallocs-before.Mallocs) / iters,
		}
		if len(out) > 0 && out[0].BuildNS > 0 {
			st.OverheadPct = 100 * (float64(st.BuildNS)/float64(out[0].BuildNS) - 1)
		}
		out = append(out, st)
	}
	return out
}

// frameCodec pairs an encode and decode path for one wire format so the
// codec matrix treats csv, json, and bin uniformly. Encoders produce a
// fresh body per op (what the server's cache-fill path pays); decoders
// parse a shared immutable body (what clients pay).
type frameCodec struct {
	name   string
	encode func(*source.Frame) ([]byte, error)
	decode func([]byte) (*source.Frame, error)
}

var frameCodecs = []frameCodec{
	{"csv",
		func(f *source.Frame) ([]byte, error) {
			var buf bytes.Buffer
			err := f.WriteCSV(&buf)
			return buf.Bytes(), err
		},
		func(b []byte) (*source.Frame, error) { return source.ReadCSV(bytes.NewReader(b)) }},
	{"json",
		func(f *source.Frame) ([]byte, error) {
			var buf bytes.Buffer
			err := f.WriteJSON(&buf)
			return buf.Bytes(), err
		},
		func(b []byte) (*source.Frame, error) { return source.ReadJSON(bytes.NewReader(b)) }},
	{"bin", binfmt.Encode, binfmt.Decode},
	{"binz", framez.Encode, framez.Decode},
}

// measureCodecs fills the wire-format matrix: for every dataset's
// primary-day frame, time encode and decode for each codec. The frame
// comes from a warm registry so only serialization is measured.
func measureCodecs(b *bundle.Bundle) []CodecTiming {
	var out []CodecTiming
	for _, name := range b.Registry.Names() {
		f, err := b.Registry.Frame(name, experiments.PrimaryCDNDay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: source %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, c := range frameCodecs {
			body, err := c.encode(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsweep: %s %s encode: %v\n", name, c.name, err)
				os.Exit(1)
			}
			encNS, _, err := timeOp(func() error { _, err := c.encode(f); return err })
			if err == nil {
				var decNS int64
				var decAllocs float64
				decNS, decAllocs, err = timeOp(func() error { _, err := c.decode(body); return err })
				if err == nil {
					out = append(out, CodecTiming{
						Source:            name,
						Codec:             c.name,
						Bytes:             len(body),
						EncodeNSOp:        encNS,
						DecodeNSOp:        decNS,
						EncodeBytesPerSec: perSec(len(body), encNS),
						DecodeBytesPerSec: perSec(len(body), decNS),
						DecodeAllocsPerOp: decAllocs,
					})
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsweep: %s %s: %v\n", name, c.name, err)
				os.Exit(1)
			}
		}
	}
	return out
}

// timeOp runs op in a loop for at least 30ms (and 8 iterations) and
// returns mean ns/op and allocs/op from MemStats deltas over the loop.
func timeOp(op func() error) (int64, float64, error) {
	const minDur = 30 * time.Millisecond
	const minIters = 8
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	iters := 0
	for {
		if err := op(); err != nil {
			return 0, 0, err
		}
		iters++
		if iters >= minIters && time.Since(t0) >= minDur {
			break
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	ns := elapsed.Nanoseconds() / int64(iters)
	if ns < 1 {
		ns = 1
	}
	return ns, float64(after.Mallocs-before.Mallocs) / float64(iters), nil
}

func perSec(bytes int, nsOp int64) float64 {
	if nsOp <= 0 {
		return 0
	}
	return float64(bytes) / (float64(nsOp) / 1e9)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
