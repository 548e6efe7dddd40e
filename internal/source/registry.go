package source

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dates"
	"repro/internal/obsv"
)

// ErrUnknownSource is returned when a dataset name is not registered.
var ErrUnknownSource = errors.New("source: unknown dataset")

// ErrNoBinCodec is returned by Artifact.Bin when no binary codec has
// been injected with SetBinCodec.
var ErrNoBinCodec = errors.New("source: no binary frame codec registered")

// ErrNoBinzCodec is returned by Artifact.Binz when no compressed binary
// codec has been injected with SetBinzCodec.
var ErrNoBinzCodec = errors.New("source: no compressed binary frame codec registered")

// BinCodec serializes a frame into its binary wire form. The registry
// cannot import binfmt or framez (both import this package for Frame),
// so the codecs are injected at wiring time — bundle.New hands in
// binfmt.Encode and framez.Encode.
type BinCodec func(*Frame) ([]byte, error)

// DefaultCacheDays bounds each dataset's artifact cache when no capacity
// is given: a year of days per dataset, which covers the usual serving
// window while keeping a multi-year scan from growing the process without
// limit.
const DefaultCacheDays = 365

// Registry resolves dataset names to sources and memoizes one Artifact
// per (dataset, day) with singleflight fills — the HTTP server's single
// day cache, with memoization and metrics uniform across all seven
// datasets.
type Registry struct {
	metrics  *obsv.Registry
	capacity int

	mu      sync.RWMutex
	names   []string // registration order
	entries map[string]*regEntry
	bin     BinCodec
	binz    BinCodec
}

type regEntry struct {
	src  Source
	days *Days[*Artifact]
}

// NewRegistry returns a registry whose per-dataset artifact caches hold
// at most cacheDays days each (DefaultCacheDays when cacheDays < 1). A
// nil metrics registry gets a private one.
func NewRegistry(metrics *obsv.Registry, cacheDays int) *Registry {
	if metrics == nil {
		metrics = obsv.NewRegistry()
	}
	if cacheDays < 1 {
		cacheDays = DefaultCacheDays
	}
	return &Registry{
		metrics:  metrics,
		capacity: cacheDays,
		entries:  map[string]*regEntry{},
	}
}

// Register adds a source under its name. Registering a duplicate name is
// a programming error and panics.
func (r *Registry) Register(s Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := s.Name()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("source: duplicate registration of dataset %q", name))
	}
	// The artifact cache keeps the "source_frame" metrics family: every
	// artifact is a frame plus what is derived from it.
	r.entries[name] = &regEntry{src: s, days: NewDays[*Artifact](r.metrics, "source_frame", name, r.capacity)}
	r.names = append(r.names, name)
}

// Names returns the registered dataset names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// Lookup returns the source registered under name.
func (r *Registry) Lookup(name string) (Source, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.src, true
}

func (r *Registry) entry(name string) (*regEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Artifact returns the resident artifact for one dataset-day, generating
// its frame at most once while the day stays resident even under
// concurrent callers, and marks the day most recently used. Everything
// derived from the day hangs off the artifact and is evicted with it.
func (r *Registry) Artifact(name string, d dates.Date) (*Artifact, error) {
	return r.artifact(name, d, false)
}

// Frame returns the shared, read-only frame for one dataset-day as a
// cold read (Days.GetCold), for callers that touch each day once: a
// series over many days or a batch export displaces at most one
// resident day instead of the hot set.
func (r *Registry) Frame(name string, d dates.Date) (*Frame, error) {
	a, err := r.artifact(name, d, true)
	if err != nil {
		return nil, err
	}
	return a.Frame, nil
}

func (r *Registry) artifact(name string, d dates.Date, cold bool) (*Artifact, error) {
	e, ok := r.entry(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSource, name)
	}
	fill := func(d dates.Date) *Artifact { return &Artifact{Frame: e.src.Generate(d), reg: r} }
	if cold {
		return e.days.GetCold(d, fill), nil
	}
	return e.days.Get(d, fill), nil
}

// SetBinCodec injects the binary frame codec Artifact.Bin encodes with.
func (r *Registry) SetBinCodec(codec BinCodec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bin = codec
}

// SetBinzCodec injects the compressed binary frame codec Artifact.Binz
// encodes with.
func (r *Registry) SetBinzCodec(codec BinCodec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.binz = codec
}

// codecs returns the injected codecs. Artifacts read them at fill time,
// so a codec swapped in after construction encodes every later fill.
func (r *Registry) codecs() (bin, binz BinCodec) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bin, r.binz
}

// FrameCacheStats returns the artifact cache activity for one dataset.
func (r *Registry) FrameCacheStats(name string) (CacheStats, bool) {
	e, ok := r.entry(name)
	if !ok {
		return CacheStats{}, false
	}
	return e.days.Stats(), true
}
