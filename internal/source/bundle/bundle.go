// Package bundle assembles the seven dataset simulators into one
// source.Registry. The source package cannot import the simulators (they
// import it for their Frame conversions), so this is the single place the
// full roster is wired together: dataset names, cadences, frame codecs,
// caching and metrics for every registry that serves the roster.
package bundle

import (
	"repro/internal/apnic"
	"repro/internal/broadband"
	"repro/internal/cdn"
	"repro/internal/dnscount"
	"repro/internal/itu"
	"repro/internal/ixp"
	"repro/internal/mlab"
	"repro/internal/obsv"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
	"repro/internal/world"
)

// Config tunes the bundle. Zero value is usable: a private metrics
// registry and source.DefaultCacheDays per dataset.
type Config struct {
	Metrics   *obsv.Registry
	CacheDays int
}

// Bundle is the assembled roster.
type Bundle struct {
	Registry *source.Registry
}

// New builds the seven sources over one world and registers them all.
// Generation is deterministic in (w, seed): two bundles with the same
// inputs produce byte-identical frames.
func New(w *world.World, seed uint64, cfg Config) *Bundle {
	reg := source.NewRegistry(cfg.Metrics, cfg.CacheDays)
	// The binary frame codecs live above source (binfmt and framez both
	// import it), so this is the one place the registry learns to encode
	// frames; every consumer built from the bundle can then serve both
	// Artifact.Bin and Artifact.Binz.
	reg.SetBinCodec(binfmt.Encode)
	reg.SetBinzCodec(framez.Encode)
	ituEst := itu.New(w, seed)
	reg.Register(apnic.NewSource(apnic.New(w, ituEst, seed)))
	reg.Register(cdn.NewSource(cdn.New(w, seed)))
	reg.Register(itu.NewSource(ituEst))
	reg.Register(mlab.NewSource(mlab.New(w, seed)))
	reg.Register(dnscount.NewSource(dnscount.New(w, seed)))
	reg.Register(broadband.NewSource(broadband.New(w, seed)))
	reg.Register(ixp.NewSource(ixp.New(w, seed)))
	return &Bundle{Registry: reg}
}
