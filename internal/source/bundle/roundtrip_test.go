package bundle

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/apnic"
	"repro/internal/broadband"
	"repro/internal/cdn"
	"repro/internal/dates"
	"repro/internal/dnscount"
	"repro/internal/itu"
	"repro/internal/ixp"
	"repro/internal/mlab"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
	"repro/internal/world"
)

var (
	testW   = world.MustBuild(world.Config{Seed: 11})
	testDay = dates.New(2022, 6, 15)
)

// AllDatasets is the expected roster, in registration order.
var allDatasets = []string{"apnic", "cdn", "itu", "mlab", "dnscount", "broadband", "ixp"}

// cadences is each dataset's expected publication cadence.
var cadences = map[string]string{
	"apnic":     source.CadenceDaily,
	"cdn":       source.CadenceDaily,
	"itu":       source.CadenceWeekly,
	"mlab":      source.CadenceMonthly,
	"dnscount":  source.CadenceDaily,
	"broadband": source.CadenceSurvey,
	"ixp":       source.CadenceScrape,
}

func TestBundleRoster(t *testing.T) {
	b := New(testW, 42, Config{})
	names := b.Registry.Names()
	if len(names) != len(allDatasets) {
		t.Fatalf("registry has %d datasets; want %d (%v)", len(names), len(allDatasets), names)
	}
	for i, want := range allDatasets {
		if names[i] != want {
			t.Errorf("dataset %d = %q; want %q", i, names[i], want)
		}
		src, ok := b.Registry.Lookup(want)
		if !ok {
			t.Errorf("dataset %q not registered", want)
			continue
		}
		wantW := source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: cadences[want]}
		if w := src.Window(); w != wantW {
			t.Errorf("dataset %q window = %+v; want %+v", want, w, wantW)
		}
	}
}

// TestCodecRoundTripAllSources is the cross-representation property:
// for every registered dataset on three days, each served body (CSV,
// JSON, .bin and .binz) decodes to a frame Equal to the generated one,
// with the same ContentHash, and re-encodes byte-identically. The days
// cross itu's weekly cadence (testDay and nine days later) and mlab's
// monthly one (July 1). The compressed plane must also come out smaller
// than the raw binary plane and stay memoized on the artifact; the ≥2x
// ratio itself is enforced per dataset by benchsweep's -min-binz-ratio
// gate.
func TestCodecRoundTripAllSources(t *testing.T) {
	text := func(read func(io.Reader) (*source.Frame, error)) func([]byte) (*source.Frame, error) {
		return func(b []byte) (*source.Frame, error) { return read(bytes.NewReader(b)) }
	}
	reprs := []struct {
		name   string
		body   func(*source.Artifact) ([]byte, error)
		decode func([]byte) (*source.Frame, error)
		encode func(*source.Frame) ([]byte, error)
	}{
		{"csv", func(a *source.Artifact) ([]byte, error) { return a.Frame.CSVBytes() }, text(source.ReadCSV), (*source.Frame).CSVBytes},
		{"json", func(a *source.Artifact) ([]byte, error) { return a.Frame.JSONBytes() }, text(source.ReadJSON), (*source.Frame).JSONBytes},
		{"bin", (*source.Artifact).Bin, binfmt.Decode, binfmt.Encode},
		{"binz", (*source.Artifact).Binz, framez.Decode, framez.Encode},
	}
	b := New(testW, 42, Config{})
	for _, name := range b.Registry.Names() {
		for _, day := range []dates.Date{testDay, dates.New(2022, 6, 24), dates.New(2022, 7, 1)} {
			t.Run(name+"/"+day.String(), func(t *testing.T) {
				a, err := b.Registry.Artifact(name, day)
				if err != nil {
					t.Fatal(err)
				}
				f := a.Frame
				if f.Source != name {
					t.Fatalf("frame source = %q; want %q", f.Source, name)
				}
				if f.Rows() == 0 {
					t.Fatalf("%s produced an empty frame for %s", name, day)
				}
				bodies := map[string][]byte{}
				for _, r := range reprs {
					body, err := r.body(a)
					if err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
					g, err := r.decode(body)
					if err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
					if !f.Equal(g) {
						t.Fatalf("frame changed across the %s round trip", r.name)
					}
					if h := g.ContentHash(); h != a.Hash() {
						t.Fatalf("%s frame hashes to %s; the artifact's hash is %s", r.name, h, a.Hash())
					}
					again, err := r.encode(g)
					if err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
					if !bytes.Equal(body, again) {
						t.Fatalf("re-encoded %s body is not byte-identical", r.name)
					}
					bodies[r.name] = body
				}
				if z, raw := bodies["binz"], bodies["bin"]; len(z) >= len(raw) {
					t.Fatalf("binz %d bytes is not smaller than bin %d bytes", len(z), len(raw))
				}
				resident, err := b.Registry.Artifact(name, day)
				if err != nil {
					t.Fatal(err)
				}
				if memo, err := resident.Binz(); err != nil || !bytes.Equal(memo, bodies["binz"]) {
					t.Fatalf("memoized Binz differs: %v", err)
				}
			})
		}
	}
}

// TestNativeRoundTripLossless pins each adapter's boundary conversion:
// frame → native type → frame reproduces the original frame exactly, so
// nothing the rich native types carry is lost in the columnar form.
func TestNativeRoundTripLossless(t *testing.T) {
	b := New(testW, 42, Config{})
	reframe := map[string]func(*source.Frame) (*source.Frame, error){
		"apnic": func(f *source.Frame) (*source.Frame, error) {
			r, err := apnic.ReportFromFrame(f)
			if err != nil {
				return nil, err
			}
			return r.Frame(), nil
		},
		"cdn": func(f *source.Frame) (*source.Frame, error) {
			s, err := cdn.SnapshotFromFrame(f)
			if err != nil {
				return nil, err
			}
			return s.Frame(), nil
		},
		"itu": func(f *source.Frame) (*source.Frame, error) {
			tab, err := itu.TableFromFrame(f)
			if err != nil {
				return nil, err
			}
			return tab.Frame(), nil
		},
		"mlab": func(f *source.Frame) (*source.Frame, error) {
			ds, err := mlab.DatasetFromFrame(f)
			if err != nil {
				return nil, err
			}
			return ds.Frame(), nil
		},
		"dnscount": func(f *source.Frame) (*source.Frame, error) {
			ds, err := dnscount.DatasetFromFrame(f)
			if err != nil {
				return nil, err
			}
			return ds.Frame(), nil
		},
		"broadband": func(f *source.Frame) (*source.Frame, error) {
			ds, err := broadband.DatasetFromFrame(f)
			if err != nil {
				return nil, err
			}
			return ds.Frame(), nil
		},
		"ixp": func(f *source.Frame) (*source.Frame, error) {
			s, err := ixp.SnapshotFromFrame(f)
			if err != nil {
				return nil, err
			}
			return s.Frame(), nil
		},
	}
	for _, name := range b.Registry.Names() {
		t.Run(name, func(t *testing.T) {
			rt, ok := reframe[name]
			if !ok {
				t.Fatalf("no native round trip registered for %q", name)
			}
			f, err := b.Registry.Frame(name, testDay)
			if err != nil {
				t.Fatal(err)
			}
			g, err := rt(f)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(g) {
				t.Fatal("frame -> native -> frame changed the data")
			}
		})
	}
}

// TestBundleSingleflight hammers the real registry: concurrent Frame
// calls for the same (dataset, day) must generate exactly once each.
func TestBundleSingleflight(t *testing.T) {
	b := New(testW, 42, Config{})
	const workers = 16
	var wg sync.WaitGroup
	for _, name := range b.Registry.Names() {
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := b.Registry.Frame(name, testDay); err != nil {
					t.Error(err)
				}
			}(name)
		}
	}
	wg.Wait()
	for _, name := range b.Registry.Names() {
		st, ok := b.Registry.FrameCacheStats(name)
		if !ok {
			t.Fatalf("no frame cache stats for %q", name)
		}
		if st.Gens != 1 || st.Reqs != workers {
			t.Errorf("%s: frame cache Gens=%d Reqs=%d; want 1 and %d", name, st.Gens, st.Reqs, workers)
		}
	}
}

// TestBundleDeterminism pins generation as a pure function of (world
// config, seed): two independent bundles produce byte-identical CSV.
func TestBundleDeterminism(t *testing.T) {
	w2 := world.MustBuild(world.Config{Seed: 11})
	b1 := New(testW, 42, Config{})
	b2 := New(w2, 42, Config{})
	for _, name := range b1.Registry.Names() {
		f1, err := b1.Registry.Frame(name, testDay)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := b2.Registry.Frame(name, testDay)
		if err != nil {
			t.Fatal(err)
		}
		var buf1, buf2 bytes.Buffer
		if err := f1.WriteCSV(&buf1); err != nil {
			t.Fatal(err)
		}
		if err := f2.WriteCSV(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: two same-seed bundles disagree", name)
		}
	}
}
