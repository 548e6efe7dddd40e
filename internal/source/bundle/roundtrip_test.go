package bundle

import (
	"bytes"
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

// TestCodecRoundTripAllSources is the table-driven codec suite: for every
// registered dataset, Generate → WriteCSV → ReadCSV reproduces an equal
// frame and a re-serialize is byte-identical; likewise for JSON.
func TestCodecRoundTripAllSources(t *testing.T) {
	b := New(testW, 42, Config{})
	for _, name := range b.Registry.Names() {
		t.Run(name, func(t *testing.T) {
			f, err := b.Registry.Frame(name, testDay)
			if err != nil {
				t.Fatal(err)
			}
			if f.Source != name {
				t.Fatalf("frame source = %q; want %q", f.Source, name)
			}
			if f.Rows() == 0 {
				t.Fatalf("%s produced an empty frame for %s", name, testDay)
			}

			var csv1 bytes.Buffer
			if err := f.WriteCSV(&csv1); err != nil {
				t.Fatal(err)
			}
			g, err := source.ReadCSV(bytes.NewReader(csv1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(g) {
				t.Fatal("frame changed across CSV round trip")
			}
			var csv2 bytes.Buffer
			if err := g.WriteCSV(&csv2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
				t.Fatal("re-serialized CSV is not byte-identical")
			}

			var json1 bytes.Buffer
			if err := f.WriteJSON(&json1); err != nil {
				t.Fatal(err)
			}
			h, err := source.ReadJSON(bytes.NewReader(json1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(h) {
				t.Fatal("frame changed across JSON round trip")
			}
			var json2 bytes.Buffer
			if err := h.WriteJSON(&json2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(json1.Bytes(), json2.Bytes()) {
				t.Fatal("re-serialized JSON is not byte-identical")
			}
		})
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

// TestBinzRoundTripAllSources runs the compressed binary codec over
// every registered dataset through the registry's memoized path: the
// decoded frame must equal the generated one cell-for-cell, re-encode
// byte-identically (the canonical-format invariant), and come out
// strictly smaller than the raw binary plane — the ≥2x ratio itself is
// enforced per dataset by benchsweep's -min-binz-ratio gate.
func TestBinzRoundTripAllSources(t *testing.T) {
	b := New(testW, 42, Config{})
	for _, name := range b.Registry.Names() {
		t.Run(name, func(t *testing.T) {
			a, err := b.Registry.Artifact(name, testDay)
			if err != nil {
				t.Fatal(err)
			}
			f := a.Frame
			z, err := a.Binz()
			if err != nil {
				t.Fatal(err)
			}
			g, err := framez.Decode(z)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(g) {
				t.Fatal("frame changed across compressed binary round trip")
			}
			again, err := framez.Encode(g)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(z, again) {
				t.Fatal("re-encoded compressed bytes differ")
			}
			raw, err := a.Bin()
			if err != nil {
				t.Fatal(err)
			}
			if len(z) >= len(raw) {
				t.Fatalf("binz %d bytes is not smaller than bin %d bytes", len(z), len(raw))
			}
			resident, err := b.Registry.Artifact(name, testDay)
			if err != nil {
				t.Fatal(err)
			}
			if memo, err := resident.Binz(); err != nil || !bytes.Equal(memo, z) {
				t.Fatalf("memoized Binz differs: %v", err)
			}
		})
	}
}
