package source_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/bundle"
	"repro/internal/world"
)

// textCodecs pairs each frame text encoder with its encoding/csv or
// encoding/json reference.
var textCodecs = []struct {
	name       string
	write, ref func(*source.Frame, io.Writer) error
}{
	{"csv", (*source.Frame).WriteCSV, source.RefWriteCSV},
	{"json", (*source.Frame).WriteJSON, source.RefWriteJSON},
}

// sampleDays spans the served window: its edges, the pandemic onset,
// the Russia ad pause, and a mid-2022 day.
var sampleDays = []dates.Date{
	source.SpanFirst,
	dates.New(2020, 3, 15),
	dates.New(2022, 3, 10),
	dates.New(2022, 6, 15),
	source.SpanLast,
}

// TestTextEncodersMatchReferenceAllDatasets is the differential table
// test over real frames: for every dataset and sample day, WriteCSV and
// WriteJSON produce the reference encoders' exact bytes.
func TestTextEncodersMatchReferenceAllDatasets(t *testing.T) {
	b := bundle.New(world.MustBuild(world.Config{Seed: 11}), 42, bundle.Config{})
	for _, name := range b.Registry.Names() {
		for _, d := range sampleDays {
			f, err := b.Registry.Frame(name, d)
			if err != nil {
				t.Fatalf("%s %s: %v", name, d, err)
			}
			for _, c := range textCodecs {
				var got, want bytes.Buffer
				if err := c.write(f, &got); err != nil {
					t.Fatalf("%s %s %s: %v", name, d, c.name, err)
				}
				if err := c.ref(f, &want); err != nil {
					t.Fatalf("%s %s %s reference: %v", name, d, c.name, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s %s %s: %d bytes, reference %d bytes; bodies differ",
						name, d, c.name, got.Len(), want.Len())
				}
			}
		}
	}
}

// BenchmarkFrameText times one render of each dataset's frame per codec
// into io.Discard, for the encoders and for their references ("-ref"),
// so the per-call speedup can be re-measured on any machine:
//
//	go test ./internal/source -run '^$' -bench FrameText -benchmem
func BenchmarkFrameText(b *testing.B) {
	bn := bundle.New(world.MustBuild(world.Config{Seed: 11}), 42, bundle.Config{})
	for _, name := range bn.Registry.Names() {
		f, err := bn.Registry.Frame(name, dates.New(2022, 6, 15))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range textCodecs {
			for _, v := range []struct {
				suffix string
				write  func(*source.Frame, io.Writer) error
			}{{"", c.write}, {"-ref", c.ref}} {
				b.Run(name+"/"+c.name+v.suffix, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := v.write(f, io.Discard); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
