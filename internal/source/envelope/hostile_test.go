package envelope_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/envelope"
	"repro/internal/source/framez"
)

// codecs are the container's two users; every test here runs against
// both, since the container is one format.
var codecs = []struct {
	name   string
	encode func(*source.Frame) ([]byte, error)
	decode func([]byte) (*source.Frame, error)
}{
	{"binfmt", binfmt.Encode, binfmt.Decode},
	{"framez", framez.Encode, framez.Decode},
}

// dayOff is the day field's offset: magic, version, flags, then the
// one-byte source name "h" with its length prefix.
const dayOff = 4 + 2 + 2 + 4 + 1

var le = binary.LittleEndian

// testFrame is a one-row frame named "h", or a column-less one.
func testFrame(day dates.Date, withCols bool) *source.Frame {
	f := source.NewFrame("h", day)
	if withCols {
		f.AddInts("I").Ints = []int64{5}
	}
	return f
}

// edit returns a copy of b changed by fn, with the checksum recomputed so
// the change reaches the checks behind it.
func edit(b []byte, fn func([]byte)) []byte {
	b = append([]byte(nil), b...)
	fn(b)
	return envelope.Seal(b[:len(b)-envelope.TrailerSize])
}

// TestDecodeRejectsHostileContainers drives one table of container
// faults through both decoders. Each must fail with an error that names
// its codec and the fault.
func TestDecodeRejectsHostileContainers(t *testing.T) {
	day := dates.New(2024, 4, 21)
	for _, c := range codecs {
		valid, err := c.encode(testFrame(day, true))
		if err != nil {
			t.Fatal(err)
		}
		bare, err := c.encode(testFrame(day, false))
		if err != nil {
			t.Fatal(err)
		}
		setDay := func(d int64) []byte {
			return edit(valid, func(b []byte) { le.PutUint64(b[dayOff:], uint64(d)) })
		}
		cases := []struct {
			name string
			in   []byte
			want string
		}{
			{"empty", nil, "shorter than the fixed header"},
			{"shorter than the fixed header", valid[:11], "shorter than the fixed header"},
			{"bad magic", func() []byte { b := append([]byte(nil), valid...); b[0] = 'X'; return b }(), "bad magic"},
			{"crc mismatch", func() []byte { b := append([]byte(nil), valid...); b[len(b)-1] ^= 0xFF; return b }(), "checksum mismatch"},
			{"future version", edit(valid, func(b []byte) { b[4] = 9 }), "unsupported version 9"},
			{"nonzero flags", edit(valid, func(b []byte) { b[6] = 1 }), "unsupported flags"},
			{"meta count past the buffer", edit(valid, func(b []byte) { le.PutUint32(b[dayOff+8:], 0xFFFFFFF0) }), "meta count exceeds buffer"},
			// rows and colN are the last header fields before the checksum.
			{"rows without columns", edit(bare, func(b []byte) { le.PutUint32(b[len(b)-12:], 3) }), "rows without columns"},
			{"trailing bytes", edit(append(append([]byte(nil), valid...), 0, 0, 0, 0), func([]byte) {}), "trailing bytes after the last column"},
			{"day past +MaxDay", setDay(envelope.MaxDay + 1), "day number out of range"},
			{"day past -MaxDay", setDay(-envelope.MaxDay - 1), "day number out of range"},
		}
		for _, tc := range cases {
			f, err := c.decode(tc.in)
			switch {
			case err == nil:
				t.Errorf("%s %s: decode accepted hostile input (frame %q)", c.name, tc.name, f.Source)
			case !strings.HasPrefix(err.Error(), c.name+": "):
				t.Errorf("%s %s: error %q does not name the codec", c.name, tc.name, err)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s %s: error %q does not mention %q", c.name, tc.name, err, tc.want)
			}
		}
	}
}

// TestDayBound pins the one day range both codecs share: a day at ±MaxDay
// round-trips, one past it fails to encode.
func TestDayBound(t *testing.T) {
	for _, c := range codecs {
		for _, d := range []int{envelope.MaxDay, -envelope.MaxDay} {
			f := testFrame(dates.FromDayNumber(d), true)
			buf, err := c.encode(f)
			if err != nil {
				t.Fatalf("%s day %d: %v", c.name, d, err)
			}
			g, err := c.decode(buf)
			if err != nil {
				t.Fatalf("%s day %d: %v", c.name, d, err)
			}
			if !f.Equal(g) {
				t.Errorf("%s day %d: frame changed across the round trip", c.name, d)
			}
		}
		for _, d := range []int{envelope.MaxDay + 1, -envelope.MaxDay - 1} {
			_, err := c.encode(testFrame(dates.FromDayNumber(d), true))
			if err == nil || !strings.Contains(err.Error(), c.name+": day number") {
				t.Errorf("%s day %d: encode error %v, want a day-range error", c.name, d, err)
			}
		}
	}
}
