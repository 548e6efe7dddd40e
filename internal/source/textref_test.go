package source

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// The reference text encoders: the frame codecs as they were written on
// top of encoding/csv and encoding/json. WriteCSV and WriteJSON must
// produce exactly these bytes; the differential tests and FuzzFrameText
// compare against them. They are exported (in a test file only) so the
// external-package dataset table test can use them too.

// RefWriteCSV renders f through encoding/csv.
func RefWriteCSV(f *Frame, w io.Writer) error {
	if err := f.Check(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	meta := make([]string, 0, 4+2*len(f.Meta))
	meta = append(meta, csvMagic, f.Source, "date", f.Date.String())
	for _, kv := range f.Meta {
		meta = append(meta, kv[0], kv[1])
	}
	if err := cw.Write(meta); err != nil {
		return err
	}
	header := make([]string, len(f.Cols))
	for i := range f.Cols {
		header[i] = f.Cols[i].Name + ":" + f.Cols[i].Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(f.Cols))
	for r := 0; r < f.Rows(); r++ {
		for i := range f.Cols {
			rec[i] = f.Cols[i].Cell(r)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RefWriteJSON renders f through json.Marshal per column and a
// json.Encoder over the frameJSON wire shape.
func RefWriteJSON(f *Frame, w io.Writer) error {
	if err := f.Check(); err != nil {
		return err
	}
	out := frameJSON{
		Source: f.Source,
		Date:   f.Date.String(),
		Rows:   f.Rows(),
		Meta:   f.Meta,
	}
	for _, c := range f.Cols {
		var vals any
		switch c.Kind {
		case String:
			vals = c.Strs
		case Int:
			vals = c.Ints
		default:
			vals = c.Floats
		}
		raw, err := json.Marshal(vals)
		if err != nil {
			return fmt.Errorf("source: encoding column %q: %w", c.Name, err)
		}
		out.Columns = append(out.Columns, columnJSON{Name: c.Name, Kind: c.Kind.String(), Values: raw})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
