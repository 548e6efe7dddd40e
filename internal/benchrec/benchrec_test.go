package benchrec

import (
	"os"
	"path/filepath"
	"testing"
)

type record struct {
	Header
	History []int `json:"history,omitempty"`
}

// TestLoadBaseline covers the -baseline fallback to -out and the cases
// that load nothing: a missing file and one that does not parse.
func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	other := filepath.Join(dir, "other.json")
	if err := Write(out, record{Header: Header{Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := Write(other, record{Header: Header{Seed: 2}}); err != nil {
		t.Fatal(err)
	}
	if r := LoadBaseline[record]("", out); r == nil || r.Seed != 1 {
		t.Errorf("empty -baseline: loaded %+v, want the -out file", r)
	}
	if r := LoadBaseline[record](other, out); r == nil || r.Seed != 2 {
		t.Errorf("explicit -baseline: loaded %+v, want that file", r)
	}
	if r := LoadBaseline[record]("", filepath.Join(dir, "missing.json")); r != nil {
		t.Errorf("missing file loaded as %+v", r)
	}
	if err := os.WriteFile(other, []byte(`{"seed": "not a number"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if r := LoadBaseline[record](other, out); r != nil {
		t.Errorf("unparseable file loaded as %+v", r)
	}
}

// TestFoldCopies checks that a folded history never aliases the
// baseline's: appending the headline must not write into spare capacity
// of the slice it was given.
func TestFoldCopies(t *testing.T) {
	history := make([]int, 2, 8)
	got := Fold(history, 7, true)
	got[0] = 9
	if history[0] != 0 || history[:3][2] != 0 {
		t.Errorf("Fold wrote into its input: %v", history[:3])
	}
}
