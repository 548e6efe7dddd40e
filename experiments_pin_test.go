package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestExperimentsMarkdownPinned re-renders the seed-42 sweep exactly as
// `go run ./cmd/experiments -md EXPERIMENTS.md` does and demands the
// committed EXPERIMENTS.md byte for byte: every printed result of every
// runner is pinned, so a change that moves one shows up here.
func TestExperimentsMarkdownPinned(t *testing.T) {
	want, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	recs := experiments.RunAll(lab(), experiments.Runners(), 0, nil)
	results := make([]*experiments.Result, len(recs))
	for i, rec := range recs {
		results[i] = rec.Result
	}
	var got bytes.Buffer
	if err := experiments.WriteMarkdown(&got, 42, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("EXPERIMENTS.md differs from a fresh seed-42 render; if the change is deliberate, "+
			"regenerate with `go run ./cmd/experiments -md EXPERIMENTS.md`.\n%s",
			firstLineDiff(got.String(), string(want), 3))
	}
}

// firstLineDiff describes the first line where got and want differ,
// with up to context lines on either side of it.
func firstLineDiff(got, want string, context int) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d:\n", i+1)
	side := func(label string, lines []string) {
		fmt.Fprintf(&b, "--- %s ---\n", label)
		for j := max(0, i-context); j < min(len(lines), i+context+1); j++ {
			mark := " "
			if j == i {
				mark = ">"
			}
			fmt.Fprintf(&b, "%s %4d | %s\n", mark, j+1, lines[j])
		}
	}
	side("rendered", g)
	side("committed EXPERIMENTS.md", w)
	return b.String()
}
