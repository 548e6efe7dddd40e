package fleet

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the fleet report goldens")

// The goldens are what `go run ./cmd/fleet -seeds 2 -scenarios 3` writes
// with -out and -json; CI diffs that command's output against them too.
const (
	goldenMarkdown = "testdata/report.golden.md"
	goldenJSON     = "testdata/report.golden.json"
)

// TestReportGolden pins the fleet report for seeds 42..43 over the first
// three builtin scenarios, byte for byte, in both renderings. A change to
// either golden is a deliberate pin update (regenerate with -update).
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six worlds")
	}
	rep, err := Run(Config{SeedBase: 42, Seeds: 2, Scenarios: scenario.Builtins()[:3], Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenMarkdown, []byte(rep.Markdown()))
	checkGolden(t, goldenJSON, js)
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/fleet -run Golden -args -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the committed golden.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
