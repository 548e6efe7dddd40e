package source

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dates"
	"repro/internal/obsv"
)

func testArtifact(t *testing.T) (*Registry, *Artifact) {
	t.Helper()
	reg := NewRegistry(obsv.NewRegistry(), 4)
	reg.Register(&countingSource{name: "fake"})
	a, err := reg.Artifact("fake", dates.New(2024, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	return reg, a
}

// TestArtifactBodyOncePerRepr: concurrent callers of one representation
// share one render; distinct names render independently; a render error
// is memoized like bytes.
func TestArtifactBodyOncePerRepr(t *testing.T) {
	_, a := testArtifact(t)
	var renders atomic.Int64
	render := func(f *Frame) Body {
		renders.Add(1)
		return Body{Bytes: []byte(f.Source), Hash: "h"}
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b := a.Body("x", render); string(b.Bytes) != "fake" || b.Hash != "h" {
				t.Errorf("Body = %+v", b)
			}
		}()
	}
	wg.Wait()
	if n := renders.Load(); n != 1 {
		t.Fatalf("render ran %d times under concurrent callers, want 1", n)
	}
	a.Body("y", render)
	if n := renders.Load(); n != 2 {
		t.Fatalf("a second representation rendered %d times in total, want 2", n)
	}

	boom := errors.New("boom")
	fail := func(*Frame) Body {
		renders.Add(1)
		return Body{Err: boom}
	}
	for i := 0; i < 2; i++ {
		if b := a.Body("bad", fail); !errors.Is(b.Err, boom) {
			t.Fatalf("Body err = %v", b.Err)
		}
	}
	if n := renders.Load(); n != 3 {
		t.Fatalf("a failed render was retried: %d renders, want 3", n)
	}
}

// TestArtifactCodecs: Bin and Binz encode with the registry's codec once,
// read the codec at fill time, and report a missing codec unmemoized.
func TestArtifactCodecs(t *testing.T) {
	reg, a := testArtifact(t)
	if _, err := a.Bin(); !errors.Is(err, ErrNoBinCodec) {
		t.Fatalf("Bin without codec: %v", err)
	}
	if _, err := a.Binz(); !errors.Is(err, ErrNoBinzCodec) {
		t.Fatalf("Binz without codec: %v", err)
	}
	var calls atomic.Int64
	codec := func(tag string) BinCodec {
		return func(f *Frame) ([]byte, error) {
			calls.Add(1)
			return []byte(tag), nil
		}
	}
	// Injected after the artifact exists: the codec is read at fill time.
	reg.SetBinCodec(codec("bin"))
	reg.SetBinzCodec(codec("binz"))
	for i := 0; i < 3; i++ {
		if b, err := a.Bin(); err != nil || string(b) != "bin" {
			t.Fatalf("Bin = %q, %v", b, err)
		}
		same, err := reg.Artifact("fake", a.Frame.Date)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := same.Binz(); err != nil || string(b) != "binz" {
			t.Fatalf("Binz = %q, %v", b, err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("codecs ran %d times, want once each", n)
	}
	if a.Hash() != a.Frame.ContentHash() {
		t.Fatal("Hash differs from the frame's content hash")
	}
}

// TestArtifactEvictedWithDay: an evicted day comes back as a new
// artifact, with none of the old parts.
func TestArtifactEvictedWithDay(t *testing.T) {
	src := &countingSource{name: "fake"}
	reg := NewRegistry(obsv.NewRegistry(), 1)
	reg.Register(src)
	d1, d2 := dates.New(2024, 3, 9), dates.New(2024, 3, 10)
	a, _ := reg.Artifact("fake", d1)
	a.Body("x", func(*Frame) Body { return Body{Bytes: []byte("old")} })
	reg.Artifact("fake", d2) // evicts d1
	b, _ := reg.Artifact("fake", d1)
	if b == a {
		t.Fatal("evicted day returned the old artifact")
	}
	filled := false
	b.Body("x", func(*Frame) Body { filled = true; return Body{} })
	if !filled {
		t.Fatal("a refilled day kept a representation of the evicted artifact")
	}
	if got := src.gens.Load(); got != 3 {
		t.Fatalf("Generate ran %d times, want 3", got)
	}
}

// TestArtifactDigitTableOnce: concurrent first text encodes of one
// artifact share one digit table, every encode matches the frame's
// per-cell render byte for byte, and a warm encode builds nothing: it
// allocates no more than the per-cell render does.
func TestArtifactDigitTableOnce(t *testing.T) {
	f := wideTextFrame(2000)
	var wantCSV, wantJSON bytes.Buffer
	if err := f.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Frame: f}
	users := slices.IndexFunc(f.Cols, func(c *Column) bool { return c.Name == "Users" })
	const workers = 32
	tables := make([]*floatDigits, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			var got bytes.Buffer
			write, want := a.WriteCSV, wantCSV.Bytes()
			if i%2 == 1 {
				write, want = a.WriteJSON, wantJSON.Bytes()
			}
			if err := write(&got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("worker %d: artifact render differs from the per-cell render", i)
			}
			tables[i] = &a.digitTable()[users][0]
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("worker %d saw a second digit table; concurrent encodes must share one build", i)
		}
	}

	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	for name, c := range map[string]struct{ artifact, frame func(io.Writer) error }{
		"csv":  {a.WriteCSV, f.WriteCSV},
		"json": {a.WriteJSON, f.WriteJSON},
	} {
		allocs := func(write func(io.Writer) error) float64 {
			return testing.AllocsPerRun(20, func() {
				if err := write(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		if warm, perCell := allocs(c.artifact), allocs(c.frame); warm > perCell {
			t.Errorf("%s: warm artifact encode allocates %v, per-cell render %v; the table was rebuilt", name, warm, perCell)
		}
	}
}
