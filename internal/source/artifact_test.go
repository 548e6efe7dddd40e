package source

import (
	"bytes"
	"errors"
	"runtime"
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

// TestArtifactWeakBodySharedRender: concurrent callers of one weak
// body share one render, even with a collection while it runs; once
// rendered, the body is served without rendering while callers hold it
// across another collection; and the bytes are the frame's exact-size
// render.
func TestArtifactWeakBodySharedRender(t *testing.T) {
	f := wideTextFrame(2000)
	want, err := f.CSVBytes()
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Frame: f}
	var renders atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	render := func(f *Frame) ([]byte, error) {
		if renders.Add(1) == 1 {
			close(started)
			<-release
		}
		return f.CSVBytes()
	}
	const workers = 32
	got := make([][]byte, workers) // held until the end: the body stays reachable
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			b, err := a.WeakBody("csv", render)
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}(i)
	}
	<-started
	runtime.GC()
	close(release)
	wg.Wait()
	runtime.GC()
	if b, _ := a.WeakBody("csv", render); !bytes.Equal(b, want) {
		t.Fatal("a held body was not served back")
	}
	if n := renders.Load(); n != 1 {
		t.Fatalf("%d renders for %d concurrent callers of a held body, want 1", n, workers+1)
	}
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Fatalf("worker %d: weak body differs from the frame's render", i)
		}
	}
	runtime.KeepAlive(got)
}

// TestArtifactWeakBodyDroppedByGC: a weak body nobody holds is gone
// after a collection, and the next call renders it again,
// byte-identical. A strong Body of the same name is a separate part.
func TestArtifactWeakBodyDroppedByGC(t *testing.T) {
	a := &Artifact{Frame: wideTextFrame(500)}
	var renders atomic.Int64
	render := func(f *Frame) ([]byte, error) {
		renders.Add(1)
		return f.JSONBytes()
	}
	fetch := func() []byte {
		b, err := a.WeakBody("json", render)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(b)
	}
	first := fetch()
	if n := renders.Load(); n != 1 {
		t.Fatalf("first fetch rendered %d times", n)
	}
	runtime.GC()
	if again := fetch(); !bytes.Equal(again, first) {
		t.Fatal("the re-rendered body differs from the first render")
	}
	if n := renders.Load(); n != 2 {
		t.Fatalf("after a collection with no holder: %d renders, want 2", n)
	}
	if b := a.Body("json", func(*Frame) Body { return Body{Bytes: []byte("strong")} }); string(b.Bytes) != "strong" {
		t.Fatalf("Body(json) = %q; strong and weak bodies must not share a slot", b.Bytes)
	}
}

// TestArtifactWeakBodyErrorNotKept: a failed render is returned to its
// caller and never memoized, so the next call renders again; an empty
// body is not kept either.
func TestArtifactWeakBodyErrorNotKept(t *testing.T) {
	a := &Artifact{Frame: wideTextFrame(10)}
	var renders atomic.Int64
	boom := errors.New("boom")
	fail := func(*Frame) ([]byte, error) {
		renders.Add(1)
		return nil, boom
	}
	for i := 0; i < 2; i++ {
		if _, err := a.WeakBody("csv", fail); !errors.Is(err, boom) {
			t.Fatalf("WeakBody err = %v, want the render's", err)
		}
	}
	ok := func(f *Frame) ([]byte, error) {
		renders.Add(1)
		return f.CSVBytes()
	}
	held, err := a.WeakBody("csv", ok)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := a.WeakBody("csv", fail); !bytes.Equal(b, held) {
		t.Fatal("a held body was rendered again")
	}
	if n := renders.Load(); n != 3 {
		t.Fatalf("%d renders, want 2 failed and 1 kept", n)
	}
	empty := func(*Frame) ([]byte, error) {
		renders.Add(1)
		return []byte{}, nil
	}
	a.WeakBody("empty", empty)
	a.WeakBody("empty", empty)
	if n := renders.Load(); n != 5 {
		t.Fatalf("an empty body was kept: %d renders, want 5", n)
	}
	runtime.KeepAlive(held)
}
