package source

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dates"
	"repro/internal/obsv"
)

// countingSource counts Generate calls so tests can pin singleflight.
type countingSource struct {
	name string
	gens atomic.Int64
}

func (s *countingSource) Name() string { return s.name }

func (s *countingSource) Window() Window {
	return Window{First: SpanFirst, Last: SpanLast, Cadence: CadenceDaily}
}

func (s *countingSource) Generate(d dates.Date) *Frame {
	s.gens.Add(1)
	f := NewFrame(s.name, d)
	c := f.AddInts("Day")
	c.Ints = []int64{int64(d.DayNumber())}
	return f
}

func TestRegistryHammerSingleflight(t *testing.T) {
	src := &countingSource{name: "fake"}
	reg := NewRegistry(obsv.NewRegistry(), 30)
	reg.Register(src)

	day := dates.New(2024, 3, 9)
	const workers = 64
	var wg sync.WaitGroup
	frames := make([]*Frame, workers)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			f, err := reg.Frame("fake", day)
			if err != nil {
				t.Error(err)
				return
			}
			frames[i] = f
		}(i)
	}
	wg.Wait()

	if got := src.gens.Load(); got != 1 {
		t.Fatalf("Generate ran %d times under concurrent Frame calls; want exactly 1", got)
	}
	for i := 1; i < workers; i++ {
		if frames[i] != frames[0] {
			t.Fatalf("worker %d got a distinct frame pointer; cache did not share", i)
		}
	}
	st, ok := reg.FrameCacheStats("fake")
	if !ok {
		t.Fatal("FrameCacheStats lost the dataset")
	}
	if st.Reqs != workers || st.Gens != 1 || st.Len != 1 {
		t.Fatalf("stats = %+v; want Reqs=%d Gens=1 Len=1", st, workers)
	}
}

func TestRegistryUnknownDataset(t *testing.T) {
	reg := NewRegistry(nil, 0)
	if _, err := reg.Frame("nope", dates.New(2024, 1, 1)); !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("Frame on unknown dataset: err = %v; want ErrUnknownSource", err)
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Fatal("Lookup found an unregistered dataset")
	}
}

func TestRegistryNamesAndDuplicate(t *testing.T) {
	reg := NewRegistry(nil, 0)
	reg.Register(&countingSource{name: "b"})
	reg.Register(&countingSource{name: "a"})
	names := reg.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("Names() = %v; want registration order [b a]", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	reg.Register(&countingSource{name: "a"})
}

func TestDaysEviction(t *testing.T) {
	c := NewDays[int](nil, "test", "x", 2)
	fill := func(d dates.Date) int { return d.DayNumber() }
	d1, d2, d3 := dates.New(2024, 1, 1), dates.New(2024, 1, 2), dates.New(2024, 1, 3)
	c.Get(d1, fill)
	c.Get(d2, fill)
	c.Get(d3, fill) // evicts d1
	c.Get(d1, fill) // regenerates
	st := c.Stats()
	if st.Gens != 4 || st.Evictions < 2 || st.Len != 2 || st.Cap != 2 {
		t.Fatalf("stats = %+v; want Gens=4 Evictions>=2 Len=2 Cap=2", st)
	}
}
