package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoMemoizes(t *testing.T) {
	var c Map[int, *int]
	var builds int
	v1, err := c.Do(1, func() (*int, error) { builds++; n := 10; return &n, nil })
	if err != nil || *v1 != 10 {
		t.Fatalf("Do = (%v, %v)", v1, err)
	}
	v2, err := c.Do(1, func() (*int, error) { builds++; n := 99; return &n, nil })
	if err != nil || v2 != v1 {
		t.Fatalf("second Do returned a different instance")
	}
	if builds != 1 {
		t.Errorf("built %d times, want 1", builds)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	var c Map[string, int]
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not surfaced: %v", err)
	}
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after error = (%d, %v), want (7, nil)", v, err)
	}
}

// TestConcurrentConverges proves racing callers of a cold key run exactly
// one build and all observe its instance.
func TestConcurrentConverges(t *testing.T) {
	var c Map[int, *int]
	var wg sync.WaitGroup
	var builds atomic.Int64
	results := make([]*int, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get(5, func() *int { builds.Add(1); n := i; return &n })
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("built %d times, want exactly 1", n)
	}
}

// TestWaiterRetriesAfterFailedBuild holds a failing build in flight while a
// second caller arrives: the second caller must not inherit the error,
// whether it waited on the failing build or came after it, but return its
// own build's value.
func TestWaiterRetriesAfterFailedBuild(t *testing.T) {
	var c Map[int, int]
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(1, func() (int, error) { close(started); <-release; return 0, boom })
		errc <- err
	}()
	<-started
	got := make(chan int, 1)
	go func() {
		v, _ := c.Do(1, func() (int, error) { return 42, nil })
		got <- v
	}()
	close(release)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("failing build returned %v", err)
	}
	if v := <-got; v != 42 {
		t.Errorf("waiter got %d, want its own build's 42", v)
	}
}

// TestPanickingBuildNotCached checks that a build panic propagates to its
// caller and leaves the key cold, so a later call builds it.
func TestPanickingBuildNotCached(t *testing.T) {
	var c Map[string, int]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic was swallowed")
			}
		}()
		c.Do("k", func() (int, error) { panic("boom") })
	}()
	if v := c.Get("k", func() int { return 3 }); v != 3 {
		t.Errorf("Get after panic = %d, want 3", v)
	}
}
