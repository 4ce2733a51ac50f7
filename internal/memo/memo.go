// Package memo provides the one concurrency-safe memoization shape the
// compiled-workload pipeline uses everywhere: look up under a lock, build
// outside it, and share the built value with every caller. Builds are
// single-flight: the first caller of a cold key builds it while later
// callers wait for that build, so each key is built once however many
// workers ask for it at the same time. sched's per-plan makespan memo and
// arch's per-plan simulation memo are instances of this Map.
package memo

import (
	"errors"
	"sync"
)

// Map is a lazily-initialized, mutex-guarded memo table. The zero value
// is ready to use, so it embeds in structs without a constructor.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

// entry is one key's value; done closes when its build has finished.
type entry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errPanicked marks an entry whose build panicked, for the callers that
// were waiting on it.
var errPanicked = errors.New("memo: build panicked")

// Do returns the memoized value for k, invoking build on first use. The
// lock is never held across build: the first caller of a cold key installs
// an in-flight entry and builds, and concurrent callers wait for it and
// share its value. A failed (or panicking) build removes its entry and is
// returned without caching, so a later call retries; callers that were
// waiting on it retry too, each returning its own build's error.
func (c *Map[K, V]) Do(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	for {
		e, ok := c.m[k]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-e.done
		if e.err == nil {
			return e.v, nil
		}
		c.mu.Lock()
	}
	if c.m == nil {
		c.m = make(map[K]*entry[V])
	}
	e := &entry[V]{done: make(chan struct{}), err: errPanicked}
	c.m[k] = e
	c.mu.Unlock()

	defer func() {
		if e.err != nil {
			c.mu.Lock()
			delete(c.m, k)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	v, err := build()
	if err != nil {
		e.err = err
		var zero V
		return zero, err
	}
	e.v, e.err = v, nil
	return v, nil
}

// Get returns the memoized value for k from an infallible builder.
func (c *Map[K, V]) Get(k K, build func() V) V {
	v, _ := c.Do(k, func() (V, error) { return build(), nil })
	return v
}
