package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/explore"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from the current code")

// pinnedTasks lists every document the benchmark checks, by digest key:
// the sweeps of the batch workloads, the serve-mix miss sweeps on both
// engines, and the serve-mix circuits.
func pinnedTasks(t *testing.T) map[string]task {
	t.Helper()
	tasks := make(map[string]task)
	for _, w := range []string{"paper-analytic", "des-sweeps", "mc-fast"} {
		ts, err := batchTasks(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range ts {
			tasks[tk.key()] = tk
		}
	}
	for _, name := range missSweeps {
		e, err := explore.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range arch.EngineNames() {
			tk := task{exp: e, engine: engine}
			tasks[tk.key()] = tk
		}
	}
	for _, b := range circuitBodies() {
		e, err := circuitExperiment(b.text)
		if err != nil {
			t.Fatal(err)
		}
		tasks[b.key()] = task{exp: e, engine: arch.EngineAnalytic}
	}
	return tasks
}

// circuitExperiment is the experiment the server builds for a circuit body.
func circuitExperiment(body string) (*explore.Experiment, error) {
	c, err := circuit.ParseString(body)
	if err != nil {
		return nil, err
	}
	return explore.CircuitExperiment("request", c)
}

// entryFor builds the table entry of one document from its renderings at
// seeds 1 and 2: one normalized digest when the two agree after
// normalization, otherwise one digest per seed.
func entryFor(doc1, doc2 []byte) digestEntry {
	n1, n2 := sha(normalize(doc1)), sha(normalize(doc2))
	if n1 == n2 {
		return digestEntry{Normalized: n1}
	}
	return digestEntry{Seeds: map[string]string{"1": sha(doc1), "2": sha(doc2)}}
}

// TestDigests recomputes the output-check table from the code and
// compares it with the checked-in one. A deliberate change to any pinned
// document fails here until the table is regenerated with -update, in a
// change of its own.
func TestDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every pinned document at two seeds")
	}
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	got := make(digestTable)
	for key, tk := range pinnedTasks(t) {
		var docs [2][]byte
		for i, seed := range []int64{1, 2} {
			doc, err := runTask(ctx, tk, seed, workers, nil)
			if err != nil {
				t.Fatalf("%s at seed %d: %v", key, seed, err)
			}
			docs[i] = doc
		}
		got[key] = entryFor(docs[0], docs[1])
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := parseDigests(digestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: computed %+v, %s has %+v", k, got[k], digestPath, want[k])
		}
	}
}
