package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	_ "embed"
)

// digestPath is the output-check table, relative to the benchmark's own
// directory. The binary carries it, so a run does not depend on its
// working directory.
const digestPath = "testdata/digests.json"

//go:embed testdata/digests.json
var digestsJSON []byte

// digestEntry pins one sweep document. A document whose bytes do not
// depend on the explore seed apart from the "seed" header is pinned by the
// digest of its normalized form and is checked at any seed; a document
// whose points depend on the seed is pinned at seeds 1 and 2 only.
type digestEntry struct {
	Normalized string            `json:"normalized,omitempty"`
	Seeds      map[string]string `json:"seeds,omitempty"`
}

// digestTable maps a document key (see task.key) to its digests.
type digestTable map[string]digestEntry

// errNoReference reports a seed-dependent document at a seed the table
// does not pin; the caller checks it another way.
var errNoReference = errors.New("no digest pinned at this seed")

func parseDigests(b []byte) (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %w", digestPath, err)
	}
	return t, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// seedHeader is the line explore.Report.JSON writes for the base seed.
var seedHeader = []byte("\n  \"seed\": ")

// normalize returns doc with its "seed" header value replaced by 0, so
// that documents differing only in the seed they echo compare equal.
func normalize(doc []byte) []byte {
	i := bytes.Index(doc, seedHeader)
	if i < 0 {
		return doc
	}
	start := i + len(seedHeader)
	end := bytes.IndexByte(doc[start:], ',')
	if end < 0 {
		return doc
	}
	out := make([]byte, 0, len(doc))
	out = append(out, doc[:start]...)
	out = append(out, '0')
	return append(out, doc[start+end:]...)
}

// check verifies doc, produced at the given explore seed, against the
// table entry for key.
func (t digestTable) check(key string, seed int64, doc []byte) error {
	e, ok := t[key]
	if !ok {
		return fmt.Errorf("%s: no entry in %s", key, digestPath)
	}
	if e.Normalized != "" {
		if got := sha(normalize(doc)); got != e.Normalized {
			return fmt.Errorf("%s at seed %d: normalized sha256 %s, want %s", key, seed, got, e.Normalized)
		}
		return nil
	}
	want, ok := e.Seeds[strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("%s at seed %d: %w", key, seed, errNoReference)
	}
	if got := sha(doc); got != want {
		return fmt.Errorf("%s at seed %d: sha256 %s, want %s", key, seed, got, want)
	}
	return nil
}
