package ecc

import (
	"math"
	"math/rand"
	"testing"
)

// next reads one Uint64 from the stream the way sample does: refill at the
// buffer's end, then advance.
func (s *lfgStream) next() uint64 {
	if s.pos >= lfgLen {
		s.refill()
		s.pos = 0
	}
	v := s.buf[s.pos]
	s.pos++
	return v
}

// TestLFGStreamMatchesMathRand pins the in-place continuation to math/rand
// draw for draw across several refills, for seeds that exercise
// rngSource.Seed's edge handling: zero, negatives and a multiple of
// 2^31-1 (which Seed reduces to zero).
func TestLFGStreamMatchesMathRand(t *testing.T) {
	const draws = 4*lfgLen + 11
	for _, seed := range []int64{0, 1, 42, -1, -987654321, 2 * (1<<31 - 1), math.MinInt64, math.MaxInt64, shardSeed(3, 2)} {
		var s lfgStream
		s.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < draws; k++ {
			if got, want := s.next(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, k, got, want)
			}
		}
	}
}

// sliceSource is a rand.Source64 that replays fixed values, so rand.Float64
// can be fed crafted draws.
type sliceSource struct {
	vals []uint64
	i    int
}

func (s *sliceSource) Uint64() uint64 { v := s.vals[s.i]; s.i++; return v }
func (s *sliceSource) Int63() int64   { return int64(s.Uint64() & int63Mask) }
func (s *sliceSource) Seed(int64)     { panic("sliceSource: Seed") }

// sampledMask runs one n-qubit trial of sample on s and returns the error
// mask it built. sample reports only fault counts, so each candidate mask
// m is probed on a copy of s with a decoder whose fault bitset holds m
// alone; exactly one probe reports a fault.
func sampledMask(t *testing.T, s *lfgStream, n int, p float64) uint64 {
	t.Helper()
	found, hits := uint64(0), 0
	for m := uint64(0); m < 1<<uint(n); m++ {
		d := &bitDecoder{faultSet: make([]uint64, (1<<uint(n)+63)/64)}
		d.faultSet[m>>6] |= 1 << (m & 63)
		probe := *s
		if d.sample(n, p, 1, &probe) == 1 {
			found, hits = m, hits+1
		}
	}
	if hits != 1 {
		t.Fatalf("%d candidate masks matched one trial, want 1", hits)
	}
	(&bitDecoder{faultSet: make([]uint64, (1<<uint(n)+63)/64)}).sample(n, p, 1, s)
	return found
}

// TestSampleMatchesFloat64OnEdgeDraws loads the stream with crafted draws
// on each side of the two integer boundaries sample relies on — the
// rand.Float64 resample point and the threshold below(p) — and checks
// every decision against rand.Float64() < p over the same values, for
// single-qubit trials (one decision each) and 3-qubit trials (whose fast
// path meets a resample mid-trial).
func TestSampleMatchesFloat64OnEdgeDraws(t *testing.T) {
	for _, p := range []float64{0, 1e-4, 1e-3, 3e-2, 0.5, 0.999, 1, 2, -1, math.Inf(1), math.NaN()} {
		thr := below(p)
		edges := []uint64{roundsToOne - 1, roundsToOne, 1<<63 - 1, 0, 1}
		if thr > 0 {
			edges = append(edges, thr-1)
		}
		edges = append(edges, thr, thr+1)
		var vals []uint64
		for i, x := range edges {
			if x >= 1<<63 {
				continue
			}
			// Alternate the top bit: Int63 clears it, so it must not
			// change a decision.
			vals = append(vals, x|uint64(i&1)<<63)
		}
		vals = append(vals, roundsToOne, 2, roundsToOne+7, 1<<63|3)
		for _, n := range []int{1, 3} {
			var s lfgStream
			copy(s.buf[:], vals)
			ref := rand.New(&sliceSource{vals: vals})
			for trial := 0; ; trial++ {
				left := 0
				for _, v := range vals[s.pos:] {
					if v&int63Mask < roundsToOne {
						left++
					}
				}
				if left < n {
					break
				}
				var want uint64
				for q := 0; q < n; q++ {
					if ref.Float64() < p {
						want |= 1 << uint(q)
					}
				}
				if got := sampledMask(t, &s, n, p); got != want {
					t.Fatalf("p=%g n=%d trial %d: sample drew mask %b, rand.Float64 gives %b", p, n, trial, got, want)
				}
			}
		}
	}
}
