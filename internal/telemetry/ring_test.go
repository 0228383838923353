package telemetry

import (
	"reflect"
	"sync"
	"testing"
)

// span fabricates a minimal compute span for ring tests.
func span(rank int, i int) Span {
	return Span{Rank: rank, Kind: SpanCompute, Name: "k", Start: float64(i),
		End: float64(i) + 0.5, Peer: -1, Link: LinkNone, FlowSeq: -1, Flops: float64(i)}
}

// feed offers n spans to one rank.
func feed(r *Ring, rank, n int) {
	for i := 0; i < n; i++ {
		r.Add(span(rank, i))
	}
}

// TestRingWraparound pins the head/tail policy: with head H and
// capacity C, a stream of n spans retains exactly spans [0,H) plus the
// last C, in order.
func TestRingWraparound(t *testing.T) {
	r := NewRing(1, RingConfig{Capacity: 4, Head: 2})
	feed(r, 0, 10)
	got := r.Snapshot(0).Track(0)
	var want []Span
	for _, i := range []int{0, 1, 6, 7, 8, 9} {
		want = append(want, span(0, i))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retained spans = %v, want %v", got, want)
	}
	st := r.Stats()
	if st.Seen != 10 || st.Retained != 6 {
		t.Fatalf("stats = %+v, want seen 10 retained 6", st)
	}

	// The tail export keeps only the most recent N per rank.
	tail := r.Snapshot(3).Track(0)
	if !reflect.DeepEqual(tail, want[3:]) {
		t.Fatalf("tail(3) = %v, want %v", tail, want[3:])
	}
}

// TestRingBoundedAtManyRanks floods 4096 shards far past capacity and
// checks the retained-span bound holds exactly.
func TestRingBoundedAtManyRanks(t *testing.T) {
	const ranks, perRank = 4096, 500
	r := NewRing(ranks, RingConfig{Capacity: 16, Head: 4})
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			feed(r, rank, perRank)
		}(rank)
	}
	wg.Wait()
	st := r.Stats()
	if st.Seen != ranks*perRank {
		t.Fatalf("seen %d, want %d", st.Seen, ranks*perRank)
	}
	if st.Bound != ranks*(16+4) || st.Retained > st.Bound {
		t.Fatalf("retained %d of bound %d, want bound %d", st.Retained, st.Bound, ranks*20)
	}
	if st.Retained != ranks*(16+4) {
		t.Fatalf("retained %d, want full bound %d", st.Retained, ranks*20)
	}
}

// TestRingConcurrentSnapshot races per-rank writers against live
// Snapshot/Stats readers; run under -race this is the collector's
// thread-safety proof.
func TestRingConcurrentSnapshot(t *testing.T) {
	const ranks = 8
	r := NewRing(ranks, RingConfig{Capacity: 32, Head: 8})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Add(span(rank, i))
				if i%16 == 0 {
					r.BeginPhase(rank, "p", float64(i))
					r.EndPhase(rank, float64(i)+1)
				}
			}
		}(rank)
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot(10)
		for rank := 0; rank < ranks; rank++ {
			if n := len(snap.Track(rank)); n > 10 {
				t.Errorf("tail snapshot rank %d holds %d spans", rank, n)
			}
		}
		_ = r.Stats()
	}
	close(stop)
	wg.Wait()
}

// TestRingPhases: phases survive in the ring once closed, and an
// unmatched EndPhase panics like the full trace.
func TestRingPhases(t *testing.T) {
	r := NewRing(1, RingConfig{Capacity: 8, Head: 1})
	r.BeginPhase(0, "tree", 0)
	r.Add(span(0, 1))
	r.EndPhase(0, 5)
	spans := r.Snapshot(0).Track(0)
	var phase *Span
	for i := range spans {
		if spans[i].Kind == SpanPhase {
			phase = &spans[i]
		}
	}
	if phase == nil || phase.Name != "tree" || phase.End != 5 {
		t.Fatalf("phase span missing or wrong: %+v", spans)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EndPhase without BeginPhase did not panic")
		}
	}()
	r.EndPhase(0, 6)
}
