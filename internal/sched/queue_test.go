package sched

import (
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"

	"gridqr/internal/telemetry"
)

func mkJob(seq int64, prio int) *Job {
	return &Job{
		spec:   JobSpec{Kind: KindTSQR, M: 64, N: 4, Priority: prio},
		id:     seq,
		seq:    seq,
		submit: time.Now(),
		done:   make(chan struct{}),
	}
}

// expire makes j's queue deadline already passed, deterministically.
func expire(j *Job) {
	j.spec.Deadline = time.Nanosecond
	j.submit = time.Now().Add(-time.Hour)
}

func TestQueuePriorityAndFIFO(t *testing.T) {
	q := newQueue(func(*Job, error) {}, new(telemetry.Gauge))
	for i, prio := range []int{0, 5, 0, 5, 1} {
		q.push(mkJob(int64(i), prio))
	}
	var order []int64
	for {
		j, ok := q.pop()
		if !ok {
			break
		}
		order = append(order, j.seq)
	}
	want := []int64{1, 3, 4, 0, 2} // priority desc, FIFO within
	if !slices.Equal(order, want) {
		t.Fatalf("pop order %v, want %v", order, want)
	}
}

func TestQueueDropsExpired(t *testing.T) {
	var dropped []error
	q := newQueue(func(_ *Job, err error) { dropped = append(dropped, err) }, new(telemetry.Gauge))
	e := mkJob(0, 0)
	expire(e)
	live := mkJob(1, 0)
	for _, j := range []*Job{e, live} {
		q.push(j)
	}
	j, ok := q.pop()
	if !ok || j.seq != 1 {
		t.Fatalf("pop returned %v, want live job", j)
	}
	if len(dropped) != 1 || !errors.Is(dropped[0], ErrDeadlineExceeded) {
		t.Fatalf("drops %v, want [deadline]", dropped)
	}
}

func TestQueuePopMatch(t *testing.T) {
	q := newQueue(func(*Job, error) {}, new(telemetry.Gauge))
	a := mkJob(0, 0)
	b := mkJob(1, 3)
	c := mkJob(2, 0)
	b.spec.N = 8 // incompatible shape
	for _, j := range []*Job{a, b, c} {
		q.push(j)
	}
	j, ok := q.popMatch(func(o *Job) bool { return o.spec.N == 4 })
	if !ok || j.seq != 0 {
		t.Fatalf("popMatch got seq %d, want 0", j.seq)
	}
	if _, ok := q.popMatch(func(o *Job) bool { return o.spec.N == 99 }); ok {
		t.Fatal("popMatch matched nothing yet returned a job")
	}
	if q.len() != 2 {
		t.Fatalf("len %d after one matched pop, want 2", q.len())
	}
}

// FuzzAdmission drives a partition queue with a random sequence of
// pushes (random priority, some already expired), expiries, pops and
// matched pops, against a model of its contents.
// Every pop must drop exactly the dead jobs (typed) ordered before the
// first live candidate and return that candidate, in priority-then-FIFO
// order; every job completes exactly once (a double complete panics on
// the closed done channel), and the depth gauge tracks the length.
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0x01, 0xc0, 0x03})
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x01, 0xa0, 0xa0, 0xa0})
	f.Add([]byte{0xff, 0x00, 0x3f, 0x7f, 0xbf})
	f.Add([]byte{0x03, 0x05, 0x42, 0x26, 0x61, 0x83, 0xa0, 0xc1, 0xe0, 0xa0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		expired := map[*Job]bool{}
		deadErr := func(j *Job) error {
			if expired[j] {
				return ErrDeadlineExceeded
			}
			return nil
		}
		var drops []*Job
		depth := new(telemetry.Gauge)
		q := newQueue(func(j *Job, err error) {
			if want := deadErr(j); want == nil || !errors.Is(err, want) {
				t.Fatalf("job %d dropped with %v, want %v", j.seq, err, want)
			}
			drops = append(drops, j)
			j.complete(JobResult{Err: err}) // panics if completed twice
		}, depth)

		var all, queued []*Job // queued models q's contents
		// take checks one pop against the model and applies it: the pop
		// drops the dead matches ordered before the first live one and
		// returns that one (none when no match is live).
		take := func(match func(*Job) bool, got *Job, ok bool) {
			t.Helper()
			cand := slices.DeleteFunc(slices.Clone(queued), func(j *Job) bool { return !match(j) })
			slices.SortFunc(cand, func(a, b *Job) int {
				return cmp.Or(cmp.Compare(b.spec.Priority, a.spec.Priority), cmp.Compare(a.seq, b.seq))
			})
			var want *Job
			n := slices.IndexFunc(cand, func(j *Job) bool { return deadErr(j) == nil })
			if n < 0 {
				n = len(cand)
			} else {
				want = cand[n]
			}
			if !slices.Equal(drops, cand[:n]) {
				t.Fatalf("dropped %d jobs, want %d", len(drops), n)
			}
			if ok != (want != nil) || got != want {
				t.Fatalf("pop returned %v (ok=%v), want %v", got, ok, want)
			}
			gone := append(cand[:n:n], cand[n:min(n+1, len(cand))]...)
			queued = slices.DeleteFunc(queued, func(j *Job) bool { return slices.Contains(gone, j) })
			drops = nil
			if ok {
				got.complete(JobResult{}) // panics if completed twice
			}
		}
		var seq int64
		for _, op := range ops {
			switch op >> 5 {
			case 0, 1, 2: // push; op 2 pushes an already-expired job
				j := mkJob(seq, int(op&0x3))
				seq++
				if op>>5 == 2 {
					expire(j)
					expired[j] = true
				}
				q.push(j)
				all = append(all, j)
				queued = append(queued, j)
			case 3, 4: // expire a queued job
				if len(queued) > 0 {
					j := queued[int(op&0x1f)%len(queued)]
					expire(j)
					expired[j] = true
				}
			case 5, 6: // pop
				j, ok := q.pop()
				take(func(*Job) bool { return true }, j, ok)
			case 7: // steal: pop the best job of one seq parity
				match := func(j *Job) bool { return j.seq&1 == int64(op&1) }
				j, ok := q.popMatch(match)
				take(match, j, ok)
			}
			if q.len() != len(queued) || depth.Value() != float64(len(queued)) {
				t.Fatalf("queue len %d, depth %v, want %d", q.len(), depth.Value(), len(queued))
			}
		}
		// Drain: every job must come out exactly once, as a pop or a drop.
		for len(queued) > 0 {
			j, ok := q.pop()
			take(func(*Job) bool { return true }, j, ok)
		}
		if j, ok := q.pop(); ok {
			t.Fatalf("pop invented job %d", j.seq)
		}
		for _, j := range all {
			select {
			case <-j.done:
			default:
				t.Fatalf("job %d pushed but never completed", j.seq)
			}
		}
	})
}
