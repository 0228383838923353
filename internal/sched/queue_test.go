package sched

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"gridqr/internal/telemetry"
)

func mkJob(seq int64) *Job {
	return &Job{
		spec:   JobSpec{Kind: KindTSQR, M: 64, N: 4},
		id:     seq,
		seq:    seq,
		submit: time.Now(),
		done:   make(chan struct{}),
	}
}

func bySeq(a, b *Job) int { return cmp.Compare(a.seq, b.seq) }

// TestQueueAdmissionOrder: jobs pushed out of admission order — as
// requeued retries and preempted resumes are — pop in seq order.
func TestQueueAdmissionOrder(t *testing.T) {
	q := newQueue(new(telemetry.Gauge))
	for _, seq := range []int64{3, 0, 4, 1, 2} {
		q.push(mkJob(seq))
	}
	var order []int64
	for {
		j, ok := q.pop(nil)
		if !ok {
			break
		}
		order = append(order, j.seq)
	}
	if want := []int64{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("pop order %v, want %v", order, want)
	}
}

func TestQueuePopMatch(t *testing.T) {
	q := newQueue(new(telemetry.Gauge))
	a := mkJob(0)
	b := mkJob(1)
	c := mkJob(2)
	a.spec.N = 8 // incompatible shape
	for _, j := range []*Job{a, b, c} {
		q.push(j)
	}
	j, ok := q.pop(func(o *Job) bool { return o.spec.N == 4 })
	if !ok || j.seq != 1 {
		t.Fatalf("matched pop got seq %d, want 1", j.seq)
	}
	if _, ok := q.pop(func(o *Job) bool { return o.spec.N == 99 }); ok {
		t.Fatal("matched pop matched nothing yet returned a job")
	}
	if q.len() != 2 {
		t.Fatalf("len %d after one matched pop, want 2", q.len())
	}
}

// FuzzAdmission drives a partition queue with a random sequence of
// admissions, requeues of popped jobs, pops and matched pops, against a
// model of its contents: the queued jobs in seq order. Every pop must
// return the model's earliest matching job, every job is either queued
// or held by the caller (never both, never lost), and the depth gauge
// tracks the length.
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x80, 0x40, 0x80, 0xc1})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x80, 0x80, 0x80, 0x41, 0x40, 0x80})
	f.Add([]byte{0xff, 0x00, 0x3f, 0x7f, 0xbf})
	f.Add([]byte{0x03, 0x05, 0x42, 0x26, 0x81, 0xc3, 0x40, 0xc0, 0xe0, 0x41})
	f.Fuzz(func(t *testing.T, ops []byte) {
		depth := new(telemetry.Gauge)
		q := newQueue(depth)
		var queued, held []*Job // queued models q's contents, in seq order
		// take checks one pop against the model and applies it.
		take := func(match func(*Job) bool, got *Job, ok bool) {
			t.Helper()
			var want *Job
			if n := slices.IndexFunc(queued, match); n >= 0 {
				want = queued[n]
				queued = slices.Delete(queued, n, n+1)
			}
			if ok != (want != nil) || got != want {
				t.Fatalf("pop returned %v (ok=%v), want %v", got, ok, want)
			}
			if ok {
				held = append(held, got)
			}
		}
		var seq int64
		for _, op := range ops {
			switch op >> 6 {
			case 0: // admit
				j := mkJob(seq)
				seq++
				q.push(j)
				queued = append(queued, j)
			case 1: // requeue a popped job: it goes back to its seq place
				if len(held) == 0 {
					continue
				}
				i := int(op&0x3f) % len(held)
				j := held[i]
				held = slices.Delete(held, i, i+1)
				q.push(j)
				queued = append(queued, j)
				slices.SortFunc(queued, bySeq)
			case 2: // pop
				j, ok := q.pop(nil)
				take(func(*Job) bool { return true }, j, ok)
			case 3: // steal: pop the earliest job of one seq parity
				match := func(j *Job) bool { return j.seq&1 == int64(op&1) }
				j, ok := q.pop(match)
				take(match, j, ok)
			}
			if q.len() != len(queued) || depth.Value() != float64(len(queued)) {
				t.Fatalf("queue len %d, depth %v, want %d", q.len(), depth.Value(), len(queued))
			}
			if snap := q.snapshot(); !slices.Equal(snap, queued) {
				t.Fatalf("queue holds %v, want %v", snap, queued)
			}
		}
		// Drain: every admitted job comes out exactly once.
		for len(queued) > 0 {
			j, ok := q.pop(nil)
			take(func(*Job) bool { return true }, j, ok)
		}
		if j, ok := q.pop(nil); ok {
			t.Fatalf("pop invented job %d", j.seq)
		}
		slices.SortFunc(held, bySeq)
		for i, j := range held {
			if j.seq != int64(i) {
				t.Fatalf("job %d lost or duplicated (held %d jobs of %d)", i, len(held), seq)
			}
		}
		if int64(len(held)) != seq {
			t.Fatalf("held %d jobs of %d admitted", len(held), seq)
		}
	})
}
