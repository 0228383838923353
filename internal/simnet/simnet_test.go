package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// testNet is a miniature transport over the scheduler: per-proc FIFO
// queues keyed by sender, blocking recv via Park/Unpark, eager send.
// It is what internal/mpi's event engine does, reduced to the bones the
// scheduler contract cares about.
type testNet struct {
	s      *Scheduler
	clocks []float64
	queues [][]int // queues[to] = sender ids in delivery order
	waits  []int   // waits[to] = sender id being waited for, -1 if none
	seqs   [][]int // per (to, from) received sequence numbers, for FIFO checks
	sent   [][]int
	n      int
}

func newTestNet(n int) *testNet {
	t := &testNet{clocks: make([]float64, n), queues: make([][]int, n),
		waits: make([]int, n), n: n}
	for i := range t.waits {
		t.waits[i] = -1
	}
	t.seqs = make([][]int, n*n)
	t.sent = make([][]int, n*n)
	t.s = New(n, func(id int) float64 { return t.clocks[id] })
	return t
}

func (t *testNet) send(from, to, seq int) {
	t.sent[to*t.n+from] = append(t.sent[to*t.n+from], seq)
	t.queues[to] = append(t.queues[to], from)
	if t.waits[to] == from {
		t.waits[to] = -1
		t.s.Unpark(to)
	}
}

func (t *testNet) recv(to, from int) {
	for {
		for i, f := range t.queues[to] {
			if f == from {
				t.queues[to] = append(t.queues[to][:i], t.queues[to][i+1:]...)
				got := t.sent[to*t.n+from][len(t.seqs[to*t.n+from])]
				t.seqs[to*t.n+from] = append(t.seqs[to*t.n+from], got)
				return
			}
		}
		t.waits[to] = from
		t.s.Park()
	}
}

func TestAllProcsComplete(t *testing.T) {
	n := 64
	net := newTestNet(n)
	ran := make([]bool, n)
	net.s.Run(func(id int) { ran[id] = true })
	for id, ok := range ran {
		if !ok {
			t.Fatalf("proc %d never ran", id)
		}
	}
	if got := net.s.Runnable(); got != 0 {
		t.Fatalf("runnable after completion: %d", got)
	}
}

func TestParkUnparkHandoff(t *testing.T) {
	net := newTestNet(2)
	order := []int{}
	net.s.Run(func(id int) {
		if id == 0 {
			net.recv(0, 1) // parks until 1 sends
			order = append(order, 0)
		} else {
			net.clocks[1] += 5
			net.send(1, 0, 0)
			order = append(order, 1)
		}
	})
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("order = %v, want [1 0]", order)
	}
}

func TestDispatchOrderIsMinClockThenID(t *testing.T) {
	// Procs with staggered clocks: dispatch order must follow (clock, id).
	n := 16
	net := newTestNet(n)
	for i := range net.clocks {
		net.clocks[i] = float64((n - i) % 5) // ties exercise the id tiebreak
	}
	var seen []int
	net.s.SetTraceHook(func(ev TraceEvent) {
		if ev.Kind == "dispatch" {
			seen = append(seen, ev.ID)
		}
	})
	net.s.Run(func(id int) {})
	if len(seen) != n {
		t.Fatalf("dispatches = %d, want %d", len(seen), n)
	}
	for i := 1; i < len(seen); i++ {
		a, b := seen[i-1], seen[i]
		ka, kb := float64((n-a)%5), float64((n-b)%5)
		if ka > kb || (ka == kb && a > b) {
			t.Fatalf("dispatch %d (clock %g) before %d (clock %g): not (clock,id) order",
				a, ka, b, kb)
		}
	}
}

// runPanicking runs body on n procs, expects Run to panic and returns
// the panic value. Before re-raising, Run must unwind every unfinished
// proc, parked or never dispatched: the goroutine count returns to
// where it was and every proc ends done.
func runPanicking(t *testing.T, n int, body func(net *testNet, id int)) (p any) {
	t.Helper()
	before := runtime.NumGoroutine()
	net := newTestNet(n)
	func() {
		defer func() { p = recover() }()
		net.s.Run(func(id int) { body(net, id) })
	}()
	if p == nil {
		t.Fatal("Run did not panic")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d after the panicking Run, %d before", after, before)
	}
	for id := 0; id < n; id++ {
		if st := net.s.StateOf(id); st != StateDone {
			t.Errorf("proc %d left in state %v", id, st)
		}
	}
	return p
}

func TestDeadlockPanics(t *testing.T) {
	p := runPanicking(t, 2, func(net *testNet, id int) {
		net.recv(id, 1-id) // both wait on each other, nothing sent
	})
	if s, ok := p.(string); !ok || s == "" {
		t.Fatalf("unexpected panic payload %v", p)
	}
}

func TestBodyPanicReachesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		body func(net *testNet, id int)
	}{
		{"parked-peer", 2, func(net *testNet, id int) {
			if id == 0 {
				net.recv(0, 1)
			}
			panic("boom")
		}},
		{"never-dispatched", 4, func(net *testNet, id int) {
			panic("boom") // proc 0 runs first; 1–3 never start
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p := runPanicking(t, tc.n, tc.body); p != "boom" {
				t.Fatalf("panic %v, want boom", p)
			}
		})
	}
}

func TestOnIdleResolvesWait(t *testing.T) {
	net := newTestNet(2)
	resolved := false
	net.s.OnIdle(func() bool {
		// Deterministic "timeout": wake the parked proc; its wait
		// predicate still fails, so the transport must mark the outcome.
		for id := 0; id < 2; id++ {
			if net.s.StateOf(id) == StateParked {
				resolved = true
				net.waits[id] = -1
				net.queues[id] = append(net.queues[id], 1-id) // fake delivery
				net.sent[id*2+(1-id)] = append(net.sent[id*2+(1-id)], 0)
				net.s.Unpark(id)
				return true
			}
		}
		return false
	})
	net.s.Run(func(id int) {
		if id == 0 {
			net.recv(0, 1) // 1 never sends; OnIdle resolves
		}
	})
	if !resolved {
		t.Fatal("OnIdle never ran")
	}
}

// randomProgram builds a deadlock-free random message program: a global
// sequence of (from, to) edges; each proc performs its own ops in
// global order (sends are eager, so by induction every recv's matching
// send eventually executes).
func randomProgram(rng *rand.Rand, n, edges int) [][]func(net *testNet) {
	type op struct {
		send     bool
		peer, sq int
	}
	ops := make([][]op, n)
	seq := make([]int, n*n)
	for e := 0; e < edges; e++ {
		from := rng.Intn(n)
		to := rng.Intn(n - 1)
		if to >= from {
			to++
		}
		s := seq[to*n+from]
		seq[to*n+from]++
		ops[from] = append(ops[from], op{send: true, peer: to, sq: s})
		ops[to] = append(ops[to], op{send: false, peer: from, sq: s})
	}
	prog := make([][]func(net *testNet), n)
	for id := range prog {
		for _, o := range ops[id] {
			id, o := id, o
			if o.send {
				prog[id] = append(prog[id], func(net *testNet) {
					net.clocks[id] += float64(rng.Intn(3)) // interleave compute
					net.send(id, o.peer, o.sq)
				})
			} else {
				prog[id] = append(prog[id], func(net *testNet) { net.recv(id, o.peer) })
			}
		}
	}
	return prog
}

// TestPropertyRandomPrograms drives random deadlock-free programs and
// checks the scheduler contract: every dispatch picks the minimum
// (clock, id) of the runnable set, per-(receiver, sender) delivery is
// FIFO, nothing leaks past completion, and the whole execution is
// bit-for-bit deterministic across repeat runs.
func TestPropertyRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var firstTrace []TraceEvent
			var firstClocks []float64
			for round := 0; round < 2; round++ {
				rng := rand.New(rand.NewSource(seed))
				n := 8 + rng.Intn(24)
				prog := randomProgram(rng, n, 40+rng.Intn(160))
				net := newTestNet(n)

				// Shadow runnable set for the min-(clock,id) invariant.
				type entry struct{ key float64 }
				ready := map[int]entry{}
				for id := 0; id < n; id++ {
					ready[id] = entry{0}
				}
				var trace []TraceEvent
				net.s.SetTraceHook(func(ev TraceEvent) {
					trace = append(trace, ev)
					switch ev.Kind {
					case "dispatch":
						for id, e := range ready {
							if e.key < ev.Key || (e.key == ev.Key && id < ev.ID) {
								t.Fatalf("dispatch (%g,%d) but runnable (%g,%d) is smaller",
									ev.Key, ev.ID, e.key, id)
							}
						}
						if _, ok := ready[ev.ID]; !ok {
							t.Fatalf("dispatched proc %d not in shadow ready set", ev.ID)
						}
						delete(ready, ev.ID)
					case "unpark":
						ready[ev.ID] = entry{ev.Key}
					}
				})
				net.s.Run(func(id int) {
					for _, f := range prog[id] {
						f(net)
					}
				})

				// FIFO per (receiver, sender).
				for k, got := range net.seqs {
					for i := 1; i < len(got); i++ {
						if got[i] < got[i-1] {
							t.Fatalf("pair %d: out-of-order delivery %v", k, got)
						}
					}
				}
				// No leaks; every park ended by exactly one unpark.
				if r := net.s.Runnable(); r != 0 {
					t.Fatalf("leaked %d runnable entries", r)
				}
				if st := net.s.Stats(); st.Unparks != st.Parks {
					t.Fatalf("unparks %d, parks %d", st.Unparks, st.Parks)
				}
				for id := 0; id < n; id++ {
					if st := net.s.StateOf(id); st != StateDone {
						t.Fatalf("proc %d finished in state %v", id, st)
					}
				}
				// Determinism across rounds.
				if round == 0 {
					firstTrace = trace
					firstClocks = append([]float64(nil), net.clocks...)
				} else {
					if !reflect.DeepEqual(firstTrace, trace) {
						t.Fatal("trace differs between identical runs")
					}
					if !reflect.DeepEqual(firstClocks, net.clocks) {
						t.Fatal("final clocks differ between identical runs")
					}
				}
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	net := newTestNet(2)
	net.s.Run(func(id int) {
		if id == 0 {
			net.recv(0, 1)
		} else {
			net.send(1, 0, 0)
		}
	})
	st := net.s.Stats()
	if st.Dispatches < 2 {
		t.Fatalf("dispatches = %d, want >= 2", st.Dispatches)
	}
	if st.Parks != 1 || st.Unparks != 1 {
		t.Fatalf("parks/unparks = %d/%d, want 1/1", st.Parks, st.Unparks)
	}
	if st.PeakRunnable < 2 {
		t.Fatalf("peak runnable = %d, want >= 2", st.PeakRunnable)
	}
}
