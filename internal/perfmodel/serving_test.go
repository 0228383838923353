package perfmodel

import (
	"testing"

	"gridqr/internal/grid"
)

func TestDrainTime(t *testing.T) {
	p := Predictor{G: grid.Grid5000()}
	solo := p.TSQRTime(1<<20, 64, false)
	if solo <= 0 {
		t.Fatal("solo time not positive")
	}
	if got := p.DrainTime(0, 4, 1<<20, 64); got != 0 {
		t.Errorf("empty queue drains in %v", got)
	}
	// 10 jobs over 4 partitions is 3 rounds.
	if got, want := p.DrainTime(10, 4, 1<<20, 64), 3*solo; got != want {
		t.Errorf("drain(10,4) = %v, want %v", got, want)
	}
	// More partitions never drain slower.
	if p.DrainTime(10, 8, 1<<20, 64) > p.DrainTime(10, 4, 1<<20, 64) {
		t.Error("drain time increased with more partitions")
	}
}

func TestDeadlineRisk(t *testing.T) {
	p := Predictor{G: grid.Grid5000()}
	solo := p.TSQRTime(1<<20, 64, false)
	if !p.DeadlineRisk(0, 0, 1<<20, 64) {
		t.Error("zero budget not at risk")
	}
	if !p.DeadlineRisk(solo/2, 0, 1<<20, 64) {
		t.Error("budget below one service not at risk")
	}
	if p.DeadlineRisk(10*solo, 2, 1<<20, 64) {
		t.Error("ample budget flagged at risk")
	}
	// Queue depth pushes a feasible job over the line.
	if p.DeadlineRisk(2*solo, 0, 1<<20, 64) {
		t.Error("2 services of budget, empty queue: at risk")
	}
	if !p.DeadlineRisk(2*solo, 5, 1<<20, 64) {
		t.Error("5 queued jobs ahead, 2 services of budget: not at risk")
	}
}
