// Package stream implements incremental TSQR: rows arrive continuously,
// each rank folds them into a small running R factor, and the current
// global R of everything ingested so far can be read at any time with a
// non-destructive reduction-tree snapshot (core.SnapshotR).
//
// The defining property is granularity invariance, and it is bitwise:
// every ingested row passes through a fixed-height internal panel, so
// the sequence of factorization kernels — and therefore the running R,
// bit for bit — depends only on the total number of rows absorbed,
// never on how arrivals were grouped into blocks. Folding B1..Bk then
// snapshotting equals one-shot TSQR of the concatenation exactly; the
// dask-style blocked fold (SNIPPETS.md) gives the recurrence, the fixed
// panel makes it deterministic under re-blocking. The running R is also
// the whole per-rank state, which makes checkpointing free: clone the
// folder, and a failed round rolls back by discarding the clone.
package stream

import (
	"fmt"

	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
)

// Folder is one rank's incremental fold state: an n-column panel buffer
// of fixed height and the running n×n R. Zero rows is a valid state
// (the running R is zero). Folders are not safe for concurrent use —
// the serving layer serializes rounds, and snapshots are taken by the
// non-mutating SnapshotLocal. Clone does mutate: it moves the panel
// buffer.
type Folder struct {
	// OnFold, when set, observes every completed panel factorization:
	// the panel's row count and whether its R was merged into an
	// existing running R by a stacked-triangle QR (false for the first
	// panel, which becomes the running R directly). The round executor
	// hooks it to charge simulator kernels in both data and cost-only
	// modes.
	OnFold func(rows int, merged bool)

	n      int
	panel  int
	data   bool
	buf    *matrix.Dense // data mode only: row buffer, grown to panel×n by the first ingest that needs it
	used   int           // buffered rows not yet folded
	rows   int           // total rows absorbed
	folded int           // completed panel folds
	r      *matrix.Dense // running R; nil until the first fold
}

// DefaultPanelRows is the internal panel height for n columns when the
// caller passes 0: the fold kernel's cache-sized block, the same rule
// the TSQR leaf cuts its rows by.
func DefaultPanelRows(n int) int { return lapack.FoldBlockRows(n) }

// NewFolder returns a data-mode folder for n-column rows with the given
// internal panel height (0 = DefaultPanelRows). The panel height is
// part of the bitwise contract: two folders agree bit for bit only if
// their panel heights agree.
func NewFolder(n, panelRows int) *Folder {
	f := newFolder(n, panelRows)
	f.data = true
	return f
}

// NewCostFolder returns a counters-only folder: PushN advances the same
// panel bookkeeping and fires the same OnFold charges as the data path,
// without touching any floats. Cost-only worlds stream at thousands of
// ranks this way.
func NewCostFolder(n, panelRows int) *Folder {
	return newFolder(n, panelRows)
}

func newFolder(n, panelRows int) *Folder {
	if n < 1 {
		panic(fmt.Sprintf("stream: need at least one column, got %d", n))
	}
	if panelRows == 0 {
		panelRows = DefaultPanelRows(n)
	}
	if panelRows < 1 {
		panic(fmt.Sprintf("stream: panel height %d must be positive", panelRows))
	}
	return &Folder{n: n, panel: panelRows}
}

// N returns the column count.
func (f *Folder) N() int { return f.n }

// PanelRows returns the internal panel height.
func (f *Folder) PanelRows() int { return f.panel }

// Rows returns the total number of rows absorbed so far.
func (f *Folder) Rows() int { return f.rows }

// Push folds a block of rows into the running R. The block may have any
// row count, including zero and many panels' worth: rows are buffered
// into the fixed panel and each full panel is factored and merged, so
// the kernel sequence after Push(B1); Push(B2) is identical to
// Push(stack(B1, B2)).
func (f *Folder) Push(block *matrix.Dense) {
	if !f.data {
		panic("stream: Push on a cost-only folder (use PushN)")
	}
	if block.Cols != f.n {
		panic(fmt.Sprintf("stream: block has %d cols, folder has %d", block.Cols, f.n))
	}
	f.walk(block.Rows, func(dst *matrix.Dense, off int) {
		matrix.Copy(dst, block.View(off, 0, dst.Rows, f.n))
	})
}

// PushN is the cost-only Push: advance the panel bookkeeping for k rows
// and fire OnFold for every completed panel.
func (f *Folder) PushN(k int) {
	if f.data {
		panic("stream: PushN on a data folder (use Push)")
	}
	if k < 0 {
		panic(fmt.Sprintf("stream: negative row count %d", k))
	}
	f.walk(k, nil)
}

// walk is the one panel walk behind Push, PushN and the rounds'
// in-place shard ingest: it takes k incoming rows in panel-sized runs,
// hands fill (data mode only) the buffer view each run lands in and the
// index of its first row among the k, and folds every panel that fills.
func (f *Folder) walk(k int, fill func(dst *matrix.Dense, off int)) {
	for off := 0; off < k; {
		take := min(f.panel-f.used, k-off)
		if f.data {
			if f.buf == nil || f.buf.Rows < f.panel {
				// First rows, or the exact-fit copy Clone leaves: grow to the panel.
				old := f.buf
				f.buf = matrix.New(f.panel, f.n)
				if old != nil {
					matrix.Copy(f.buf.View(0, 0, old.Rows, f.n), old)
				}
			}
			fill(f.buf.View(f.used, 0, take, f.n), off)
		}
		f.used += take
		f.rows += take
		off += take
		if f.used == f.panel {
			f.r = f.foldPanel(f.r, f.buf)
			f.used = 0
		}
	}
}

// foldPanel counts one fold of the first f.used buffered rows and, in
// data mode, runs it: p (those rows) is factored in place and its
// triangle merged into r, also in place. It returns the new running R
// (nil in cost-only mode, where p is nil too).
func (f *Folder) foldPanel(r, p *matrix.Dense) *matrix.Dense {
	merged := f.folded > 0
	f.folded++
	if f.OnFold != nil {
		f.OnFold(f.used, merged)
	}
	if !f.data {
		return nil
	}
	return lapack.FoldBlock(r, p, 0, nil)
}

// SnapshotLocal returns this rank's current n×n R — everything absorbed
// so far, including the partial panel — without mutating any state: the
// partial panel is folded speculatively, on copies of the buffered rows
// and of the running R. Zero rows yields the zero matrix. In cost-only
// mode it returns nil but still fires the OnFold charge for the partial
// flush, keeping both modes' accounting identical.
func (f *Folder) SnapshotLocal() *matrix.Dense {
	r := f.r
	if r != nil {
		r = r.Clone() // callers own the snapshot; the stream keeps its R
	}
	if f.used > 0 {
		var p *matrix.Dense
		if f.data {
			p = f.buf.View(0, 0, f.used, f.n).Clone()
		}
		// folded is restored after the speculative flush so the stream
		// continues exactly where it was.
		savedFolded := f.folded
		r = f.foldPanel(r, p)
		f.folded = savedFolded
	}
	if f.data && r == nil {
		return matrix.New(f.n, f.n)
	}
	return r
}

// Clone returns an independent deep copy — the checkpoint primitive.
// It costs O(n²) plus the buffered rows, not the panel: the clone takes
// over f's panel buffer, whose first rows are already the buffered ones,
// and f keeps an exact-fit copy of those rows, which is all a rollback
// to f reads. The serving layer clones every rank's folder on every
// round and commits the clone, so a steady stream reuses one panel,
// while a straggler of a failed round still owns the panel it writes
// and the retry's clone grows its own. The OnFold hook is not carried
// over: hooks belong to the execution context, not the state.
func (f *Folder) Clone() *Folder {
	c := &Folder{n: f.n, panel: f.panel, data: f.data,
		used: f.used, rows: f.rows, folded: f.folded, buf: f.buf}
	f.buf = nil
	if c.buf != nil && f.used > 0 {
		f.buf = c.buf.View(0, 0, f.used, f.n).Clone()
	}
	if f.r != nil {
		c.r = f.r.Clone()
	}
	return c
}
