package trace

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
)

// Node is the serialized form of one span: offsets are microseconds
// relative to the job's epoch. An unfinished span reports its duration up
// to the snapshot instant.
type Node struct {
	Name     string            `json:"name"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Node           `json:"children,omitempty"`
}

// CellDoc is one cell's serialized trace: the span tree plus the phase
// attribution derived from it.
type CellDoc struct {
	Cell        string       `json:"cell"`
	Spans       *Node        `json:"spans"`
	Attribution *Attribution `json:"attribution"`
}

// Doc is the GET /sweeps/{id}/trace document.
type Doc struct {
	ID    string    `json:"id"`
	Epoch time.Time `json:"epoch"`
	Cells []CellDoc `json:"cells"`
}

// Doc snapshots the job trace. Safe to call while cells are still
// running; open spans report duration-so-far.
func (jt *JobTrace) Doc() *Doc {
	if jt == nil {
		return nil
	}
	jt.mu.Lock()
	cells := append([]*CellTrace(nil), jt.cells...)
	jt.mu.Unlock()
	d := &Doc{ID: jt.id, Epoch: jt.epoch, Cells: make([]CellDoc, 0, len(cells))}
	for _, ct := range cells {
		d.Cells = append(d.Cells, CellDoc{Cell: ct.cell, Spans: ct.Node(), Attribution: ct.Attribution()})
	}
	return d
}

// Node snapshots the cell's span tree (nil on a nil trace).
func (ct *CellTrace) Node() *Node {
	if ct == nil {
		return nil
	}
	now := time.Now()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return nodeOf(ct.root, ct.epoch, now)
}

func nodeOf(s *Span, epoch, now time.Time) *Node {
	if s == nil {
		return nil
	}
	n := &Node{Name: s.name, StartUS: s.start.Sub(epoch).Microseconds(), DurUS: spanDur(s, now).Microseconds()}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, nodeOf(c, epoch, now))
	}
	return n
}

// spanDur is a span's duration, using now for spans still open.
func spanDur(s *Span, now time.Time) time.Duration {
	end := s.end
	if end.IsZero() {
		end = now
	}
	return end.Sub(s.start)
}

// Attribution is the per-cell latency breakdown, in microseconds: where
// the cell's reported wall clock (root-span duration) went, phase by
// phase. By construction
//
//	WallUS = QueueUS + CacheUS + PeerUS + AwaitUS + PlanUS +
//	         CheckpointUS + SimulateUS + OtherUS
//
// exactly — OtherUS is defined as the remainder (scheduling gaps between
// phases), clamped at zero against timer skew. RetryUS, ReconstructUS
// and Attempts describe the inside of SimulateUS.
type Attribution struct {
	WallUS        int64 `json:"wall_us"`
	QueueUS       int64 `json:"queue_us,omitempty"`
	CacheUS       int64 `json:"cache_us,omitempty"`
	PeerUS        int64 `json:"peer_us,omitempty"`
	AwaitUS       int64 `json:"await_us,omitempty"`
	PlanUS        int64 `json:"plan_us,omitempty"`
	CheckpointUS  int64 `json:"checkpoint_us,omitempty"`
	SimulateUS    int64 `json:"simulate_us,omitempty"`
	OtherUS       int64 `json:"other_us"`
	RetryUS       int64 `json:"retry_backoff_us,omitempty"`
	ReconstructUS int64 `json:"reconstruct_us,omitempty"`
	Attempts      int   `json:"attempts,omitempty"`
}

// Attribution derives the breakdown from the cell's span tree (nil on a
// nil trace).
func (ct *CellTrace) Attribution() *Attribution {
	if ct == nil {
		return nil
	}
	now := time.Now()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	a := &Attribution{WallUS: spanDur(ct.root, now).Microseconds()}
	var known int64
	for _, c := range ct.root.children {
		d := spanDur(c, now).Microseconds()
		switch c.name {
		case PhaseQueue:
			a.QueueUS += d
		case PhaseCache:
			a.CacheUS += d
		case PhasePeer:
			a.PeerUS += d
		case PhaseAwait:
			a.AwaitUS += d
		case PhasePlan:
			a.PlanUS += d
		case PhaseCheckpoint:
			a.CheckpointUS += d
		case PhaseSimulate:
			a.SimulateUS += d
		default:
			continue // unknown phases land in Other
		}
		known += d
	}
	a.OtherUS = a.WallUS - known
	if a.OtherUS < 0 {
		a.OtherUS = 0
	}
	// Attempt/backoff/reconstruct live nested under simulate (and under
	// interval spans in sampled mode); count them wherever they are.
	var walk func(s *Span)
	walk = func(s *Span) {
		for _, c := range s.children {
			switch c.name {
			case PhaseAttempt:
				a.Attempts++
			case PhaseBackoff:
				a.RetryUS += spanDur(c, now).Microseconds()
			case PhaseReconstruct:
				a.ReconstructUS += spanDur(c, now).Microseconds()
			}
			walk(c)
		}
	}
	walk(ct.root)
	return a
}

// WriteChrome renders the trace document in the Chrome trace-event
// format by feeding the span tree through the existing obs.ChromeSink
// (one microsecond of span time per "cycle"). Offsets are shifted so the
// earliest span lands at ts 0.
func (d *Doc) WriteChrome(w io.Writer) error {
	sink := obs.NewChromeSink(w)
	var min int64
	first := true
	var scan func(n *Node)
	scan = func(n *Node) {
		if n == nil {
			return
		}
		if first || n.StartUS < min {
			min, first = n.StartUS, false
		}
		for _, c := range n.Children {
			scan(c)
		}
	}
	for _, c := range d.Cells {
		scan(c.Spans)
	}
	var emit func(cell string, n *Node)
	emit = func(cell string, n *Node) {
		if n == nil {
			return
		}
		detail := cell
		if len(n.Attrs) > 0 {
			var parts []string
			for k, v := range n.Attrs {
				parts = append(parts, k+"="+v)
			}
			detail += " " + strings.Join(parts, " ")
		}
		dur := n.DurUS
		if dur < 0 {
			dur = 0
		}
		sink.Emit(obs.Event{
			Class:  obs.ClassTrace,
			Kind:   n.Name,
			Cycle:  uint64(n.StartUS - min),
			Dur:    uint64(dur),
			Detail: detail,
		})
		for _, c := range n.Children {
			emit(cell, c)
		}
	}
	for _, c := range d.Cells {
		emit(c.Cell, c.Spans)
	}
	return sink.Close()
}

// Summary renders a one-line human breakdown of an attribution, used by
// the slow-cell warning and sdoctl trace.
func (a *Attribution) Summary() string {
	if a == nil {
		return ""
	}
	ms := func(us int64) string { return fmt.Sprintf("%.1fms", float64(us)/1e3) }
	parts := []string{"wall " + ms(a.WallUS)}
	add := func(name string, us int64) {
		if us > 0 {
			parts = append(parts, name+" "+ms(us))
		}
	}
	add("queue", a.QueueUS)
	add("cache", a.CacheUS)
	add("peer", a.PeerUS)
	add("await", a.AwaitUS)
	add("plan", a.PlanUS)
	add("ckpt", a.CheckpointUS)
	add("sim", a.SimulateUS)
	add("other", a.OtherUS)
	add("retry-backoff", a.RetryUS)
	add("reconstruct", a.ReconstructUS)
	if a.Attempts > 1 {
		parts = append(parts, fmt.Sprintf("attempts %d", a.Attempts))
	}
	return strings.Join(parts, " | ")
}
