package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink consumes events. Sinks are driven from the single simulation
// goroutine; they need not be safe for concurrent use.
type Sink interface {
	Emit(Event)
	// Close flushes buffered output and writes any trailer the format
	// needs (the Chrome sink's closing bracket). A sink must tolerate
	// being closed more than once.
	Close() error
}

// --- Text sink ---

// TextSink renders events one per line:
//
//	[   cycle] kind           detail
//
// one line per event, suitable for eyeballing and diffing.
type TextSink struct {
	w io.Writer
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit writes one line.
func (s *TextSink) Emit(e Event) {
	fmt.Fprintf(s.w, "[%8d] %-14s %s\n", e.Cycle, e.Kind, e.Detail)
}

// Close flushes the underlying writer when it is buffered.
func (s *TextSink) Close() error {
	if f, ok := s.w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// --- JSONL sink ---

// JSONLSink writes one JSON object per line: the Event's structured
// fields plus its class name. The stream is greppable and trivially
// loadable into pandas/jq.
type JSONLSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// jsonlEvent adds the class name to the wire form.
type jsonlEvent struct {
	Event
	ClassName string `json:"class"`
}

// Emit writes one line.
func (s *JSONLSink) Emit(e Event) {
	s.enc.Encode(jsonlEvent{Event: e, ClassName: e.ClassName()})
}

// Close flushes the buffer.
func (s *JSONLSink) Close() error { return s.bw.Flush() }

// --- Chrome trace-event sink ---

// ChromeSink writes the Chrome trace-event format (the JSON object form,
// {"traceEvents":[...]}), loadable in Perfetto (https://ui.perfetto.dev)
// and chrome://tracing. One simulated cycle maps to one microsecond of
// trace time. Events with a duration become complete ("X") slices; the
// rest become instant ("i") events. Each event class gets its own track
// (tid), so Perfetto renders squashes, SDO activity and cache traffic as
// separate rows.
type ChromeSink struct {
	bw    *bufio.Writer
	n     int
	open  bool
	close bool
}

// NewChromeSink returns a Chrome trace sink writing to w.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{bw: bufio.NewWriter(w)}
}

// chromeEvent is one trace-event record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// tid maps a class to its track index (1-based, in bit order).
func tid(c Class) int {
	t := 1
	for bit := Class(1); bit < 1<<numClasses; bit <<= 1 {
		if c == bit {
			return t
		}
		t++
	}
	return 0
}

// Emit appends one trace event.
func (s *ChromeSink) Emit(e Event) {
	if !s.open {
		s.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
		s.open = true
	}
	if s.n > 0 {
		s.bw.WriteByte(',')
	}
	s.bw.WriteByte('\n')
	ce := chromeEvent{
		Name:  e.Kind,
		Cat:   e.ClassName(),
		Phase: "i",
		TS:    e.Cycle,
		PID:   0,
		TID:   tid(e.Class),
		Scope: "t",
	}
	if e.Dur > 0 {
		ce.Phase = "X"
		ce.Dur = e.Dur
		ce.Scope = ""
	}
	args := make(map[string]any, 4)
	if e.Seq != 0 {
		args["seq"] = e.Seq
	}
	if e.PC != 0 {
		args["pc"] = e.PC
	}
	if e.Addr != 0 {
		args["addr"] = fmt.Sprintf("%#x", e.Addr)
	}
	if e.Level != "" {
		args["level"] = e.Level
	}
	if e.Detail != "" {
		args["detail"] = e.Detail
	}
	if len(args) > 0 {
		ce.Args = args
	}
	b, err := json.Marshal(ce)
	if err != nil {
		return
	}
	s.bw.Write(b)
	s.n++
}

// Close writes the trailer and flushes. An empty trace still produces a
// valid document.
func (s *ChromeSink) Close() error {
	if s.close {
		return nil
	}
	s.close = true
	if !s.open {
		s.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	}
	s.bw.WriteString("\n]}\n")
	return s.bw.Flush()
}

// --- Ring sink ---

// RingSink keeps the last N events in a bounded ring buffer, for
// "what happened just before the squash/halt/watchdog" postmortems with
// no I/O on the hot path.
type RingSink struct {
	buf  []Event
	next int
	full bool
}

// NewRingSink returns a ring buffer holding the most recent n events.
func NewRingSink(n int) *RingSink {
	if n <= 0 {
		n = 1
	}
	return &RingSink{buf: make([]Event, n)}
}

// Emit records the event, overwriting the oldest once full.
func (s *RingSink) Emit(e Event) {
	s.buf[s.next] = e
	s.next++
	if s.next == len(s.buf) {
		s.next, s.full = 0, true
	}
}

// Close is a no-op; the ring is read after the run.
func (s *RingSink) Close() error { return nil }

// Events returns the buffered events, oldest first.
func (s *RingSink) Events() []Event {
	if !s.full {
		return append([]Event(nil), s.buf[:s.next]...)
	}
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// WriteText dumps the buffered events, oldest first, in the text-sink
// format — the postmortem report.
func (s *RingSink) WriteText(w io.Writer) {
	t := NewTextSink(w)
	for _, e := range s.Events() {
		t.Emit(e)
	}
}

// --- Concurrency-safe ring sink ---

// SafeRingSink is a RingSink safe for concurrent emitters and readers —
// the flight recorder for services whose events come from many worker
// goroutines, read live over HTTP (/debug/flight) rather than after the
// run. Plain RingSink stays lock-free for the single-goroutine simulator
// hot path.
type SafeRingSink struct {
	mu   sync.Mutex
	ring *RingSink
}

// NewSafeRingSink returns a concurrent ring holding the last n events.
func NewSafeRingSink(n int) *SafeRingSink {
	return &SafeRingSink{ring: NewRingSink(n)}
}

// Emit records the event, overwriting the oldest once full.
func (s *SafeRingSink) Emit(e Event) {
	s.mu.Lock()
	s.ring.Emit(e)
	s.mu.Unlock()
}

// Close is a no-op (the ring is read live).
func (s *SafeRingSink) Close() error { return nil }

// Events returns a snapshot of the buffered events, oldest first.
func (s *SafeRingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Events()
}
